"""Property-suite wrappers: each certifier passes on a reference setup."""

from pathlib import Path

import numpy as np
import pytest

from psindex import (ConvergenceError, ServerParams, SystemConfig,
                     passive_kernel)
from psindex import checks, dp, threshold, whittle
from psindex.cli import load_config

CFG = SystemConfig(arrival_p=0.4,
                   servers=(ServerParams(q=0.55, cost_c=30.0),
                            ServerParams(q=0.50, cost_c=29.0)),
                   buffer=10)


def test_departure_law_check():
    res = checks.check_departure_law()
    assert res.passed
    assert res.detail


def test_active_law_convolution_check():
    assert checks.check_active_law_is_convolution().passed


def test_passive_shift_monotone_check():
    assert checks.check_passive_shift_monotone().passed


def test_departure_counts_are_not_stochastically_ordered():
    """Sanity guard for the corrected property: the raw departure
    counts share the mean q across x, so neither CDF direction can
    hold pointwise and the ordering only exists for x - D."""
    passive = passive_kernel(0.5, 2)
    cdf1 = np.cumsum(passive[1, 1::-1])
    cdf2 = np.cumsum(passive[2, ::-1])
    assert cdf2[0] > cdf1[0]
    assert cdf2[1] < cdf1[1]


def _writable_copy(kernel):
    """A copy of a passive matrix or an (active, passive) pair: the
    model hands out its cached blocks read-only."""
    if isinstance(kernel, np.ndarray):
        return kernel.copy()
    return tuple(m.copy() for m in kernel)


def _lose_mass(passive):
    passive[3, 1] += 1e-9


def _shift_mean(passive):
    passive[3, 3] += 1e-9  # one departure fewer, same mass
    passive[3, 2] -= 1e-9


def _break_active_row(kernels):
    kernels[0][3, 1] += 1e-9


def _admit_while_passive(kernels):
    kernels[1][2, 3] = 1e-9


def _empty_five_jobs_at_once(passive):
    passive[5] = 0.0
    passive[5, 0] = 1.0  # CDF above row 4's at y = 0


@pytest.mark.parametrize("check,kernel,edit", [
    (checks.check_departure_law, "passive_kernel", _lose_mass),
    (checks.check_departure_law, "passive_kernel", _shift_mean),
    (checks.check_active_law_is_convolution, "transition_kernel",
     _break_active_row),
    (checks.check_active_law_is_convolution, "transition_kernel",
     _admit_while_passive),
    (checks.check_passive_shift_monotone, "passive_kernel",
     _empty_five_jobs_at_once),
], ids=["mass", "mean", "active_row", "passive_support", "cdf"])
def test_model_checks_fail_on_a_perturbed_kernel(monkeypatch, check, kernel,
                                                 edit):
    """The model checks read the kernel the solvers use, so a defect in
    it must show; unperturbed, each passes (tests above)."""
    real = getattr(checks, kernel)

    def perturbed(*args):
        out = _writable_copy(real(*args))
        edit(out)
        return out
    monkeypatch.setattr(checks, kernel, perturbed)
    assert not check().passed


FIG3 = load_config(Path(__file__).resolve().parent.parent
                   / "configs" / "fig3.yaml").system


@pytest.mark.parametrize("check,calls", [
    (checks.check_chain_dominance, 8),
    (checks.check_stationary_mass_monotone, 8),
    (lambda: checks.check_single_queue_structure(FIG3), 3),
], ids=["chain_dominance", "stationary_mass", "single_queue_structure"])
def test_the_kernel_cache_bounds_the_pmf_traffic(pmf_sizes, check, calls):
    """At the checks' defaults, the passive block of a q serves every p
    of CHAIN_GRID (8 values of q over 36 pairs), and one block per
    server serves all 81 charges of the RVI sweep: a cache dropped
    shows its cost here."""
    assert check().passed
    assert len(pmf_sizes) == calls


def test_stationary_mass_monotone_check():
    res = checks.check_stationary_mass_monotone()
    assert res.passed


def test_stationary_mass_monotone_check_covers_the_never_active_rule(
        monkeypatch):
    """The check starts at k = -1: a never-active row that kept all of
    its mass active, as the old branch for k = -1 had it, fails."""
    real = checks.threshold.threshold_chains

    def active_at_minus_one(*args):
        chains = real(*args)
        return chains._replace(top=np.concatenate(([0.0], chains.top[1:])))
    monkeypatch.setattr(checks.threshold, "threshold_chains",
                        active_at_minus_one)
    res = checks.check_stationary_mass_monotone()
    assert not res.passed


def test_chain_dominance_check():
    assert checks.check_chain_dominance().passed


def _never_departs_from_six(kernels):
    kernels[1][6] = 0.0
    kernels[1][6, 6] = 1.0  # passive row 6 now sits above active row 6


def test_chain_dominance_names_the_first_threshold_that_fails(monkeypatch):
    """Row k+1 of the comparison is passive row k+1 against active row
    k+1, so a passive row 6 that never departs fails threshold 5."""
    real = checks.transition_kernel

    def perturbed(*args):
        out = _writable_copy(real(*args))
        _never_departs_from_six(out)
        return out
    monkeypatch.setattr(checks, "transition_kernel", perturbed)
    res = checks.check_chain_dominance()
    assert not res.passed
    assert res.detail == "failed at k=5, q=0.2, p=0.1"


def test_threshold_cost_curve_check():
    res = checks.check_threshold_cost_curve(CFG)
    assert res.passed


def test_value_solver_consistency_check():
    assert checks.check_value_solver_consistency(CFG).passed


def test_single_queue_structure_check():
    res = checks.check_single_queue_structure(CFG)
    assert res.passed


def test_the_structure_check_starts_at_the_never_active_values(monkeypatch):
    """Each server's first charge, -20, lies below every index, where
    the never-active rule's values are RVI's fixed point: started there,
    fig3's 243 solves take at most 300 sweeps in all and the first charge
    at most 10 per server. From zeros they took 1 519, the first charges
    385, 423 and 471."""
    sweeps = []
    real = dp.single_queue_rvi

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        sweeps.append(sol.sweeps)
        return sol
    monkeypatch.setattr(dp, "single_queue_rvi", counted)
    assert checks.check_single_queue_structure(FIG3).passed
    assert len(sweeps) == 3 * 81
    assert sum(sweeps) <= 300
    assert max(sweeps[::81]) <= 10


# A near-critical q > p server (the slow config sweep's bank 44).
NEAR_CRITICAL = ServerParams(q=0.9570566099427856, cost_c=1.7132581526448034)
NEAR_CRITICAL_P = 0.9164792086296265


def test_value_is_not_convex_on_a_near_critical_server():
    """At lam = 14.5 the optimal threshold is 2, and the values of that
    threshold policy rise by 2.5288, 20.4903, 17.9984 over states 0..3,
    whether the system stops at state 3 or at 60: V is not convex on
    the recurrent range. The RVI at n = 120, 240 and 480 finds the same
    policy and values, so single_queue_structure's FAIL is no truncation
    artifact."""
    lam, want = 14.5, [2.5288, 20.4903, 17.9984]
    s, p = NEAR_CRITICAL, NEAR_CRITICAL_P
    _, arg = threshold.optimal_threshold_costs([lam], s.cost_c, s.q, p)
    assert arg.tolist() == [2]
    for n in (3, 60):
        v = whittle.solve_value(lam, 2, s, p, n).v
        np.testing.assert_allclose(np.diff(v[:4]), want, atol=5e-5)
    for n in (120, 240, 480):
        sol = dp.single_queue_rvi(lam, s, p, n, None)
        assert dp.active_interval(sol.policy, upto=n // 2) == (2, True)
        np.testing.assert_allclose(np.diff(sol.v[:4]), want, atol=5e-5)
    res = checks.check_single_queue_structure(
        SystemConfig(arrival_p=p, servers=(s,), buffer=11))
    assert not res.passed
    assert res.detail == ("value structure broken at q=0.9570566099427856, "
                          "lam=14.5")


def test_index_agreement_check():
    res = checks.check_index_agreement(CFG)
    assert res.passed is True
    assert res.detail.startswith("max |table - bisection| ")


def test_index_agreement_fails_a_table_off_by_a_thousandth(monkeypatch):
    """The check reads the cells the table code path computes."""
    closed_form = whittle._closed_form_index
    monkeypatch.setattr(whittle, "_closed_form_index",
                        lambda system: closed_form(system) + 1e-3)
    res = checks.check_index_agreement(CFG)
    assert res.passed is False
    assert res.detail == "max |table - bisection| 1.000e-03"


# The heavy-traffic bank's first server: p = 0.9 > q = 0.55.
HEAVY = SystemConfig(arrival_p=0.9,
                     servers=(ServerParams(q=0.55, cost_c=30.0),),
                     buffer=100)


def test_index_agreement_fails_instead_of_raising_when_the_table_aborts():
    """The heavy-traffic bank's first server (p > q): the table's cell 9
    fails its residual guard, and the check carries the table's message,
    which names the server and the state, instead of aborting the
    suite. The residual is the ulp of the largest value: the guard
    trips at the float floor."""
    res = checks.check_index_agreement(HEAVY)
    assert not res.passed
    assert res.name == "index_agreement"
    assert res.detail == ("index table aborted at server 0, state 9: value "
                          "system residual 1.863e-09 exceeds 1e-09; max |v| "
                          "1.414e+07, ulp 1.863e-09")


def test_index_agreement_names_the_state_where_bisection_fails(monkeypatch):
    bisect = whittle.bisect_index

    def no_bracket_at_server_1_state_3(x, server, arrival_p, n):
        if (server, x) == (CFG.servers[1], 3):
            raise ConvergenceError("no sign change found for the balance gap")
        return bisect(x, server, arrival_p, n)

    monkeypatch.setattr(whittle, "bisect_index",
                        no_bracket_at_server_1_state_3)
    res = checks.check_index_agreement(CFG)
    assert not res.passed
    assert res.detail == ("server 1, state 3: no sign change found for the "
                          "balance gap")


def test_run_property_suite_names_are_unique():
    small = SystemConfig(arrival_p=0.4,
                         servers=(ServerParams(q=0.55, cost_c=30.0),),
                         buffer=5)
    results = checks.run_property_suite(small)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_a_stalled_solver_fails_its_check_and_the_suite_goes_on(monkeypatch):
    """A ConvergenceError inside a check becomes that check's FAIL row,
    with the solver's message, and run_property_suite still returns
    every row."""
    def stalled(*args, **kwargs):
        raise ConvergenceError("relative value iteration did not reach "
                               "span 1e-10 within 100000 sweeps")
    monkeypatch.setattr(dp, "single_queue_rvi", stalled)
    small = SystemConfig(arrival_p=0.4,
                         servers=(ServerParams(q=0.55, cost_c=30.0),),
                         buffer=5)
    results = checks.run_property_suite(small)
    assert len(results) == 9
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert failed == [("single_queue_structure",
                       "relative value iteration did not reach span 1e-10 "
                       "within 100000 sweeps")]
