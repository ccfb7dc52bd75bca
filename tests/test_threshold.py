"""Threshold-policy chains: stationary laws, costs, dominance."""

import mpmath
import numpy as np
import pytest

from psindex import (ServerParams, optimal_threshold_costs,
                     stationary_distribution, threshold_chains,
                     transition_kernel)
from psindex import threshold
from psindex.checks import CHAIN_GRID, CHAIN_K_MAX
from psindex.threshold import stationary_ladder, tail_dominance, \
    threshold_rows
from psindex.whittle import _FixedThresholdSystem

from conftest import binom_row, power_stationary

PAIRS = ((0.5, 0.4), (0.55, 0.4), (0.95, 0.4), (0.45, 0.3), (0.2, 0.1))
GRID = [(k, q, p) for k in (0, 1, 3, 7, 15) for q, p in PAIRS]


def _chain(k, q, p):
    """The threshold-k chain on {0, ..., k+1}, read off the kernel."""
    return threshold_rows(*transition_kernel(q, p, k + 1), k)


def _per_row_chain(k, q, p):
    """Threshold-k chain assembled one binom_row at a time."""
    return np.vstack([binom_row(s, q, p, s <= k, k + 1)
                      for s in range(k + 2)])


def test_threshold_chain_frozen_matrix():
    chain = _chain(0, 0.5, 0.4)
    assert np.allclose(chain, [[0.6, 0.4], [0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("q,p", PAIRS + ((0.9, 0.5), (0.3, 0.8)))
def test_threshold_chain_matches_the_per_row_assembly(q, p):
    for k in range(0, 41):
        chain = _chain(k, q, p)
        assert np.max(np.abs(chain - _per_row_chain(k, q, p))) <= 1e-15


@pytest.mark.parametrize("matrix,phrase", [
    (np.full((2, 3), 1.0 / 3.0), "square"),
    (np.array([[0.6, 0.3], [0.5, 0.5]]), "probability vectors"),
    (np.array([[np.nan, np.nan], [0.5, 0.5]]), "finite"),
    (np.array([[np.inf, np.inf], [0.5, 0.5]]), "finite"),
    (np.eye(2), "stationary solve failed"),  # reducible: a singular system
], ids=["non-square", "row-sum", "nan", "inf", "reducible"])
def test_stationary_distribution_rejects_a_malformed_matrix(matrix, phrase):
    with pytest.raises(ValueError, match=phrase):
        stationary_distribution(matrix)


@pytest.mark.parametrize("x", [0, 5, 40])
def test_value_system_reads_the_threshold_chain(x):
    """The value system's transition block is the threshold-x chain,
    bit for bit: a holds I - P there."""
    q, p = 0.55, 0.4
    system = _FixedThresholdSystem(ServerParams(q=q, cost_c=1.0), p, x, x + 1)
    block = system._a[: x + 2, : x + 2]
    assert np.array_equal(block, np.eye(x + 2) - _chain(x, q, p))


def test_stationary_distribution_frozen():
    pi = stationary_distribution(_chain(0, 0.5, 0.4))
    assert np.allclose(pi, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)


@pytest.mark.parametrize("k,q,p", GRID)
def test_stationary_distribution_matches_power_iteration(k, q, p):
    chain = _chain(k, q, p)
    pi = stationary_distribution(chain)
    ref = power_stationary(chain)
    assert np.allclose(pi, ref, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def _average_cost(chains, k, lam, cost_c):
    """Chain k's long-run average cost at charge lam, read off a record."""
    return float(cost_c * chains.mean[k + 1] + lam * chains.top[k + 1])


def test_threshold_chains_frozen():
    chains = threshold_chains(0.5, 0.4, 0)
    assert 1.0 - chains.top[1] == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert _average_cost(chains, 0, 0.0, 1.0) == pytest.approx(4.0 / 9.0,
                                                               abs=1e-12)
    assert _average_cost(chains, 0, 1.0, 1.0) == pytest.approx(8.0 / 9.0,
                                                               abs=1e-12)
    assert _average_cost(chains, -1, -3.0, 1.0) == -3.0


@pytest.mark.parametrize("q,p", CHAIN_GRID + [(0.5, 0.4), (0.55, 0.4)])
def test_active_mass_is_zero_at_the_never_active_rule_and_never_falls(q, p):
    """1 - top is 0 at k = -1, whose only state 0 is passive, and is
    non-decreasing over k = -1..CHAIN_K_MAX. The never-active rule used
    to have a branch of its own that gave 1."""
    mass = 1.0 - threshold_chains(q, p, CHAIN_K_MAX).top
    assert mass[0] == 0.0
    assert np.all(mass[1:] >= mass[:-1] - 1e-12)


@pytest.mark.parametrize("k_max", [-1, -2, -100])
def test_a_record_without_chain_0_is_refused(k_max):
    """The message names k_max, not the kernel's n = k_max + 1."""
    with pytest.raises(ValueError,
                       match=rf"^k_max must be >= 0, got {k_max}$"):
        threshold_chains(0.5, 0.4, k_max)


@pytest.mark.parametrize("k,q,p", GRID)
def test_average_cost_matches_direct_expectation(k, q, p):
    """Cross-check against an explicitly assembled stationary expectation."""
    lam, cost_c = 1.7, 3.0
    pi = power_stationary(_chain(k, q, p))
    states = np.arange(k + 2)
    want = cost_c * float(states @ pi) + lam * float(pi[k + 1])
    got = _average_cost(threshold_chains(q, p, k), k, lam, cost_c)
    assert got == pytest.approx(want, abs=1e-10)


def test_optimal_threshold_costs_are_the_explicit_minimum():
    """Over the never-active rule and thresholds 0..60."""
    lams = np.arange(-4.0, 12.0, 0.8)
    best, arg = optimal_threshold_costs(lams, 1.0, 0.5, 0.4)
    chains = threshold_chains(0.5, 0.4, 60)
    for lam, cost, k in zip(lams.tolist(), best.tolist(), arg.tolist()):
        explicit = [_average_cost(chains, j, lam, 1.0)
                    for j in range(-1, 61)]
        assert explicit[0] == lam
        assert cost == pytest.approx(min(explicit), abs=1e-12)
        # Ties resolve to the smallest k: nothing below k may match it.
        for below in explicit[: k + 1]:
            assert below > cost - 1e-15


def test_negative_charge_prefers_staying_passive():
    best, arg = optimal_threshold_costs([-5.0], 1.0, 0.5, 0.4)
    assert (best.tolist(), arg.tolist()) == ([-5.0], [-1])


@pytest.mark.parametrize("k,q,p", GRID)
def test_tail_dominance_holds_on_grid(k, q, p):
    assert tail_dominance(*transition_kernel(q, p, k + 2))[k + 1]


@pytest.mark.parametrize("q,p", PAIRS)
def test_tail_dominance_matches_two_separate_chains(q, p):
    dominated = tail_dominance(*transition_kernel(q, p, 21))
    for k in range(0, 20):
        lo = np.zeros((k + 3, k + 3))
        lo[: k + 2, : k + 2] = _chain(k, q, p)
        hi = _chain(k + 1, q, p)
        up = np.tril(np.ones((k + 3, k + 3)))
        want = bool(np.all(lo @ up <= hi @ up + 1e-12))
        assert dominated[k + 1] == want


@pytest.mark.parametrize("q,p", PAIRS)
def test_tail_dominance_covers_the_never_active_rule(q, p):
    """k = -1 keeps the queue at 0: its padded chain is passive row 0
    on {0, 1}, which chain 0 dominates."""
    lo = np.zeros((2, 2))
    lo[0, 0] = 1.0
    up = np.tril(np.ones((2, 2)))
    assert np.all(lo @ up <= _chain(0, q, p) @ up + 1e-12)
    assert tail_dominance(*transition_kernel(q, p, 1))[0]


@pytest.mark.parametrize("q,p", [(0.5, 0.4), (0.55, 0.4), (0.9, 0.5)])
def test_raising_threshold_lifts_stationary_tails(q, p):
    """Stationary consequence of the kernel dominance.

    If every row of the threshold-k kernel is stochastically below the
    threshold-(k+1) kernel, the stationary laws inherit the ordering:
    the tail mass P(X >= j) never shrinks when the threshold grows.
    """
    for k in range(0, 12):
        lo = stationary_distribution(_chain(k, q, p))
        hi = stationary_distribution(_chain(k + 1, q, p))
        lo_pad = np.zeros(k + 3)
        lo_pad[: k + 2] = lo
        tail_lo = lo_pad[::-1].cumsum()[::-1]
        tail_hi = hi[::-1].cumsum()[::-1]
        assert np.all(tail_lo <= tail_hi + 1e-12)


def exact_law(k, q, p, dps=100):
    """Stationary law of the threshold-k chain by mpmath's LU.

    The chain's binomial laws come from mpmath.binomial on the same
    doubles q and p, and pi (P - I) = 0 with sum(pi) = 1 is solved at
    dps digits. The LU loses about -log10(min pi) digits to
    cancellation, up to 49 on the chains below, so 100 digits leave
    more than 50.
    """
    with mpmath.workdps(dps):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        m = k + 2
        chain = mpmath.zeros(m, m)
        for s in range(m):
            r = q / s if s else mpmath.mpf(0)
            for d in range(s + 1):
                w = mpmath.binomial(s, d) * r ** d * (1 - r) ** (s - d)
                if s <= k:
                    chain[s, s - d] += w * (1 - p)
                    chain[s, s - d + 1] += w * p
                else:
                    chain[s, s - d] += w
        a = chain.T - mpmath.eye(m)
        for j in range(m):
            a[m - 1, j] = 1
        b = mpmath.zeros(m, 1)
        b[m - 1] = 1
        pi = mpmath.lu_solve(a, b)
        return [pi[i] for i in range(m)]


@pytest.mark.parametrize("q,p", [(0.55, 0.9), (0.5, 0.9), (0.95, 0.4),
                                 (0.9, 0.1), (0.55, 0.4)])
def test_ladder_matches_a_high_precision_solve_entry_by_entry(q, p):
    """Relative accuracy down to the smallest entry: pi(0) is 2.4e-19 at
    (0.5, 0.9), k = 40, and the top mass 3.8e-24 at (0.95, 0.4)."""
    laws = stationary_ladder(*transition_kernel(q, p, 63))
    for k in (5, 20, 40):
        exact = exact_law(k, q, p)
        assert not laws[k + 2:, k].any()
        for got, want in zip(laws[: k + 2, k], exact):
            assert abs((mpmath.mpf(float(got)) - want) / want) <= 1e-13


@pytest.mark.parametrize("q,p", [(0.98, 0.02), (0.1, 0.9)])
def test_ladder_rescales_past_float_range(q, p):
    """On (0.98, 0.02) pi(0)/pi(k+1) passes 1e308 near k = 190, so an
    unscaled recursion overflows; (0.1, 0.9) piles the mass on top.
    Every chain from k = 0 to 250 comes from one ladder, and the
    ladder's residual guard has passed on every one of them."""
    chains = threshold_chains(q, p, 250)
    assert chains.mean.shape == chains.top.shape == (252,)
    assert np.isfinite(chains.mean).all() and np.isfinite(chains.top).all()
    assert np.min(np.diff(1.0 - chains.top)) >= -1e-12
    laws = stationary_ladder(*transition_kernel(q, p, 255))
    assert np.isfinite(laws).all()
    assert np.allclose(laws.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)


def test_ladder_resolves_a_top_mass_of_1e_248():
    """At (0.98, 0.02), k = 127, the top mass is about 1e-248."""
    top = threshold_chains(0.98, 0.02, 127).top[128]
    assert 1.0 - top == 1.0
    assert 0.0 < top < 1e-240


def test_general_solve_resolves_the_ladders_top_mass():
    """GTH keeps relative accuracy where an LU solve of pi (P - I) = 0
    read 2.9e-17 for a top mass of 8.6e-249."""
    top = threshold_chains(0.98, 0.02, 127).top[128]
    pi = stationary_distribution(_chain(127, 0.98, 0.02))
    assert pi[-1] == pytest.approx(top, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q,p", [(0.55, 0.4), (0.3, 0.8), (0.98, 0.02)])
def test_general_solve_matches_the_ladder_entry_by_entry(q, p):
    laws = stationary_ladder(*transition_kernel(q, p, 60))
    for k in range(60):
        pi = stationary_distribution(_chain(k, q, p))
        assert np.allclose(pi, laws[: k + 2, k], rtol=1e-12, atol=0.0), k


def _kernel():
    """Writable copies: the model's cached blocks are read-only."""
    return tuple(m.copy() for m in transition_kernel(0.5, 0.4, 4))


def _nan_entry(active, passive):
    active[2, 1] = np.nan


def _short_row(active, passive):
    active[2, 1] -= 1e-6


def _negative_entry(active, passive):
    passive[3, 1] += passive[3, 0] + 1e-3  # same row sum
    passive[3, 0] = -1e-3


def _skip_an_active_row(active, passive):
    active[1] = 0.0
    active[1, 0] = 1.0  # no way up from state 1


@pytest.mark.parametrize("edit,phrase", [
    (_nan_entry, "finite"),
    (_short_row, "probability vectors"),
    (_negative_entry, "probability vectors"),
    (_skip_an_active_row, "stationary solve failed"),
], ids=["nan", "row-sum", "negative", "reducible"])
def test_ladder_rejects_a_malformed_kernel(edit, phrase):
    active, passive = _kernel()
    edit(active, passive)
    with pytest.raises(ValueError, match=phrase):
        stationary_ladder(active, passive)


@pytest.mark.parametrize("edit,phrase", [
    (lambda laws: laws.__setitem__((0, 1), -1e-300), "negative mass"),
    (lambda laws: laws.__setitem__((0, 1), 1.001 * laws[0, 1]),
     "residual exceeds tolerance"),
], ids=["negative-mass", "residual"])
def test_ladder_checks_the_laws_it_solves(monkeypatch, edit, phrase):
    cut_balance = threshold._cut_balance

    def perturbed(*args):
        laws = cut_balance(*args)
        edit(laws)
        return laws
    monkeypatch.setattr(threshold, "_cut_balance", perturbed)
    with pytest.raises(ValueError, match=phrase):
        stationary_ladder(*_kernel())


def test_chain_figures_do_not_depend_on_earlier_calls():
    def figures():
        return [[a.tolist() for a in threshold_chains(0.55, 0.4, k)]
                for k in (0, 40, 62, 63, 126, 127)]
    cold = figures()
    threshold_chains(0.55, 0.4, 250)
    assert figures() == cold


@pytest.mark.parametrize("k_max", [0, 63, 64, 250])
def test_threshold_chains_are_one_ladder_over_the_calls_kernel(k_max):
    """The mean lengths and top masses of chains 0..k_max, bit for bit
    as a fresh ladder over transition_kernel(q, p, k_max + 1) reads,
    after the never-active rule's (0, 1)."""
    q, p = 0.55, 0.4
    laws = stationary_ladder(*transition_kernel(q, p, k_max + 1))
    means, tops = threshold_chains(q, p, k_max)
    assert means.tolist() == [0.0] + (np.arange(k_max + 2) @ laws).tolist()
    assert tops.tolist() == [1.0] + np.diagonal(laws, -1).tolist()
