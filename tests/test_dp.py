"""Dynamic programming: single-queue RVI, joint bank RVI, brute force."""

import numpy as np
import pytest

from psindex import (ConvergenceError, ServerParams, SystemConfig,
                     active_interval, admission_gain_profile, bisect_index,
                     brute_force_policy_search, departure_pmf,
                     joint_policy_average_cost, joint_rvi,
                     optimal_threshold_cost, policy_reachable_states,
                     single_queue_rvi, transition_row)

from conftest import power_stationary

UNIT = ServerParams(q=0.5, cost_c=1.0)


# ---------------------------------------------------------------- #
# single queue                                                     #
# ---------------------------------------------------------------- #


def test_rvi_all_passive_below_the_smallest_index():
    # The empty state's index is 0.8; below it passivity wins everywhere.
    sol = single_queue_rvi(0.5, UNIT, 0.4, 40, tol=1e-10)
    k, interval = active_interval(sol.policy, upto=20)
    assert (k, interval) == (-1, True)
    assert sol.beta == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("lam", [-2.0, 0.5, 1.0, 2.0, 5.0, 12.0])
def test_rvi_threshold_counts_indices_below_the_charge(lam):
    """Two independent routes to the same threshold.

    The greedy active set from value iteration must cut exactly where
    the per-state indices cross the charge.
    """
    sol = single_queue_rvi(lam, UNIT, 0.4, 40, tol=1e-10)
    k, interval = active_interval(sol.policy, upto=20)
    assert interval
    want = -1
    while bisect_index(want + 1, UNIT, 0.4, 40) < lam:
        want += 1
    assert k == want


@pytest.mark.parametrize("lam", [-2.0, 0.5, 2.0, 5.0, 12.0])
def test_rvi_beta_equals_best_threshold_cost(lam):
    sol = single_queue_rvi(lam, UNIT, 0.4, 40, tol=1e-10)
    want, _ = optimal_threshold_cost(lam, 1.0, 0.5, 0.4)
    assert sol.beta == pytest.approx(want, abs=1e-7)


def test_rvi_normalises_values_at_zero_and_warm_starts():
    cold = single_queue_rvi(2.0, UNIT, 0.4, 40, tol=1e-10)
    assert cold.v[0] == 0.0
    warm = single_queue_rvi(2.0, UNIT, 0.4, 40, tol=1e-10, v_init=cold.v)
    assert warm.sweeps < cold.sweeps
    assert warm.beta == pytest.approx(cold.beta, abs=1e-9)


def test_rvi_reports_nonconvergence():
    with pytest.raises(ConvergenceError):
        single_queue_rvi(2.0, UNIT, 0.4, 40, tol=1e-12, max_sweeps=3)


def test_active_interval_classification():
    assert active_interval(np.array([True, True, False, False])) == (1, True)
    assert active_interval(np.array([False, False])) == (-1, True)
    assert active_interval(np.array([True, False, True])) == (2, False)
    assert active_interval(np.array([False, True, False])) == (1, False)
    # upto hides boundary artefacts near the truncation.
    noisy = np.array([True, True, False, False, True])
    assert active_interval(noisy, upto=3) == (1, True)


def test_admission_gain_profile_matches_direct_expectation():
    sol = single_queue_rvi(2.0, UNIT, 0.4, 40, tol=1e-10)
    gain = admission_gain_profile(sol.v, 0.5, 0.4)
    assert gain.shape == (39,)
    for i, x in enumerate([1, 5, 20]):
        dep = departure_pmf(x, 0.5)
        want = 0.4 * sum(w * (sol.v[x - int(d) + 1] - sol.v[x - int(d)])
                         for d, w in zip(dep.states, dep.probs))
        assert gain[x - 1] == pytest.approx(want, abs=1e-12)


def _gain_loop(v, q, p):
    """Admission gain one departure_pmf at a time, for x = 1..n-1."""
    n = len(v) - 1
    out = np.empty(n - 1)
    for i, x in enumerate(range(1, n)):
        dep = departure_pmf(x, q)
        keep = x - dep.states
        out[i] = p * float(dep.probs @ (v[keep + 1] - v[keep]))
    return out


@pytest.mark.parametrize("q,p", [(0.5, 0.4), (0.55, 0.4), (0.45, 0.9),
                                 (0.95, 0.1)])
def test_admission_gain_profile_matches_the_per_state_loop(q, p):
    server = ServerParams(q=q, cost_c=30.0)
    rng = np.random.default_rng(3)
    for v in (single_queue_rvi(5.0, server, p, 120, tol=1e-10).v,
              np.cumsum(rng.random(61)) ** 2, np.zeros(3)):
        got = admission_gain_profile(v, q, p)
        want = _gain_loop(v, q, p)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------- #
# joint bank                                                       #
# ---------------------------------------------------------------- #


def test_joint_rvi_single_server_reduces_to_always_active_chain():
    """One server is always the active one, so the bank collapses to a
    chain whose stationary cost is computable without any DP."""
    cfg = SystemConfig(arrival_p=0.3,
                       servers=(ServerParams(q=0.6, cost_c=2.0),),
                       buffer=1)
    sol = joint_rvi(cfg)
    rows = np.vstack([transition_row(x, 0.6, 0.3, True, 1) for x in (0, 1)])
    pi = power_stationary(rows)
    want = 2.0 * float(pi @ np.arange(2))
    assert sol.beta == pytest.approx(want, abs=1e-8)
    assert sol.beta == pytest.approx(5.0 / 6.0, abs=1e-8)
    assert np.all(sol.policy == 0)


def test_joint_rvi_matches_brute_force_enumeration(two_server_tiny):
    js = joint_rvi(two_server_tiny)
    bf = brute_force_policy_search(two_server_tiny)
    assert js.beta == pytest.approx(bf.best_beta, abs=1e-8)

    dp_policy = {s: int(js.policy[s]) for s in bf.states}
    # The DP policy must itself be an enumeration optimum.
    assert joint_policy_average_cost(two_server_tiny, dp_policy) == \
        pytest.approx(bf.best_beta, abs=1e-10)
    # And agree with the enumerated best wherever actions matter.
    for s in policy_reachable_states(two_server_tiny, dp_policy):
        assert dp_policy[s] == bf.best_policy[s]


def test_joint_rvi_reference_state_is_zero(two_server_tiny):
    sol = joint_rvi(two_server_tiny)
    assert sol.reference == (0, 0)
    assert sol.v[0, 0] == 0.0
    assert sol.policy.shape == (2, 2)
    assert sol.span <= 1e-9


def test_joint_rvi_reports_nonconvergence(two_server_tiny):
    with pytest.raises(ConvergenceError):
        joint_rvi(two_server_tiny, tol=1e-12, max_sweeps=2)


def test_joint_policy_average_cost_frozen_single_route(two_server_tiny):
    # Forcing every arrival to server 0 starves server 1, leaving the
    # always-active buffer-1 chain whose cost is 2 * 5/12.
    always0 = {s: 0 for s in
               [(a, b) for a in (0, 1) for b in (0, 1)]}
    got = joint_policy_average_cost(two_server_tiny, always0)
    assert got == pytest.approx(2.0 * 5.0 / 12.0, abs=1e-12)


def test_policy_reachable_states_excludes_starved_queue(two_server_tiny):
    always0 = {s: 0 for s in
               [(a, b) for a in (0, 1) for b in (0, 1)]}
    reach = policy_reachable_states(two_server_tiny, always0)
    assert reach == ((0, 0), (1, 0))


def test_brute_force_refuses_oversized_policy_spaces(two_server_tiny):
    with pytest.raises(ValueError, match="refusing to enumerate"):
        brute_force_policy_search(two_server_tiny, max_policies=10)


def test_brute_force_records_every_assignment(two_server_tiny):
    bf = brute_force_policy_search(two_server_tiny)
    assert len(bf.evaluations) == 2 ** 4
    best = min(beta for _, beta in bf.evaluations)
    assert bf.best_beta == pytest.approx(best, abs=0.0)
