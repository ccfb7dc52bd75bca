"""Dynamic programming: single-queue RVI, joint bank RVI, brute force."""

import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from psindex import (ConvergenceError, ServerParams, SystemConfig,
                     active_interval, admission_gain_profile, bisect_index,
                     brute_force_policy_search, joint_policy_average_cost,
                     joint_rvi, optimal_threshold_cost,
                     policy_reachable_states, single_queue_rvi)
from psindex import dp
from psindex.cli import load_config

from conftest import (enum_departures, enum_next_state, enum_row,
                      power_stationary)

ROOT = Path(__file__).resolve().parent.parent
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


@pytest.mark.parametrize("lam,cost_c", [(1.0, 1e308), (math.nan, 1.0)])
def test_rvi_stops_at_the_first_non_finite_span(lam, cost_c):
    """A NaN span never passes `span <= tol`, so a cost past the float
    range, or a NaN charge, used to sweep on to max_sweeps."""
    server = ServerParams(q=0.6, cost_c=cost_c)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError,
                          match=r"span is (inf|nan) at sweep 1: ") as exc:
        single_queue_rvi(lam, server, 0.3, 120)
    assert not math.isfinite(exc.value.residual)


def test_rvi_refuses_zero_sweeps():
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        single_queue_rvi(2.0, UNIT, 0.4, 40, max_sweeps=0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_rvi_refuses_a_tol_outside_the_positive_reals(tol):
    """A NaN span never passes `span <= tol`, and an infinite tol stops
    after one sweep with a meaningless beta."""
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        single_queue_rvi(2.0, UNIT, 0.4, 40, tol=tol)


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
        dep = enum_departures(x, 0.5)
        want = 0.4 * sum(w * (sol.v[x - d + 1] - sol.v[x - d])
                         for d, w in enumerate(dep))
        assert gain[x - 1] == pytest.approx(want, abs=1e-12)


def _gain_loop(v, q, p):
    """Admission gain one enumerated law at a time, for x = 1..n-1."""
    n = len(v) - 1
    out = np.empty(n - 1)
    for i, x in enumerate(range(1, n)):
        dep = enum_departures(x, q)
        keep = x - np.arange(x + 1)
        out[i] = p * float(dep @ (v[keep + 1] - v[keep]))
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


def test_admission_gain_profile_rejects_bad_arguments():
    v = np.arange(5.0)
    for q, p in ((0.0, 0.4), (1.0, 0.4), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            admission_gain_profile(v, q, p)


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
    rows = np.vstack([enum_row(x, 0.6, 0.3, True, 1) for x in (0, 1)])
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


def test_joint_rvi_stops_at_the_first_non_finite_span():
    """A cost past the float range used to run all 200 000 NaN sweeps."""
    cfg = SystemConfig(arrival_p=0.3, buffer=30,
                       servers=(ServerParams(q=0.6, cost_c=1e308),
                                ServerParams(q=0.5, cost_c=2.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError,
                          match=r"joint relative value iteration span is inf "
                                r"at sweep 1: ") as exc:
        joint_rvi(cfg)
    assert exc.value.residual == math.inf


def test_joint_rvi_refuses_zero_sweeps(two_server_tiny):
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        joint_rvi(two_server_tiny, max_sweeps=0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_joint_rvi_refuses_a_tol_outside_the_positive_reals(two_server_tiny,
                                                            tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        joint_rvi(two_server_tiny, tol=tol)


THREE_Q = (ServerParams(q=0.6, cost_c=2.0), ServerParams(q=0.5, cost_c=1.0),
           ServerParams(q=0.45, cost_c=1.2))


@pytest.mark.parametrize("num,buffer", [(1, 20), (2, 12), (3, 5)])
def test_expected_values_match_the_dense_kronecker_products(num, buffer):
    """Each candidate's reshaped matmuls against the dense product
    operator the fixed-policy chain builds, on a random value table."""
    cfg = SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=buffer)
    ops = dp._per_server_operators(cfg)
    v = np.random.default_rng(7).random((buffer + 1,) * num) * 1e3
    got = dp._expected_values(v, ops)
    assert len(got) == num
    for i, w in enumerate(got):
        dense = functools.reduce(np.kron, [pa if j == i else pb
                                           for j, (pa, pb) in enumerate(ops)])
        want = dense @ v.ravel()
        assert w.shape == v.shape
        assert np.allclose(w.ravel(), want, rtol=1e-13, atol=0.0)


def _tensordot_expected_values(v, ops):
    """The product operator as first written: tensordot, then moveaxis."""
    outs = []
    for i in range(len(ops)):
        w = v
        for j, (pa, pb) in enumerate(ops):
            k = pa if j == i else pb
            w = np.moveaxis(np.tensordot(k, w, axes=(1, j)), 0, j)
        outs.append(w)
    return outs


@pytest.mark.parametrize("config", ["configs/tiny.yaml", "configs/gap.yaml"])
def test_joint_rvi_policy_matches_the_tensordot_operator(config, monkeypatch):
    cfg = load_config(ROOT / config).system
    got = joint_rvi(cfg)
    monkeypatch.setattr(dp, "_expected_values", _tensordot_expected_values)
    want = joint_rvi(cfg)
    assert np.array_equal(got.policy, want.policy)
    assert got.beta == pytest.approx(want.beta, abs=1e-12)


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


def test_fixed_policy_cost_rejects_actions_outside_the_bank(two_server_tiny):
    states = [(a, b) for a in (0, 1) for b in (0, 1)]
    for bad in (2, -1, 0.5):
        policy = dict.fromkeys(states, 0) | {(1, 1): bad}
        with pytest.raises(ValueError, match="server indices 0..1"):
            joint_policy_average_cost(two_server_tiny, policy)


def test_brute_force_refuses_oversized_policy_spaces(two_server_tiny):
    with pytest.raises(ValueError, match="refusing to enumerate"):
        brute_force_policy_search(two_server_tiny, max_policies=10)


def test_brute_force_records_every_assignment(two_server_tiny):
    bf = brute_force_policy_search(two_server_tiny)
    assert len(bf.evaluations) == 2 ** 4
    best = min(beta for _, beta in bf.evaluations)
    assert bf.best_beta == pytest.approx(best, abs=0.0)


def _enumerated_policy_chain(cfg, policy):
    """Reachable states and average cost of a fixed policy, the joint law
    enumerated one state at a time as {next_state: prob} products of the
    per-queue enumerated laws, and the stationary law solved on them."""
    rows = {}
    frontier = [(0,) * cfg.num_servers]
    while frontier:
        s = frontier.pop()
        if s in rows:
            continue
        laws = [enum_next_state(x, srv.q, cfg.arrival_p, i == policy[s],
                                cfg.buffer)
                for i, (x, srv) in enumerate(zip(s, cfg.servers))]
        row = {}
        for combo in itertools.product(*[law.items() for law in laws]):
            nxt = tuple(y for y, _ in combo)
            row[nxt] = row.get(nxt, 0.0) + math.prod(w for _, w in combo)
        rows[s] = row
        frontier.extend(t for t in row if t not in rows)
    states = sorted(rows)
    idx = {s: k for k, s in enumerate(states)}
    pmat = np.zeros((len(states), len(states)))
    for s, row in rows.items():
        for nxt, w in row.items():
            pmat[idx[s], idx[nxt]] = w
    a = pmat.T - np.eye(len(states))
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    holding = [sum(srv.cost_c * x for srv, x in zip(cfg.servers, st))
               for st in states]
    return tuple(states), float(pi @ holding)


CRITERION_9_SECOND = SystemConfig(arrival_p=0.25, buffer=1, servers=(
    ServerParams(q=0.70, cost_c=3.0), ServerParams(q=0.45, cost_c=1.0)))


@pytest.mark.parametrize("cfg,sample", [
    (None, None),
    (CRITERION_9_SECOND, None),
    (SystemConfig(arrival_p=0.35, buffer=2, servers=(
        ServerParams(q=0.6, cost_c=2.0), ServerParams(q=0.55, cost_c=1.5))),
     None),
    (SystemConfig(arrival_p=0.3, buffer=1, servers=(
        ServerParams(q=0.6, cost_c=2.0), ServerParams(q=0.5, cost_c=1.0),
        ServerParams(q=0.45, cost_c=1.2))), 300),
], ids=["tiny", "criterion9", "nine_states", "three_servers"])
def test_fixed_policy_chain_matches_enumeration(two_server_tiny, cfg, sample):
    # Every assignment (or a seeded sample of them): the Kronecker-built
    # chain reaches the same states and costs the same as the enumerated one.
    cfg = cfg or two_server_tiny
    states = list(itertools.product(range(cfg.buffer + 1),
                                    repeat=cfg.num_servers))
    if sample is None:
        assigns = itertools.product(range(cfg.num_servers),
                                    repeat=len(states))
    else:
        assigns = np.random.default_rng(5).integers(
            cfg.num_servers, size=(sample, len(states))).tolist()
    for assign in assigns:
        policy = dict(zip(states, assign))
        reach, beta = _enumerated_policy_chain(cfg, policy)
        assert policy_reachable_states(cfg, policy) == reach
        assert abs(joint_policy_average_cost(cfg, policy) - beta) <= 1e-12


@pytest.mark.parametrize("cfg", [None, CRITERION_9_SECOND],
                         ids=["tiny", "criterion9"])
def test_brute_force_best_matches_enumerated_costs(two_server_tiny, cfg):
    cfg = cfg or two_server_tiny
    bf = brute_force_policy_search(cfg)
    betas = [_enumerated_policy_chain(cfg, dict(zip(bf.states, assign)))[1]
             for assign, _ in bf.evaluations]
    first_best = min(range(len(betas)), key=betas.__getitem__)
    assert bf.best_policy == dict(zip(bf.states,
                                      bf.evaluations[first_best][0]))
    assert bf.best_beta == pytest.approx(betas[first_best], abs=1e-12)
