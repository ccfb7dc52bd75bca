"""Dynamic programming: single-queue RVI, joint bank RVI, brute force."""

import functools
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from psindex import (ConvergenceError, ServerParams, SystemConfig,
                     active_interval, admission_gain_profile, bisect_index,
                     joint_rvi, optimal_threshold_costs, single_queue_rvi,
                     solve_value, transition_kernel)
from psindex import dp
from psindex.cli import load_config

from conftest import (enum_departures, enum_next_state, enum_row,
                      power_stationary)
from oracles import (brute_force_policy_search, joint_policy_average_cost,
                     policy_reachable_states)
from test_acceptance import TRIPLES

ROOT = Path(__file__).resolve().parent.parent
UNIT = ServerParams(q=0.5, cost_c=1.0)


# ---------------------------------------------------------------- #
# single queue                                                     #
# ---------------------------------------------------------------- #


def test_rvi_all_passive_below_the_smallest_index():
    # The empty state's index is 0.8; below it passivity wins everywhere.
    sol = single_queue_rvi(0.5, UNIT, 0.4, 40)
    k, interval = active_interval(sol.policy, upto=20)
    assert (k, interval) == (-1, True)
    assert sol.beta == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("lam", [-2.0, 0.5, 1.0, 2.0, 5.0, 12.0])
def test_rvi_threshold_counts_indices_below_the_charge(lam):
    """Two independent routes to the same threshold.

    The greedy active set from value iteration must cut exactly where
    the per-state indices cross the charge.
    """
    sol = single_queue_rvi(lam, UNIT, 0.4, 40)
    k, interval = active_interval(sol.policy, upto=20)
    assert interval
    want = -1
    while bisect_index(want + 1, UNIT, 0.4, 40) < lam:
        want += 1
    assert k == want


@pytest.mark.parametrize("lam", [-2.0, 0.5, 2.0, 5.0, 12.0])
def test_rvi_beta_equals_best_threshold_cost(lam):
    sol = single_queue_rvi(lam, UNIT, 0.4, 40)
    (want,), _ = optimal_threshold_costs([lam], 1.0, 0.5, 0.4)
    assert sol.beta == pytest.approx(want, abs=1e-7)


def test_rvi_normalises_values_at_zero_and_warm_starts():
    cold = single_queue_rvi(2.0, UNIT, 0.4, 40)
    assert cold.v[0] == 0.0
    warm = single_queue_rvi(2.0, UNIT, 0.4, 40, v_init=cold.v)
    assert warm.sweeps < cold.sweeps
    assert warm.beta == pytest.approx(cold.beta, abs=1e-9)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_rvi_refuses_a_truncation_below_one(n):
    """The kernel's own check, read before any array of size n + 1."""
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        single_queue_rvi(2.0, UNIT, 0.4, n)


@pytest.mark.parametrize("shape", [(41, 1), (5,), (42,)])
def test_rvi_refuses_a_v_init_of_the_wrong_shape(shape):
    """A (41, 1) column would broadcast into (41, 41) sweeps and end in
    a misleading repeat stop; other lengths would meet numpy's matmul
    error."""
    with pytest.raises(ValueError,
                       match=rf"^v_init must have shape \(41,\), not "
                             rf"{re.escape(str(shape))}$"):
        single_queue_rvi(2.0, UNIT, 0.4, 40, v_init=np.zeros(shape))


@pytest.mark.parametrize("lam,cost_c", [(1.0, 1e308), (math.nan, 1.0)])
def test_rvi_stops_at_the_first_non_finite_span(lam, cost_c):
    """A NaN span never passes `span <= tol`, so a cost past the float
    range, or a NaN charge, used to sweep on to the sweep limit."""
    server = ServerParams(q=0.6, cost_c=cost_c)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError,
                          match=r"span is (inf|nan) at sweep 1: ") as exc:
        single_queue_rvi(lam, server, 0.3, 120)
    assert not math.isfinite(exc.value.residual)


def test_rvi_stops_at_a_floating_point_fixed_point():
    """At values near 1e304 the charge of 1.0 rounds away: from some
    sweep on the values repeat bit for bit with span 1.0, so the absolute
    tol can never be met. Without the stop it ran all 100 000 sweeps,
    about 2 s."""
    server = ServerParams(q=0.6, cost_c=1e300)
    with pytest.raises(ConvergenceError,
                       match=r"^relative value iteration repeats the values "
                             r"of sweep \d+ at sweep \d+: span 1\.000e\+00 "
                             r"stays above 1e-10 with max "
                             r"\|v\| \d\.\d{3}e\+30\d$") as exc:
        single_queue_rvi(1.0, server, 0.3, 120)
    assert exc.value.residual == 1.0


# (server, arrival_p) of every shipped bank and of the acceptance triples.
SHIPPED = [load_config(path).system
           for path in (*sorted((ROOT / "configs").glob("*.yaml")),
                        ROOT / "perfbench/heavy-traffic.yaml")]
START_SERVERS = ([(s, cfg.arrival_p) for cfg in SHIPPED for s in cfg.servers]
                 + [(ServerParams(q=q, cost_c=c), p) for q, p, c in TRIPLES])


@pytest.mark.parametrize("server,p", START_SERVERS,
                         ids=lambda a: f"{a.q}-{a.cost_c}"
                         if isinstance(a, ServerParams) else f"p{a}")
def test_never_active_values_are_the_fixed_point_below_every_index(server, p):
    """Below every index the never-active rule is optimal, so its exact
    relative values are RVI's fixed point: started there, RVI stays
    all passive and moves them by rounding only, and they are the
    guarded LU solve of threshold -1 at every charge."""
    start = dp._never_active_values(server, 120)
    scale = np.abs(start).max()
    for lam in (-20.0, -1.0, 0.0):
        sol = single_queue_rvi(lam, server, p, 120, v_init=start)
        assert sol.sweeps <= 10
        assert not sol.policy.any()
        assert np.abs(sol.v - start).max() <= 1e-14 * scale
        exact = solve_value(lam, -1, server, p, 120).v
        assert np.abs(start - exact).max() <= 1e-14 * scale


@pytest.mark.parametrize("cost_c", [1e308, math.inf])
def test_never_active_values_refuse_costs_past_the_float_range(cost_c):
    """c x overflows: no start, and the caller sweeps from zeros."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert dp._never_active_values(
            ServerParams(q=0.6, cost_c=cost_c), 120) is None


def test_active_interval_classification():
    assert active_interval(np.array([True, True, False, False])) == (1, True)
    assert active_interval(np.array([False, False])) == (-1, True)
    assert active_interval(np.array([True, False, True])) == (2, False)
    assert active_interval(np.array([False, True, False])) == (1, False)
    # upto hides boundary artefacts near the truncation.
    noisy = np.array([True, True, False, False, True])
    assert active_interval(noisy, upto=3) == (1, True)


def test_admission_gain_profile_matches_direct_expectation():
    sol = single_queue_rvi(2.0, UNIT, 0.4, 40)
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
    for v in (single_queue_rvi(5.0, server, p, 120).v,
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


def test_joint_rvi_stops_in_a_cycle_of_repeated_values():
    """At costs of 1e300 the joint values round through a four-sweep
    cycle whose span stays near 3e284; a bitwise repeat ends the solve."""
    cfg = SystemConfig(arrival_p=0.3, buffer=10,
                       servers=(ServerParams(q=0.6, cost_c=1e300),
                                ServerParams(q=0.5, cost_c=1e300)))
    with pytest.raises(ConvergenceError,
                       match=r"^joint relative value iteration repeats the "
                             r"values of sweep \d+ at sweep \d+: span "
                             r"\d\.\d{3}e\+28\d stays above 1e-09 with max "
                             r"\|v\| \d\.\d{3}e\+30\d$") as exc:
        joint_rvi(cfg)
    assert exc.value.residual > 1e280


@pytest.mark.parametrize("solver", ["single", "joint"])
def test_each_solver_states_its_stop_and_names_it_at_the_sweep_limit(
        solver, two_server_tiny, monkeypatch):
    """single_queue_rvi stops at span 1e-10 within 100 000 sweeps and
    joint_rvi at 1e-9 within 200 000. The driver is handed exactly
    these, and a solve that runs out of sweeps says so under the
    solver's name: here the driver itself, on values that climb by
    span 1 each sweep and so never repeat, stops after 3 sweeps."""
    name, tol, limit = {
        "single": ("relative value iteration", 1e-10, 100_000),
        "joint": ("joint relative value iteration", 1e-9, 200_000)}[solver]
    calls = []
    drive = dp._relative_value_iteration
    monkeypatch.setattr(dp, "_relative_value_iteration",
                        lambda *args, **kwargs: calls.append(
                            (args[0], kwargs["tol"], kwargs["max_sweeps"]))
                        or drive(*args, **kwargs))
    if solver == "single":
        single_queue_rvi(2.0, UNIT, 0.4, 40)
    else:
        joint_rvi(two_server_tiny)
    assert calls == [(name, tol, limit)]

    def sweep(v):
        tv = v + np.array([0.0, 1.0])
        return tv, tv

    with pytest.raises(ConvergenceError,
                       match=rf"^{name} did not reach span {tol:g} within 3 "
                             r"sweeps \(last span 1\.000e\+00\)$") as exc:
        drive(name, sweep, np.zeros(2), tol, 3)
    assert exc.value.residual == 1.0


# ---------------------------------------------------------------- #
# both solvers against their loops as first written                #
# ---------------------------------------------------------------- #


def _single_queue_loop(lam, server, p, n, tol, v_init):
    """single_queue_rvi's sweeps and read-out in one loop of its own."""
    pa, pb = transition_kernel(server.q, p, n)
    xs = np.arange(n + 1, dtype=np.float64)
    cost_a = server.cost_c * xs
    cost_p = server.cost_c * xs + lam
    v = np.zeros(n + 1) if v_init is None else np.array(v_init)
    for sweep in range(1, 100_001):
        tv = np.minimum(cost_a + pa @ v, cost_p + pb @ v)
        diff = tv - v
        span = float(diff.max() - diff.min())
        v = tv - tv[0]
        if span <= tol:
            beta = float(0.5 * (diff.max() + diff.min()))
            policy = cost_a + pa @ v <= cost_p + pb @ v
            return v, beta, policy, sweep, span
    raise AssertionError("the single-queue loop did not converge")


def _joint_loop(cfg, tol):
    """joint_rvi's plain sweeps and read-out in one loop of its own,
    with no aggregation corrections."""
    ref = (0,) * cfg.num_servers
    shape = (cfg.buffer + 1,) * cfg.num_servers
    cost = sum(s.cost_c * g for s, g in zip(cfg.servers, np.indices(shape)))
    expected = dp._candidates(dp._kernel_plans(cfg), shape)
    v = np.zeros(shape)
    for sweep in range(1, 200_001):
        tv = functools.reduce(np.minimum, expected(v)) + cost
        tv -= v[ref]
        span = float(np.ptp(tv - v))
        v = tv
        if span <= tol:
            policy = np.argmin(np.stack(expected(v)), axis=0)
            return v - v[ref], float(v[ref]), policy, sweep, span
    raise AssertionError("the joint loop did not converge")


def _assert_same_solution(sol, want):
    v, beta, policy, sweeps, span = want
    assert sol.v.tobytes() == v.tobytes()
    assert sol.beta == beta
    assert np.array_equal(sol.policy, policy)
    assert (sol.sweeps, sol.span) == (sweeps, span)


FIG3 = load_config(ROOT / "configs/fig3.yaml").system
HEAVY = load_config(ROOT / "perfbench/heavy-traffic.yaml").system


@pytest.mark.parametrize("server", FIG3.servers, ids=lambda s: f"q{s.q}")
def test_rvi_equals_its_own_loop_bit_for_bit(server):
    """Cold, and warm-started from the previous charge's values. Sweep
    counts are compared, not pinned, so this holds under any BLAS."""
    warm = None
    for lam in (-5.0, 0.0, 2.5, 10.0):
        cold = single_queue_rvi(lam, server, FIG3.arrival_p, 120)
        _assert_same_solution(cold, _single_queue_loop(
            lam, server, FIG3.arrival_p, 120, 1e-10, None))
        if warm is not None:
            sol = single_queue_rvi(lam, server, FIG3.arrival_p, 120,
                                   v_init=warm)
            _assert_same_solution(sol, _single_queue_loop(
                lam, server, FIG3.arrival_p, 120, 1e-10, warm))
        warm = cold.v


@pytest.mark.parametrize("bank", ["tiny", "gap", "fig3-buffer12",
                                  "fig3-buffer30", "fig4-buffer30",
                                  "fig5-buffer30"])
def test_joint_rvi_equals_its_own_loop_bit_for_bit(bank):
    """Solves within _AGG_START sweeps whose plain span more than halves
    from sweep _AGG_EARLY // 2 to _AGG_EARLY take no correction and say
    so: tiny converges before _AGG_EARLY, fig3-5 at buffer 30 after."""
    name, _, buffer = bank.partition("-buffer")
    cfg = load_config(ROOT / f"configs/{name}.yaml").system
    if buffer:
        cfg = replace(cfg, buffer=int(buffer))
    sol = joint_rvi(cfg)
    _assert_same_solution(sol, _joint_loop(cfg, 1e-9))
    assert sol.sweeps < dp._AGG_START
    assert (sol.corrections, sol.undone) == (0, False)


# Its plain span halves within the 30 sweeps to _AGG_EARLY, but the
# solve runs past _AGG_START (2 067 plain sweeps).
FAST_EARLY = SystemConfig(arrival_p=0.8383, buffer=27,
                          servers=(ServerParams(q=0.4127, cost_c=2.1166),
                                   ServerParams(q=0.5546, cost_c=5.9252)))


@pytest.mark.parametrize("cfg,started", [
    (load_config(ROOT / "configs/tiny.yaml").system, 0),
    (load_config(ROOT / "configs/gap.yaml").system, 0),
    (replace(FIG3, buffer=12), 0), (FAST_EARLY, dp._AGG_START)],
    ids=["tiny", "gap", "fig3-buffer12", "fast-early"])
def test_started_names_the_sweep_of_the_first_correction(cfg, started):
    sol = joint_rvi(cfg)
    assert sol.started == started
    assert (sol.corrections > 0) == (started > 0)


THREE_Q = (ServerParams(q=0.6, cost_c=2.0), ServerParams(q=0.5, cost_c=1.0),
           ServerParams(q=0.45, cost_c=1.2))


@pytest.mark.parametrize("num,buffer", [(1, 20), (2, 12), (3, 5)])
def test_expected_values_match_the_dense_kronecker_products(num, buffer):
    """Each candidate's bound matmuls against the dense product
    operator the fixed-policy chain builds, on a random value table."""
    cfg = SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=buffer)
    plans = dp._kernel_plans(cfg)
    v = np.random.default_rng(7).random((buffer + 1,) * num) * 1e3
    got = dp._candidates(plans, v.shape)(v)
    assert len(got) == num
    for i, w in enumerate(got):
        dense = functools.reduce(np.kron, [pair[j != i][0]
                                           for j, pair in enumerate(plans)])
        want = dense @ v.ravel()
        assert w.shape == v.shape
        assert np.allclose(w.ravel(), want, rtol=1e-13, atol=0.0)


# The CI's one-server bank, whose kernels at 121 states hold subnormal
# departure tails: 96 active entries and 95 passive.
SUBNORMAL = SystemConfig(arrival_p=0.6161, buffer=120,
                         servers=(ServerParams(q=0.0427, cost_c=0.1552),))


@pytest.mark.parametrize("maps,num,buffer", [
    *((maps, num, 8) for maps in ["kernels", "sums", "spreads"]
      for num in [1, 2, 3]),
    ("blocked", 1, 120), ("blocked", 2, 63), ("blocked", 2, 100),
    ("blocked", 3, 64), ("subnormal", 1, 120)])
def test_apply_equals_einsum(maps, num, buffer):
    """Each plan's matrix from the left on its own axis, as one plain
    einsum per axis (no BLAS) writes it, on a random table: the square
    kernels of a sweep, passive everywhere and each candidate's, of one
    row block at n = 9 and of two and three ("blocked") on the last
    axis alone, on a leading and the last, and on a batched leading
    axis; the kernels of SUBNORMAL, whose every subnormal entry lies
    left of its block's band; and the aggregation's n×ga block maps
    (ind.T summing states into blocks, ind spreading blocks to
    states). Each runs on bound products: the kernels' chains share
    one pair of scratch tables, and two calls on fresh tables write
    the same outputs, each call's products those of its own table."""
    n = buffer + 1
    cfg = (SUBNORMAL if maps == "subnormal" else
           SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=buffer))
    plans = dp._kernel_plans(cfg)
    assert len(plans[0][0][1]) == min(3, max(1, n // 32))
    if maps == "subnormal":
        tiny = np.finfo(np.float64).tiny
        counts = []
        for m, blocks, _ in plans[0]:
            sub = (m > 0.0) & (m < tiny)
            counts.append(int(sub.sum()))
            for r0, r1, lo, _ in blocks:
                assert not sub[r0:r1, lo:].any()
        assert counts == [96, 95]
    if maps in ("kernels", "blocked", "subnormal"):
        products = dp._Products(
            (n,) * num, [[pair[1] for pair in plans],
                         *dp._candidates(plans, (n,) * num).chains])
    else:
        agg = dp._Aggregation(plans, dp._block_indicator(n, 4))
        products = getattr(agg, maps)
    rng = np.random.default_rng(buffer if maps == "blocked" else num)
    axes = list(range(num))
    outs = None
    for _ in range(2):
        t = rng.random([m.shape[1] for m, _, _ in products.chains[0]]) * 1e3
        got = products(t)
        assert outs is None or all(a is b for a, b in zip(got, outs))
        outs = got
        for case, out in zip(products.chains, got, strict=True):
            mats = [m for m, _, _ in case]
            want = t
            for j, m in enumerate(mats):
                want = np.einsum(m, [num, j], want, axes,
                                 [num if a == j else a for a in axes])
            assert out.shape == want.shape == tuple(m.shape[0]
                                                    for m in mats)
            assert np.allclose(out, want, rtol=1e-13, atol=0.0)


def _tensordot_candidates(plans, shape):
    """A stand-in for dp._candidates: the product operator as first
    written, tensordot, then moveaxis, on every call."""
    def expected(v):
        outs = []
        for i in range(len(plans)):
            w = v
            for j, pair in enumerate(plans):
                k = pair[j != i][0]
                w = np.moveaxis(np.tensordot(k, w, axes=(1, j)), 0, j)
            outs.append(w)
        return outs
    return expected


@pytest.mark.parametrize("config", ["configs/tiny.yaml", "configs/gap.yaml"])
def test_joint_rvi_policy_matches_the_tensordot_operator(config, monkeypatch):
    cfg = load_config(ROOT / config).system
    got = joint_rvi(cfg)
    monkeypatch.setattr(dp, "_candidates", _tensordot_candidates)
    want = joint_rvi(cfg)
    assert np.array_equal(got.policy, want.policy)
    assert got.beta == pytest.approx(want.beta, abs=1e-12)


@pytest.mark.parametrize("n,count", [(63, 1), (64, 2), (101, 3), (121, 3)])
def test_row_blocks_read_each_kernel_over_its_band(n, count):
    """The blocks tile the rows, at least _BLOCK_ROWS each, and block
    (r0, r1, lo, k) reads columns lo..k-1 of rows r0..r1-1 in the
    active and passive kernels, the active kernel's clamped last row
    included. Every entry from column k on is exactly 0.0, and column
    k - 1 is nonzero in a row before r1, so k is the least that skips
    no mass. The columns before lo hold at most _TAIL of each row's
    mass, and column lo takes some row past it, so lo is the largest
    such. A one-block plan is (0, rows, 0, cols), and its m.T is a view
    of m: a contiguous copy changed gap's bits at n = 26; several
    blocks take a contiguous copy."""
    for q, p in [(0.55, 0.9), (0.05, 0.35), (0.95, 0.6)]:
        for m in transition_kernel(q, p, n - 1):
            plan_m, blocks, mt = dp._plan(m, kernel=True)
            assert plan_m is m and np.array_equal(mt, m.T)
            assert np.shares_memory(mt, m) == (count == 1)
            assert mt.flags.c_contiguous == (count > 1)
            assert len(blocks) == count
            assert [b[0] for b in blocks] == \
                [0] + [b[1] for b in blocks[:-1]]
            assert blocks[-1][1] == n
            if count == 1:
                assert blocks == ((0, n, 0, n),)
            for r0, r1, lo, k in blocks:
                assert r1 - r0 >= dp._BLOCK_ROWS
                assert np.all(m[r0:r1, k:] == 0.0)
                assert m[:r1, k - 1].any()
                assert max(math.fsum(row[:lo])
                           for row in m[r0:r1]) <= dp._TAIL
                assert max(math.fsum(row[:lo + 1])
                           for row in m[r0:r1]) > dp._TAIL
            if count > 1:
                assert blocks[0][3] < n


@pytest.mark.parametrize("num", [1, 2, 3, 4])
def test_greedy_is_argmin_with_ties_to_the_lowest(num):
    """Small integer tables tie often, and -0.0 ties with 0.0."""
    rng = np.random.default_rng(num)
    expected = [rng.integers(-2, 3, size=(9, 11)) * 0.5 for _ in range(num)]
    expected[0][0, 0], expected[-1][0, 0] = 0.0, -0.0
    stacked = np.stack(expected)
    if num > 1:
        least = np.sort(stacked, axis=0)
        assert (least[0] == least[1]).any()
    choice, value = dp._greedy(expected)
    assert choice.dtype == np.int64
    assert np.array_equal(choice, np.argmin(stacked, axis=0))
    assert np.array_equal(value, np.min(stacked, axis=0))


def _single_product_candidates(plans, shape):
    """A stand-in for dp._candidates whose every kernel is one matmul,
    the one-block plan any matrix but a kernel takes."""
    return dp._Products(shape, [[dp._plan(pair[j != i][0])
                                 for j, pair in enumerate(plans)]
                                for i in range(len(plans))])


@pytest.mark.parametrize("bank", ["tiny", "gap", "fig3", "fig4", "fig5",
                                  "heavy"])
def test_kernels_under_two_blocks_take_the_single_product(bank,
                                                          monkeypatch):
    """Under 2 * _BLOCK_ROWS states each kernel is one block, and the
    solve is the single-product solve bit for bit: fig3-5 at buffer 12
    plain, heavy-traffic at buffer 30 with corrections."""
    cfg = (replace(HEAVY, buffer=30) if bank == "heavy"
           else load_config(ROOT / f"configs/{bank}.yaml").system)
    if bank.startswith("fig"):
        cfg = replace(cfg, buffer=12)
    got = joint_rvi(cfg)
    monkeypatch.setattr(dp, "_candidates", _single_product_candidates)
    want = joint_rvi(cfg)
    _assert_same_solution(got, (want.v, want.beta, want.policy, want.sweeps,
                                want.span))
    assert (got.corrections, got.undone) == (want.corrections, want.undone)
    assert (got.corrections > 0) == (bank == "heavy")


def _random_banks():
    """Ten seeded two-server banks of buffer 64 to 120, each kernel two
    or three row blocks, p and q ~ U(0.02, 0.98), costs ~ U(0.1, 10)."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = float(rng.uniform(0.02, 0.98))
        servers = tuple(ServerParams(q=float(rng.uniform(0.02, 0.98)),
                                     cost_c=float(rng.uniform(0.1, 10.0)))
                        for _ in range(2))
        yield SystemConfig(arrival_p=p, servers=servers,
                           buffer=int(rng.integers(64, 121)))


@pytest.mark.slow
@pytest.mark.parametrize("cfg", [*_random_banks(), replace(FIG3, buffer=63),
                                 HEAVY],
                         ids=[*(f"random{i}" for i in range(10)),
                              "fig3-buffer63", "heavy"])
def test_blocked_sweeps_keep_the_tensordot_optimum(cfg, monkeypatch):
    """The blocked products reorder the sums and drop each block's
    leading columns of at most _TAIL of every row's mass, and the
    absolute stop at span 1e-9 lets that move beta by a few ulps:
    |delta beta| reaches 3.1e-12 at beta = 108 on random8. The policy
    is the same on every state."""
    got = joint_rvi(cfg)
    monkeypatch.setattr(dp, "_candidates", _tensordot_candidates)
    want = joint_rvi(cfg)
    assert np.array_equal(got.policy, want.policy)
    assert got.beta == pytest.approx(want.beta, rel=1e-12, abs=1e-12)


def _population():
    """150 seeded banks of one to three servers, buffer 1 to 300, 100
    and 20 by server count, p and q ~ U(0.02, 0.98), costs ~
    U(0.1, 10)."""
    rng = np.random.default_rng(43)
    for _ in range(150):
        num = int(rng.integers(1, 4))
        p = float(rng.uniform(0.02, 0.98))
        servers = tuple(ServerParams(q=float(rng.uniform(0.02, 0.98)),
                                     cost_c=float(rng.uniform(0.1, 10.0)))
                        for _ in range(num))
        cap = {1: 300, 2: 100, 3: 20}[num]
        yield SystemConfig(arrival_p=p, servers=servers,
                           buffer=int(rng.integers(1, cap + 1)))


@pytest.mark.slow
def test_corrections_keep_the_plain_optimum_on_a_population():
    """On the 144 banks whose plain solve takes more than _AGG_EARLY
    sweeps, joint_rvi keeps the plain loop's policy on every state, and
    both betas lie in their own last difference's range, as the optimum
    does, so they differ by at most the two spans. Bounds set from the
    run on 676 groups with a banded system: the sweep count is at most
    1.25 times the plain one (the worst was 1.04, 1 692 -> 1 702, one
    undone correction), with a median of at most 0.55 (0.49); on 169
    groups the worst was 3.46 (381 -> 1 320) and the median 0.77."""
    ratios = []
    for cfg in _population():
        v, beta, policy, sweeps, span = _joint_loop(cfg, 1e-9)
        if sweeps <= dp._AGG_EARLY:
            continue
        sol = joint_rvi(cfg)
        assert np.array_equal(sol.policy, policy), cfg
        assert abs(sol.beta - beta) <= sol.span + span, cfg
        ratios.append(sol.sweeps / sweeps)
        assert ratios[-1] <= 1.25, cfg
    assert len(ratios) == 144
    assert float(np.median(ratios)) <= 0.55


def _dense_operator(agg, q):
    """The G×G matrix of agg.operator's windowed q, G = ga ** N."""
    grid = (agg.ga,) * agg.dims
    dense = np.zeros((agg.ga ** agg.dims,) * 2)
    for g in np.ndindex(grid):
        for d in np.ndindex(agg.cols.shape[1:] * agg.dims):
            h = tuple(agg.cols[gj, dj] for gj, dj in zip(g, d))
            dense[np.ravel_multi_index(g, grid),
                  np.ravel_multi_index(h, grid)] = q[sum(zip(g, d), ())]
    return dense


AGG_GRID = pytest.mark.parametrize("num,buffer,k", [
    (num, buffer, k) for num, buffer in [(1, 20), (2, 12), (3, 5)]
    for k in [1, 3, 4]])


@AGG_GRID
def test_aggregated_operator_matches_the_dense_kronecker_products(num, buffer,
                                                                  k):
    """D·P·W of a random policy, expanded from its windows, against the
    dense product chain's, on block sides that divide buffer + 1 and
    sides that do not: they differ by the dropped leading blocks alone,
    at most _AGG_TAIL of a row's mass on each axis."""
    cfg = SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=buffer)
    plans = dp._kernel_plans(cfg)
    shape = (buffer + 1,) * num
    policy = np.random.default_rng(11).integers(num, size=shape)
    dense = np.empty((policy.size, policy.size))
    for i in range(num):
        rows = policy.ravel() == i
        dense[rows] = functools.reduce(
            np.kron, [pair[j != i][0]
                      for j, pair in enumerate(plans)])[rows]
    ind = dp._block_indicator(buffer + 1, k)
    w = functools.reduce(np.kron, [ind] * num)
    want = (w.T @ dense @ w) / w.sum(axis=0)[:, None]
    agg = dp._Aggregation(plans, ind)
    got = _dense_operator(agg, agg.operator(policy))
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-13, atol=dp._AGG_TAIL)


@AGG_GRID
def test_bordered_band_solve_matches_the_dense_pinned_system(num, buffer, k):
    """step's bordered solve on the factored band against
    np.linalg.solve of the dense pinned system [I - Q with column 0 set
    to 1] on the same Q, y then pinned to 0 at block 0 and spread to
    the states."""
    cfg = SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=buffer)
    shape = (buffer + 1,) * num
    rng = np.random.default_rng(5)
    policy = rng.integers(num, size=shape)
    diff = rng.random(shape)
    ind = dp._block_indicator(buffer + 1, k)
    agg = dp._Aggregation(dp._kernel_plans(cfg), ind)
    agg.expected = [(policy != i).astype(np.float64) for i in range(num)]
    got = agg.step(diff)
    a = np.eye(ind.shape[1] ** num) - _dense_operator(agg,
                                                      agg.operator(policy))
    a[:, 0] = 1.0
    w = functools.reduce(np.kron, [ind] * num)
    y = np.linalg.solve(a, (w.T @ diff.ravel()) / w.sum(axis=0))
    y[0] = 0.0
    assert got.shape == shape
    assert np.allclose(got.ravel(), w @ y, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("num", [1, 2, 3])
def test_a_one_group_grid_adds_zeros_without_a_factorisation(num,
                                                             monkeypatch):
    """With ten servers or more even two blocks per axis exceed
    _AGG_GROUPS, so the grid is one block: y is pinned to 0 there, and
    the correction adds zeros with no band to factor."""
    monkeypatch.setattr(dp, "dgbtrf", None)
    cfg = SystemConfig(arrival_p=0.35, servers=THREE_Q[:num], buffer=5)
    shape = (6,) * num
    agg = dp._Aggregation(dp._kernel_plans(cfg), dp._block_indicator(6, 6))
    agg.expected = [np.zeros(shape)] * num
    got = agg.step(np.random.default_rng(num).random(shape))
    assert agg.band is None
    assert got.shape == shape and not got.any()


def test_heavy_traffic_corrections_keep_the_plain_optimum():
    """Aggregation corrections change the path, not the answer: the
    policy on every state, beta within tol, and values closer to the
    plain loop's than half its smallest decision margin, so no greedy
    choice can differ. They also take fewer sweeps."""
    v, beta, policy, sweeps, _ = _joint_loop(HEAVY, 1e-9)
    values = np.sort(np.stack(dp._candidates(
        dp._kernel_plans(HEAVY), v.shape)(v)), axis=0)
    margin = float((values[1] - values[0]).min())
    sol = joint_rvi(HEAVY)
    assert np.array_equal(sol.policy, policy)
    assert abs(sol.beta - beta) <= 1e-9
    assert float(np.abs(sol.v - v).max()) < 0.5 * margin
    assert sol.sweeps < sweeps
    assert sol.corrections > 0 and not sol.undone


def test_a_slow_early_span_starts_the_corrections_early(monkeypatch):
    """Heavy-traffic at buffer 30 fails to halve its plain span from
    sweep _AGG_EARLY // 2 to _AGG_EARLY, so corrections start there and
    keep the plain optimum in fewer sweeps than the same solve with
    corrections from _AGG_START (_AGG_EARLY past the solve)."""
    cfg = replace(HEAVY, buffer=30)
    v, beta, policy, sweeps, _ = _joint_loop(cfg, 1e-9)
    sol = joint_rvi(cfg)
    assert sol.started == dp._AGG_EARLY
    assert np.array_equal(sol.policy, policy)
    assert abs(sol.beta - beta) <= 1e-9
    monkeypatch.setattr(dp, "_AGG_EARLY", 2 * sweeps)
    late = joint_rvi(cfg)
    assert late.started == dp._AGG_START
    assert sol.sweeps < late.sweeps < sweeps


def test_harmful_corrections_are_undone(monkeypatch):
    """Corrections a hundred times too large grow the span past the
    guard, and the first is undone to the plain sweep's values and ends
    them: the solve is then the plain loop, one period later."""
    cfg = replace(HEAVY, buffer=30)
    v, beta, policy, sweeps, span = _joint_loop(cfg, 1e-9)
    assert sweeps > dp._AGG_START
    step = dp._Aggregation.step
    monkeypatch.setattr(dp._Aggregation, "step",
                        lambda self, diff: 100.0 * step(self, diff))
    sol = joint_rvi(cfg)
    assert sol.beta == beta
    assert np.array_equal(sol.policy, policy)
    assert sol.v.tobytes() == v.tobytes()
    assert (sol.sweeps, sol.span) == (sweeps + dp._AGG_PERIOD, span)
    assert (sol.corrections, sol.undone) == (1, True)


def test_each_sweep_evaluates_the_expected_values_once(monkeypatch):
    """Corrections take their greedy policy from the expected values
    of the sweep they follow; only the read-out evaluates them again."""
    cfg = replace(HEAVY, buffer=30)
    calls = []
    bind = dp._candidates

    def counted(plans, shape):
        expected = bind(plans, shape)
        return lambda v: calls.append(v) or expected(v)

    monkeypatch.setattr(dp, "_candidates", counted)
    sol = joint_rvi(cfg)
    assert sol.corrections > 0
    assert len(calls) == sol.sweeps + 1


@pytest.mark.parametrize("cfg", [replace(HEAVY, buffer=30), SUBNORMAL],
                         ids=["heavy-buffer30", "subnormal"])
def test_a_solve_hands_out_no_array_it_writes_again(cfg, monkeypatch):
    """Every array a sweep or a correction returns is its own, apart
    from the bound products' outputs and scratch tables, which the
    next sweep overwrites: Brent's guard keeps the values by reference.
    On one server (SUBNORMAL) the least expected value is the one
    candidate's output itself, so the sweep copies it. The solution's
    v and policy stay as they were through a later solve of another
    bank."""
    built = []

    class Recorded(dp._Products):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def shared(a):
        return any(np.may_share_memory(a, out)
                   for products in built
                   for head, body in products.steps
                   for *_, out in head + body)

    drive = dp._relative_value_iteration
    seen = []

    def checked(name, sweep, v, tol, max_sweeps, correct):
        def checked_sweep(v):
            tv, v_next = sweep(v)
            seen.append(shared(tv) or shared(v_next))
            return tv, v_next

        def checked_correct(*args):
            v_next = correct(*args)
            seen.append(v_next is not None and shared(v_next))
            return v_next

        return drive(name, checked_sweep, v, tol, max_sweeps,
                     checked_correct)

    monkeypatch.setattr(dp, "_Products", Recorded)
    monkeypatch.setattr(dp, "_relative_value_iteration", checked)
    sol = joint_rvi(cfg)
    assert len(built) == 3 and not any(seen)
    assert sol.corrections > 0 or cfg is SUBNORMAL
    v, policy = sol.v.copy(), sol.policy.copy()
    joint_rvi(load_config(ROOT / "configs/gap.yaml").system)
    assert sol.v.tobytes() == v.tobytes()
    assert sol.policy.tobytes() == policy.tobytes()


def test_corrections_that_stall_are_undone():
    """On this bank corrections hold the span near 20 without halving
    it; kept on, they stopped the solve from ever reaching tol. They
    must halve it as fast as the plain sweeps did, or be undone."""
    cfg = SystemConfig(arrival_p=0.9076, buffer=100,
                       servers=(ServerParams(q=0.7041, cost_c=3.1958),
                                ServerParams(q=0.5289, cost_c=9.4101)))
    v, beta, policy, sweeps, _ = _joint_loop(cfg, 1e-9)
    sol = joint_rvi(cfg)
    assert sol.sweeps <= 2 * sweeps
    assert np.array_equal(sol.policy, policy)
    assert abs(sol.beta - beta) <= 1e-9


def test_a_correction_restarts_the_repeat_search():
    """Values a correction hands back were not swept to, so the bitwise
    repeat stop must not compare across it."""
    def sweep(v):  # span 1 forever, values fixed: a repeat at sweep 3
        return v + np.array([0.0, 1.0]), v

    with pytest.raises(ConvergenceError, match="repeats the values"):
        dp._relative_value_iteration("t", sweep, np.zeros(2), 1e-9, 50)
    with pytest.raises(ConvergenceError, match="did not reach span"):
        dp._relative_value_iteration(
            "t", sweep, np.zeros(2), 1e-9, 50,
            lambda sweeps, v, diff, v_next, span: v_next.copy())


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
    """Two servers at buffer 4 have 2**25 policies, refused before any
    is enumerated (buffer 3's 2**16 take about 27 s to enumerate)."""
    cfg = replace(two_server_tiny, buffer=4)
    with pytest.raises(ValueError,
                       match=r"^refusing to enumerate 2\*\*25 = 33554432 "
                             r"policies \(limit 100000\)$"):
        brute_force_policy_search(cfg)


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
