"""Slotted simulator: sampling, accounting, reproducibility, comparison."""

import functools
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from psindex import (CmuPolicy, DepartureSampler, ExactPolicy,
                     IndexIterationConfig, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     build_index_table, compare, joint_rvi, simulate)
from psindex import sim
from psindex.cli import load_config
from psindex.sim import _CHUNK, _check_flow, _departure_cdfs

from conftest import binom_departures, enum_departures

ROOT = Path(__file__).resolve().parent.parent

ONE = SystemConfig(arrival_p=0.4,
                   servers=(ServerParams(q=0.55, cost_c=30.0),),
                   buffer=50)
TWO = SystemConfig(arrival_p=0.4,
                   servers=(ServerParams(q=0.55, cost_c=30.0),
                            ServerParams(q=0.50, cost_c=29.0)),
                   buffer=50)


def _cmu(cfg):
    return CmuPolicy(cfg.servers)


# ---------------------------------------------------------------- #
# departure sampling                                               #
# ---------------------------------------------------------------- #


def test_departure_sampler_inverts_the_cdf_exactly():
    sampler = DepartureSampler(0.5, 6)
    for x in range(7):
        cdf = np.cumsum(enum_departures(x, 0.5))
        for d in range(x + 1):
            if d < x:
                assert sampler.sample(x, cdf[d] - 1e-12) == d
                assert sampler.sample(x, cdf[d] + 1e-12) == d + 1
        assert sampler.sample(x, 0.0) == 0
        assert sampler.sample(x, 1.0 - 1e-15) <= x


@pytest.mark.parametrize("q", [0.55, 0.50, 0.45, 0.95, 0.2])
def test_departure_sampler_cdfs_equal_the_departure_pmf_cdfs(q):
    # fig3 and heavy-traffic use q in {0.55, 0.50, 0.45}; common random
    # numbers need every CDF entry bit for bit.
    want = []
    for x in range(101):
        law = binom_departures(x, q)
        total = float(law.sum())
        if total != 1.0:
            law = law / total
        cdf = np.cumsum(law).tolist()
        cdf[-1] = 1.0
        want.append(cdf)
    assert DepartureSampler(q, 100)._cdfs == want


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
def test_departure_sampler_rejects_q_outside_the_unit_interval(q):
    with pytest.raises(ValueError):
        DepartureSampler(q, 5)


def test_departure_sampler_rejects_a_negative_max_x():
    # Refused when built, not at the first sample with an IndexError.
    with pytest.raises(ValueError, match="n=-1"):
        DepartureSampler(0.5, -1)


def test_simulate_reuses_the_cached_departure_cdfs():
    _departure_cdfs.cache_clear()
    simulate(TWO, _cmu(TWO), horizon=100, burn_in=0, seed=0)
    simulate(TWO, RandomPolicy(2), horizon=100, burn_in=0, seed=1)
    info = _departure_cdfs.cache_info()
    assert (info.misses, info.hits) == (2, 2)  # one build per q
    assert DepartureSampler(0.55, 50)._cdfs[7] is _departure_cdfs(0.55, 50)[7]


def test_departure_sampler_mean_matches_q():
    """Sampled departures at a fixed backlog must average to q."""
    rng = np.random.default_rng(11)
    sampler = DepartureSampler(0.55, 10)
    n = 100_000
    draws = np.array([sampler.sample(5, u) for u in rng.random(n)])
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - 0.55) <= 3.0 * se


# ---------------------------------------------------------------- #
# single trajectories                                              #
# ---------------------------------------------------------------- #


def test_first_slot_costs_nothing_from_the_empty_state():
    report = simulate(ONE, _cmu(ONE), horizon=1, burn_in=0, seed=0)
    assert report.avg_cost == 0.0
    assert report.mean_lengths == (0.0,)
    assert report.drop_count == 0


def test_simulate_rejects_bad_burn_in():
    with pytest.raises(ValueError):
        simulate(ONE, _cmu(ONE), horizon=10, burn_in=10)
    with pytest.raises(ValueError):
        simulate(ONE, _cmu(ONE), horizon=10, burn_in=-1)


def _bank(num):
    servers = (ServerParams(q=0.55, cost_c=30.0),
               ServerParams(q=0.50, cost_c=29.0),
               ServerParams(q=0.45, cost_c=28.0))
    return SystemConfig(arrival_p=0.4, servers=servers[:num], buffer=4)


def _policies_for(cfg):
    table = build_index_table(cfg, x_max=2)
    return [WhittlePolicy(table, max_state=cfg.buffer), CmuPolicy(cfg.servers),
            RandomPolicy(cfg.num_servers), ExactPolicy(joint_rvi(cfg))]


@pytest.mark.parametrize("built,run", [(2, 3), (3, 2)])
def test_simulate_refuses_a_policy_for_another_bank_size(built, run):
    """Neither a missing server nor a surplus one passes silently."""
    for policy in _policies_for(_bank(built)):
        with pytest.raises(ValueError, match=f"policy {policy.name} is for "
                           f"{built} servers, the bank has {run}"):
            simulate(_bank(run), policy, horizon=100, burn_in=0)


@pytest.mark.parametrize("built,run", [(3, 6), (6, 3)])
def test_simulate_refuses_an_exact_policy_for_another_buffer(built, run):
    """A table solved at one buffer is not read at another."""
    solved = replace(TWO, buffer=built)
    policy = ExactPolicy(joint_rvi(solved))
    bank = replace(TWO, buffer=run)
    assert policy.decisions(bank) is None
    with pytest.raises(ValueError, match=f"policy exact is for buffer "
                       f"{built}, the bank has {run}"):
        simulate(bank, policy, horizon=100, burn_in=0)
    assert simulate(solved, policy, horizon=100, burn_in=0).horizon == 100


def test_same_seed_reproduces_the_run_exactly():
    a = simulate(TWO, _cmu(TWO), horizon=20_000, burn_in=100, seed=5)
    b = simulate(TWO, _cmu(TWO), horizon=20_000, burn_in=100, seed=5)
    assert a == b
    c = simulate(TWO, _cmu(TWO), horizon=20_000, burn_in=100, seed=6)
    assert c.avg_cost != a.avg_cost


def test_flow_conservation_holds_under_debug_assertions():
    report = simulate(TWO, _cmu(TWO), horizon=12_000, burn_in=0, seed=3,
                      debug_conservation=True)
    assert report.avg_cost > 0.0


def test_flow_check_rejects_inconsistent_slots():
    # (before, after departures, after the arrival, arrival's queue)
    _check_flow(4, [2, 0], [1, 0], [1, 1], 1, buffer=3)
    _check_flow(4, [0, 3], [0, 3], [0, 3], 1, buffer=3)  # a drop
    bad_flow = [([2, 0], [1, 0], [1, 0], 1),   # admission lost
                ([0, 3], [0, 3], [0, 4], 1),   # admitted past the buffer
                ([1, 1], [1, 1], [2, 1], -1)]  # work from nowhere
    for before, mid, after, arrived in bad_flow:
        with pytest.raises(AssertionError, match="flow conservation"):
            _check_flow(4, before, mid, after, arrived, buffer=3)
    for before, mid in [([1, 0], [-1, 0]), ([1, 0], [2, 0])]:
        with pytest.raises(AssertionError, match="departures exceed"):
            _check_flow(4, before, mid, mid, -1, buffer=3)


def test_random_policy_runs_and_costs_more_than_cmu():
    rand = simulate(TWO, RandomPolicy(2), horizon=200_000, burn_in=5_000,
                    seed=1)
    smart = simulate(TWO, _cmu(TWO), horizon=200_000, burn_in=5_000, seed=1)
    assert rand.avg_cost > smart.avg_cost


def test_tiny_buffer_forces_drops_and_large_buffer_avoids_them():
    tight = SystemConfig(arrival_p=0.4, servers=ONE.servers, buffer=1)
    dropped = simulate(tight, _cmu(tight), horizon=50_000, burn_in=0, seed=2)
    assert dropped.drop_count > 0
    roomy = simulate(ONE, _cmu(ONE), horizon=50_000, burn_in=0, seed=2)
    assert roomy.drop_count == 0


def test_policies_share_departure_and_arrival_randomness():
    """With one server every rule acts identically, so common random
    numbers must make their trajectories literally equal."""
    table = IndexTable(entries=np.array([[0.8, 1.6]]), x_max=1)
    wh = WhittlePolicy(table, max_state=ONE.buffer)
    cm = _cmu(ONE)
    a = simulate(ONE, wh, horizon=30_000, burn_in=500, seed=9)
    b = simulate(ONE, cm, horizon=30_000, burn_in=500, seed=9)
    assert a.avg_cost == b.avg_cost
    assert a.mean_lengths == b.mean_lengths
    assert a.drop_count == b.drop_count


def test_checkpoints_trace_the_running_average(slot_loop):
    report = simulate(ONE, _cmu(ONE), horizon=1_000, burn_in=0, seed=0,
                      checkpoints=5)
    marks = report.cost_checkpoints
    assert len(marks) == 5
    slots = [m[0] for m in marks]
    assert slots == sorted(slots)
    assert slots[-1] == 1_000
    assert marks[-1][1] == pytest.approx(report.avg_cost, abs=1e-12)


def test_burn_in_excludes_the_warmup_slots():
    # Averaging from slot 0 dilutes the cost with the empty start, so
    # the burned-in average must sit above the cold-start average.
    cold = simulate(ONE, _cmu(ONE), horizon=50_000, burn_in=0, seed=4)
    warm = simulate(ONE, _cmu(ONE), horizon=50_000, burn_in=10_000, seed=4)
    assert warm.avg_cost > cold.avg_cost


def _slot_by_slot(cfg, policy, horizon, burn_in, seed):
    """The simulator as a plain loop, kept as the reference.

    Every queue draws its departure through DepartureSampler in every
    slot, empty or not, and the random rule makes one scalar draw per
    slot. Returns (avg_cost, mean_lengths, drop_count).
    """
    num = cfg.num_servers
    children = np.random.SeedSequence(seed).spawn(num + 2)
    dep_u = [np.random.default_rng(c).random(horizon) for c in children[:num]]
    arr_u = np.random.default_rng(children[num]).random(horizon)
    pol_rng = np.random.default_rng(children[num + 1])
    if isinstance(policy, RandomPolicy):
        select = lambda state: int(pol_rng.integers(num))  # noqa: E731
    else:
        select = policy.selector(pol_rng)
    samplers = [DepartureSampler(s.q, cfg.buffer) for s in cfg.servers]
    x = [0] * num
    cost, lengths, drops = 0.0, [0.0] * num, 0
    for t in range(horizon):
        if t >= burn_in:
            slot_cost = 0.0
            for i in range(num):
                slot_cost += cfg.servers[i].cost_c * x[i]
                lengths[i] += x[i]
            cost += slot_cost
        a = select(x)
        for i in range(num):
            x[i] -= samplers[i].sample(x[i], dep_u[i][t])
        if arr_u[t] < cfg.arrival_p:
            if x[a] < cfg.buffer:
                x[a] += 1
            else:
                drops += 1
    measured = horizon - burn_in
    return cost / measured, tuple(v / measured for v in lengths), drops


THREE = SystemConfig(arrival_p=0.4,
                     servers=(ServerParams(q=0.55, cost_c=30.0),
                              ServerParams(q=0.50, cost_c=29.0),
                              ServerParams(q=0.45, cost_c=28.0)),
                     buffer=100)
# Buffer 1 under heavy traffic: arrivals keep meeting full queues, so
# the admit branch and the busy-queue count work at the buffer edge.
EDGE = SystemConfig(arrival_p=0.8, servers=TWO.servers, buffer=1)


@pytest.mark.parametrize("cfg", [ONE, TWO, THREE, EDGE],
                         ids=["one", "two", "three", "buffer1"])
@pytest.mark.parametrize("policy", ["cmu", "random"])
def test_fast_paths_match_the_slot_by_slot_loop(cfg, policy, slot_loop):
    rule = _cmu(cfg) if policy == "cmu" else RandomPolicy(cfg.num_servers)
    report = simulate(cfg, rule, horizon=30_000, burn_in=1_000, seed=12)
    want = _slot_by_slot(cfg, rule, 30_000, 1_000, 12)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    if cfg is EDGE:
        assert report.drop_count > 0


# Nine servers at buffer 255: the state code reaches 256**9 = 2**72,
# past any 64-bit integer, so a loop must tell an empty bank by its
# busy queues. Heavy arrivals keep several queues busy at once.
WIDE = SystemConfig(arrival_p=0.9, buffer=255, servers=tuple(
    ServerParams(q=q, cost_c=c) for q, c in zip(
        [0.3, 0.35, 0.4] * 3, [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])))


def test_random_rule_on_a_grid_whose_code_overflows_64_bits(slot_loop):
    assert (WIDE.buffer + 1) ** WIDE.num_servers >= 2 ** 72
    rule = RandomPolicy(WIDE.num_servers)
    report = simulate(WIDE, rule, horizon=20_000, burn_in=1_000, seed=5)
    want = _slot_by_slot(WIDE, rule, 20_000, 1_000, 5)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    assert max(report.mean_lengths) > 0.1


@pytest.mark.parametrize("compiler", ["absent", "failing"])
def test_simulate_falls_back_silently_when_no_loop_builds(
        compiler, monkeypatch, capfd, tmp_path):
    """No `cc` on the path, or one that fails loudly: the Python loop
    gives the same reports and nothing reaches stdout or stderr."""
    found = None
    if compiler == "failing":
        if os.name != "posix":
            pytest.skip("the failing compiler is a shell script")
        script = tmp_path / "cc"
        script.write_text("#!/bin/sh\necho 'cc: internal error' >&2\n"
                          "exit 1\n")
        script.chmod(0o755)
        found = str(script)
    rules = [_cmu(TWO), RandomPolicy(2)]
    want = [simulate(TWO, r, horizon=5_000, burn_in=100, seed=3)
            for r in rules]
    monkeypatch.setattr(sim, "_slot_loop",
                        functools.cache(sim._slot_loop.__wrapped__))
    monkeypatch.setattr(shutil, "which", lambda *args, **kw: found)
    capfd.readouterr()
    assert [simulate(TWO, r, horizon=5_000, burn_in=100, seed=3)
            for r in rules] == want
    assert sim._slot_loop() is None
    assert capfd.readouterr() == ("", "")


def test_the_compiled_loop_runs_for_tables_and_the_random_rule(
        monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    blocks = []
    built = sim._slot_loop()

    def counted(*args):
        blocks.append(args[0])
        return built(*args)

    monkeypatch.setattr(sim, "_slot_loop", lambda: counted)
    runs = {"table": (_cmu(TWO), {}), "random": (RandomPolicy(2), {}),
            "checkpoints": (_cmu(TWO), {"checkpoints": 4}),
            "selector": (_SelectorOnly(_cmu(TWO)), {}),
            "debug": (_cmu(TWO), {"debug_conservation": True})}
    slots = {}
    for name, (policy, kw) in runs.items():
        blocks.clear()
        simulate(TWO, policy, horizon=5_000, burn_in=1_000, seed=2, **kw)
        slots[name] = sum(blocks)
    assert slots == {"table": 5_000, "random": 5_000, "checkpoints": 5_000,
                     "selector": 0, "debug": 0}


@pytest.mark.parametrize("cfg", [TWO, EDGE], ids=["two", "buffer1"])
def test_debug_and_checkpoints_leave_the_report_unchanged(cfg, slot_loop):
    assert 70_000 > _CHUNK  # the run crosses a block of drawn uniforms
    runs = [simulate(cfg, RandomPolicy(2), horizon=70_000, burn_in=10_000,
                     seed=8, **kw)
            for kw in ({}, {"debug_conservation": True}, {"checkpoints": 7})]
    keys = {(r.avg_cost, r.mean_lengths, r.drop_count) for r in runs}
    assert len(keys) == 1
    assert len(runs[2].cost_checkpoints) == 8
    assert (runs[0].drop_count > 0) == (cfg is EDGE)


class _SelectorOnly:
    """A policy seen through its selector alone, as a duck-typed rule."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.selectors = 0

    def selector(self, rng):
        self.selectors += 1
        return self.inner.selector(rng)


def _deterministic_rules(cfg):
    table = build_index_table(cfg, x_max=3)
    return [WhittlePolicy(table), WhittlePolicy(table, max_state=cfg.buffer),
            _cmu(cfg), ExactPolicy(joint_rvi(cfg))]


# Buffer 6, so joint RVI stays small; p = 0.7 keeps the queues busy.
SIX = SystemConfig(arrival_p=0.7, servers=THREE.servers, buffer=6)


@pytest.mark.parametrize("cfg", [TWO, SIX, EDGE],
                         ids=["two", "three", "buffer1"])
@pytest.mark.parametrize("kw", [{}, {"debug_conservation": True},
                                {"checkpoints": 7}],
                         ids=["plain", "debug", "checkpoints"])
def test_decision_tables_give_the_selector_reports(cfg, kw, slot_loop):
    assert 70_000 > _CHUNK  # the run crosses a block of drawn uniforms
    for policy in _deterministic_rules(cfg):
        assert policy.decisions(cfg) is not None
        via_table = simulate(cfg, policy, horizon=70_000, burn_in=10_000,
                             seed=8, **kw)
        wrapped = _SelectorOnly(policy)
        via_selector = simulate(cfg, wrapped, horizon=70_000, burn_in=10_000,
                                seed=8, **kw)
        assert wrapped.selectors == 1
        assert via_table == via_selector, policy.name
        if cfg is EDGE:
            assert via_table.drop_count > 0


def test_simulate_falls_back_to_the_selector_above_the_state_limit(
        monkeypatch):
    from psindex import policies
    calls = []

    class Counted(CmuPolicy):
        def selector(self, rng):
            select = super().selector(rng)

            def counted(state):
                calls.append(1)
                return select(state)

            return counted

    rule = Counted(TWO.servers)
    with_table = simulate(TWO, rule, horizon=5_000, burn_in=100, seed=3)
    assert calls == []
    monkeypatch.setattr(policies, "DECISION_STATE_LIMIT", 51 ** 2 - 1)
    fallback = simulate(TWO, Counted(TWO.servers), horizon=5_000,
                        burn_in=100, seed=3)
    assert len(calls) == 5_000
    assert fallback == with_table


REFERENCE_CASES = [("configs/fig3.yaml", "whittle"),
                   ("configs/fig3.yaml", "cmu"),
                   ("configs/fig3.yaml", "random"),
                   ("perfbench/heavy-traffic.yaml", "cmu"),
                   ("perfbench/heavy-traffic.yaml", "random"),
                   ("perfbench/heavy-traffic.yaml", "exact")]


def _policy_as_compare_builds_it(loaded, name):
    system = loaded.system
    if name == "whittle":
        w = loaded.whittle
        table = build_index_table(
            system, w.x_max,
            IndexIterationConfig(gamma=w.gamma, tol=w.tol,
                                 max_iter=w.max_iter))
        return WhittlePolicy(table, max_state=system.buffer)
    if name == "exact":
        return ExactPolicy(joint_rvi(system))
    return _cmu(system) if name == "cmu" else RandomPolicy(system.num_servers)


@pytest.mark.parametrize("config,name", REFERENCE_CASES)
def test_simulate_reproduces_the_benchmark_reference_reports(config, name,
                                                             slot_loop):
    """Common random numbers: each report is pinned bit for bit."""
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref = ref["sim"][config]
    assert (ref["horizon"], ref["burn_in"]) == (50_000, 10_000)
    loaded = load_config(ROOT / config)
    policy = _policy_as_compare_builds_it(loaded, name)
    for seed in (0, 21, 42, 63):
        r = simulate(loaded.system, policy, 50_000, 10_000, seed)
        got = [r.avg_cost, list(r.mean_lengths), r.drop_count]
        assert got == ref["reports"][name][str(seed)], (name, seed)


# ---------------------------------------------------------------- #
# comparisons                                                      #
# ---------------------------------------------------------------- #


def test_compare_aggregates_match_the_reports():
    table = compare(TWO, [_cmu(TWO), RandomPolicy(2)], horizon=20_000,
                    burn_in=1_000, seeds=range(3))
    assert len(table.reports) == 6
    for name in ("cmu", "random"):
        vals = np.array([r.avg_cost for r in table.reports
                         if r.policy == name])
        mean, hw = table.aggregates[name]
        assert mean == pytest.approx(vals.mean(), abs=1e-12)
        assert hw == pytest.approx(1.96 * vals.std(ddof=1) / np.sqrt(3),
                                   abs=1e-12)


def test_compare_needs_two_seeds_and_distinct_names():
    with pytest.raises(ValueError):
        compare(TWO, [_cmu(TWO)], horizon=100, burn_in=0, seeds=[0])
    with pytest.raises(ValueError):
        compare(TWO, [_cmu(TWO), _cmu(TWO)], horizon=100, burn_in=0,
                seeds=[0, 1])
    with pytest.raises(ValueError):
        compare(TWO, [], horizon=100, burn_in=0, seeds=[0, 1])
