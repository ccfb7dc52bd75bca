"""Slotted simulator: sampling, accounting, reproducibility, comparison."""

import functools
import gc
import json
import os
import shutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from psindex import (CmuPolicy, DepartureSampler, ExactPolicy,
                     IndexIterationConfig, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     build_index_table, compare, joint_rvi, simulate)
from psindex import sim
from psindex.cli import load_config
from psindex.sim import _CHUNK, _departure_cdfs

from conftest import (binom_departures, enum_departures,
                      random_rule_exact)

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


@pytest.mark.parametrize("x", [-1, 11])
def test_departure_sampler_refuses_a_length_outside_its_rows(x):
    # Length -1 would read row max_x silently.
    with pytest.raises(ValueError, match=f"x must be in 0..10, got {x}"):
        DepartureSampler(0.5, 10).sample(x, 0.99)


@pytest.mark.parametrize("u", [1.0, float("nan"), -0.25])
def test_departure_sampler_refuses_a_uniform_outside_the_unit_interval(u):
    # u = 1.0 or NaN would pass the sentinel and draw 4 of 3 jobs.
    with pytest.raises(ValueError, match=r"u must be in \[0, 1\), got "):
        DepartureSampler(0.5, 10).sample(3, u)


def test_departure_sampler_rejects_a_negative_max_x():
    # Refused when built, not at the first sample with an IndexError.
    with pytest.raises(ValueError, match="n=-1"):
        DepartureSampler(0.5, -1)


@pytest.mark.parametrize("q,max_x", [(0.55, 100), (0.05, 100), (0.95, 7),
                                     (0.5, 0)])
def test_flat_cdfs_pad_each_row_with_a_sentinel(q, max_x):
    """The compiled loop's layout: row x at x(x+3)/2, then a 1.0."""
    cfg = SystemConfig(arrival_p=0.4, servers=(ServerParams(q, 1.0),),
                       buffer=max_x)
    rows = _departure_cdfs(q, max_x)
    flat = sim._bank(cfg).arrays[1].tolist()
    assert len(flat) == (max_x + 1) * (max_x + 4) // 2
    for x, row in enumerate(rows):
        at = x * (x + 3) // 2
        assert flat[at:at + x + 1] == row
        assert flat[at + x + 1] == 1.0


def test_simulate_reuses_the_cached_departure_cdfs(slot_loop, monkeypatch):
    """One CDF build per server and one bank per config, whatever the
    seed and the policy."""
    built = []

    def counted(q, max_x):
        built.append((q, max_x))
        return _departure_cdfs(q, max_x)
    monkeypatch.setattr(sim, "_departure_cdfs", counted)
    sim._bank.cache_clear()
    simulate(TWO, _cmu(TWO), horizon=100, burn_in=0, seed=0)
    simulate(TWO, RandomPolicy(2), horizon=100, burn_in=0, seed=1)
    assert built == [(s.q, TWO.buffer) for s in TWO.servers]
    info = sim._bank.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert DepartureSampler(0.55, 50)._cdfs == sim._bank(TWO).cdfs[0]


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


def test_simulate_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        simulate(ONE, _cmu(ONE), horizon=10, burn_in=0, seed=-1)


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


def _slot_by_slot(cfg, policy, horizon, burn_in, seed, departures=None):
    """The simulator as a plain loop, kept as the reference.

    Every queue draws its departure through DepartureSampler in every
    slot, empty or not, and the random rule makes one scalar draw per
    slot. A given departures Counter tallies the drawn counts. Returns
    (avg_cost, mean_lengths, drop_count).
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
            d = samplers[i].sample(x[i], dep_u[i][t])
            x[i] -= d
            if departures is not None:
                departures[d] += 1
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
# admissions and drops alternate at the buffer edge.
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
# past any 64-bit integer, so a loop without a table must never read
# the code. Heavy arrivals keep several queues busy at once.
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


# p = 0.95 against q = 0.6 and 0.5 keeps queues of several jobs, so
# 4-6% of queue-slots clear two jobs or more, past the compiled loop's
# two comparisons.
FAST = SystemConfig(arrival_p=0.95, buffer=100, servers=(
    ServerParams(q=0.6, cost_c=2.0), ServerParams(q=0.5, cost_c=1.0)))
# p > q: the lone queue sits at the buffer, so arrivals read the last
# CDF row and its sentinel, and most of them are dropped.
FULL = SystemConfig(arrival_p=0.3, buffer=100,
                    servers=(ServerParams(q=0.05, cost_c=1.0),))


@pytest.mark.parametrize("policy", ["cmu", "random"])
def test_multiple_departures_match_the_slot_by_slot_loop(policy, slot_loop):
    rule = _cmu(FAST) if policy == "cmu" else RandomPolicy(2)
    report = simulate(FAST, rule, horizon=30_000, burn_in=1_000, seed=12)
    seen = Counter()
    want = _slot_by_slot(FAST, rule, 30_000, 1_000, 12, seen)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    assert sum(n for d, n in seen.items() if d >= 2) > 2_000
    assert sum(n for d, n in seen.items() if d >= 4) > 0


@pytest.mark.parametrize("policy", ["cmu", "random"])
def test_a_queue_at_the_buffer_matches_the_slot_by_slot_loop(policy,
                                                             slot_loop):
    rule = _cmu(FULL) if policy == "cmu" else RandomPolicy(1)
    report = simulate(FULL, rule, horizon=30_000, burn_in=1_000, seed=12)
    want = _slot_by_slot(FULL, rule, 30_000, 1_000, 12)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    assert report.mean_lengths[0] > 99.0
    assert report.drop_count > 5_000


def _compiled():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    lib = sim._slot_loop()
    assert lib is not None, "cc did not build the slot loop"
    return lib


# A compiler that builds the shipped source with one bit of a constant
# flipped, as C off numpy's streams would be: the PCG64 multiplier, or
# SeedSequence's first hash constant.
_MISMATCHING_CC = """#!{python}
import subprocess, sys
from pathlib import Path
*args, source = sys.argv[1:]
text = Path(source).read_text()
assert {old!r} in text
copy = Path({tmp!r}) / "mismatching.c"
copy.write_text(text.replace({old!r}, {new!r}))
sys.exit(subprocess.run([{cc!r}, *args, str(copy)]).returncode)
"""
_FLIPPED = {"mismatching generator": ("0x4385DF649FCCF645ULL",
                                      "0x4385DF649FCCF647ULL"),
            "mismatching seeding": ("0x43b0d7e5u", "0x43b0d7e7u")}


@pytest.mark.parametrize("compiler", ["absent", "failing", *_FLIPPED])
def test_simulate_falls_back_silently_when_no_loop_builds(
        compiler, monkeypatch, capfd, tmp_path):
    """No `cc` on the path, one that fails loudly, or one whose build
    fails the self-test: the Python loop gives the same reports and
    nothing reaches stdout or stderr."""
    found = None
    if compiler != "absent":
        if os.name != "posix":
            pytest.skip("the stand-in compiler is a script")
        script = tmp_path / "cc"
        if compiler == "failing":
            script.write_text("#!/bin/sh\necho 'cc: internal error' >&2\n"
                              "exit 1\n")
        else:
            real = shutil.which("cc")
            if real is None:
                pytest.skip("no C compiler on the path")
            flip_from, flip_to = _FLIPPED[compiler]
            script.write_text(_MISMATCHING_CC.format(
                python=sys.executable, tmp=str(tmp_path), cc=real,
                old=flip_from, new=flip_to))
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
    if compiler in _FLIPPED:
        assert (tmp_path / "mismatching.c").exists()


def test_the_compiled_loop_runs_for_tables_and_the_random_rule(
        monkeypatch):
    blocks = []
    built = _compiled()

    def counted(*args):
        blocks.append(args[0])
        return built.advance(*args)

    monkeypatch.setattr(sim, "_slot_loop",
                        lambda: SimpleNamespace(advance=counted,
                                                seed=built.seed))
    runs = {"table": (_cmu(TWO), {}), "random": (RandomPolicy(2), {}),
            "checkpoints": (_cmu(TWO), {"checkpoints": 4}),
            "selector": (_SelectorOnly(_cmu(TWO)), {}),
            "choices": (_ServerZero(), {}),
            "subclass": (_ServerZeroRandom(2), {})}
    slots = {}
    for name, (policy, kw) in runs.items():
        blocks.clear()
        simulate(TWO, policy, horizon=5_000, burn_in=1_000, seed=2, **kw)
        slots[name] = sum(blocks)
    assert slots == {"table": 5_000, "random": 5_000, "checkpoints": 5_000,
                     "selector": 0, "choices": 0, "subclass": 0}


def test_the_kernels_agree_on_rules_the_compiled_loop_does_not_draw(
        monkeypatch):
    """A duck-typed rule with a choices method, and a RandomPolicy
    subclass with its own selector, each pick server 0 in every slot:
    both kernels run their selectors and give the same report, in
    which server 1 never holds a job."""
    _compiled()
    cfg = SystemConfig(arrival_p=0.6, buffer=20,
                       servers=(ServerParams(q=0.6, cost_c=1.0),
                                ServerParams(q=0.5, cost_c=1.0)))
    rules = [_ServerZero(), _ServerZeroRandom(2)]
    compiled = [simulate(cfg, r, horizon=50_000, burn_in=1_000, seed=3)
                for r in rules]
    monkeypatch.setattr(sim, "_slot_loop", lambda: None)
    assert [simulate(cfg, r, horizon=50_000, burn_in=1_000, seed=3)
            for r in rules] == compiled
    assert [r.mean_lengths[1] for r in compiled] == [0.0, 0.0]


@pytest.mark.parametrize("cfg", [TWO, EDGE], ids=["two", "buffer1"])
def test_checkpoints_leave_the_report_unchanged(cfg, slot_loop):
    assert 70_000 > _CHUNK  # the run crosses a block of drawn uniforms
    runs = [simulate(cfg, RandomPolicy(2), horizon=70_000, burn_in=10_000,
                     seed=8, **kw)
            for kw in ({}, {"checkpoints": 7})]
    keys = {(r.avg_cost, r.mean_lengths, r.drop_count) for r in runs}
    assert len(keys) == 1
    assert len(runs[1].cost_checkpoints) == 8
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


class _ServerZero:
    """A duck-typed rule that always picks server 0, through its
    selector and through a choices(rng) draw(k) that no kernel reads."""

    name = "server0"

    def choices(self, rng):
        return lambda k: np.zeros(k, np.int64)

    def selector(self, rng):
        return lambda state: 0


class _ServerZeroRandom(RandomPolicy):
    """A RandomPolicy whose selector always picks server 0."""

    def selector(self, rng):
        return lambda state: 0


def _flow_step(before, departures, after, arrived, buffer):
    """Assert next = current - departures + admissions for one slot.

    before and after are the lengths at the slot's start and end,
    departures each queue's count drawn at its length before the slot,
    and arrived the queue the slot's arrival went to, or -1 when there
    was none. Returns 1 when the arrival was dropped, else 0.
    """
    for i, (x, d, y) in enumerate(zip(before, departures, after)):
        if not 0 <= d <= x:
            raise AssertionError(f"departures {d} outside 0..{x} "
                                 f"at server {i}")
        if y != x - d + (i == arrived and x - d < buffer):
            raise AssertionError(f"flow conservation violated at server {i}")
    return int(arrived >= 0
               and before[arrived] - departures[arrived] == buffer)


def test_flow_step_rejects_inconsistent_slots():
    # (before, departures, after, the arrival's queue)
    assert _flow_step([2, 0], [1, 0], [1, 1], 1, buffer=3) == 0
    assert _flow_step([0, 3], [0, 0], [0, 3], 1, buffer=3) == 1  # a drop
    bad_flow = [([2, 0], [1, 0], [1, 0], 1),   # admission lost
                ([0, 3], [0, 0], [0, 4], 1),   # admitted past the buffer
                ([1, 1], [0, 0], [2, 1], -1)]  # work from nowhere
    for before, departures, after, arrived in bad_flow:
        with pytest.raises(AssertionError, match="flow conservation"):
            _flow_step(before, departures, after, arrived, buffer=3)
    for departures in ([2, 0], [-1, 0]):  # above the length; negative
        after = [1 - departures[0], 0]
        with pytest.raises(AssertionError, match="departures -?[0-9]+ "
                                                 "outside 0..1"):
            _flow_step([1, 0], departures, after, -1, buffer=3)


@pytest.mark.parametrize("cfg", [TWO, EDGE], ids=["two", "buffer1"])
@pytest.mark.parametrize("rule", ["cmu", "random", "selector"])
def test_every_slot_conserves_flow(cfg, rule, slot_loop):
    """One slot per advance(1) call, checked against DepartureSampler
    and the server the rule picks, on whichever kernel the rule gets.
    The expected draws come from lockstep numpy streams of the same
    seed, so on the compiled kernel this also checks its seeding and
    its generator slot by slot."""
    cmu, num, buffer = _cmu(cfg), cfg.num_servers, cfg.buffer
    policy = {"cmu": cmu, "random": RandomPolicy(num),
              "selector": _SelectorOnly(cmu)}[rule]
    loop = sim._SlotLoop(cfg, policy, 3)
    assert (loop.compiled is not None) == (slot_loop == "compiled"
                                           and rule != "selector")
    # Both kernels draw the random rule's choices as its scalar stream.
    *dep_rngs, arr_rng, lockstep = _numpy_streams(3, num + 2)
    table = cmu.decisions(cfg) if rule != "random" else None
    stride = [(buffer + 1) ** (num - 1 - i) for i in range(num)]
    samplers = [DepartureSampler(s.q, buffer) for s in cfg.servers]
    drops = busy = 0
    for _ in range(12_000):
        dep_u = [rng.random() for rng in dep_rngs]
        arrives = arr_rng.random() < cfg.arrival_p
        before = loop.x.tolist()
        code = sum(map(int.__mul__, before, stride))
        chosen = (table[code] if table is not None
                  else int(lockstep.integers(num)))
        loop.advance(1)
        after = loop.x.tolist()
        departures = [s.sample(x, u)
                      for s, x, u in zip(samplers, before, dep_u)]
        drops += _flow_step(before, departures, after,
                            chosen if arrives else -1, buffer)
        assert loop.counts[1] == drops
        if loop.compiled is not None and table is not None:
            assert loop.counts[0] == sum(map(int.__mul__, after, stride))
        busy += min(before) > 0
    assert busy > 1_000
    assert (drops > 0) == (cfg is EDGE)


# ---------------------------------------------------------------- #
# the compiled kernel's generator                                  #
# ---------------------------------------------------------------- #


def _numpy_streams(seed, streams):
    """seed's streams as the Python kernel builds them."""
    return [np.random.default_rng(child) for child
            in np.random.SeedSequence(seed).spawn(streams)]


def _pcg_state(gen, streams, i):
    """Stream i of seed()'s words as numpy's PCG64 state; the 32-bit
    buffer after the increments is the last stream's."""
    words = [int(w) for w in gen]
    assert len(words) == 4 * streams + 2

    def value(k):
        return words[2 * k] | words[2 * k + 1] << 64

    last = i == streams - 1
    return {"bit_generator": "PCG64",
            "state": {"state": value(i), "inc": value(streams + i)},
            "has_uint32": words[-2] if last else 0,
            "uinteger": words[-1] if last else 0}


SEEDS = [0, 1, 12, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 63 + 5, 2 ** 64,
         2 ** 70 + 3, 2 ** 128, 2 ** 165 + 77]


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_seeding_is_numpy_spawn(seed):
    """seed() gives every child of SeedSequence(seed).spawn(k) the
    PCG64 state numpy gives it, for seeds of one to six words."""
    lib = _compiled()
    for streams in (1, 3, 11):
        gen = sim._seeded(lib.seed, seed, streams)
        want = [rng.bit_generator.state
                for rng in _numpy_streams(seed, streams)]
        assert [_pcg_state(gen, streams, i)
                for i in range(streams)] == want, streams


@pytest.mark.parametrize("seed", [0, 1, 12, 2 ** 63 + 5])
def test_compiled_uniforms_are_numpy_random(seed):
    """numpy's PCG64 random() reproduced in C, over 6 * 10**5 draws:
    every XSL-RR rotation and the 53-bit conversion come up."""
    lib = _compiled()
    gen = sim._seeded(lib.seed, seed, 1)
    [rng] = _numpy_streams(seed, 1)
    got = np.empty(200_000)
    for _ in range(3):
        lib.uniforms(got.size, gen.ctypes.data, got.ctypes.data)
        assert np.array_equal(got, rng.random(got.size))


@pytest.mark.parametrize("num", range(1, 10))
def test_compiled_choices_are_numpy_integers(num):
    """Generator.integers(num) reproduced in C, in blocks of 1, 999 and
    70 000: integers() gives numpy's draws, and the random rule's loop
    leaves its policy stream, 32-bit buffer included, where numpy's
    stream is after the same draws. One server draws nothing."""
    lib = _compiled()
    cfg = SystemConfig(arrival_p=0.5, buffer=20,
                       servers=(ServerParams(q=0.6, cost_c=1.0),) * num)
    gen = sim._seeded(lib.seed, num, 1)
    [rng] = _numpy_streams(num, 1)
    loop = sim._SlotLoop(cfg, RandomPolicy(num), num)
    assert loop.compiled is not None
    lockstep = _numpy_streams(num, num + 2)[-1]
    for block in (1, 999, 70_000):
        got = np.empty(block, np.int64)
        lib.integers(block, num, gen.ctypes.data, got.ctypes.data)
        assert np.array_equal(got, rng.integers(num, size=block)), block
        loop.advance(block)
        lockstep.integers(num, size=block)
        assert (_pcg_state(loop.gen, num + 2, num + 1)
                == lockstep.bit_generator.state), block
    if num == 1:
        assert lockstep.bit_generator.state == _numpy_streams(
            num, num + 2)[-1].bit_generator.state


@pytest.mark.parametrize("num", range(1, 10))
def test_compiled_choices_carry_across_burn_in(num, monkeypatch):
    """Blocks of 999, 65 536 and 4 465 slots, split at the burn-in and
    at a block of draws: the compiled random rule gives the Python
    kernel's report, its 32-bit buffer carried from block to block."""
    _compiled()
    cfg = SystemConfig(arrival_p=0.8, buffer=20,
                       servers=(ServerParams(q=0.3, cost_c=1.0),) * num)
    rule = RandomPolicy(num)
    compiled = simulate(cfg, rule, horizon=71_000, burn_in=999, seed=num)
    monkeypatch.setattr(sim, "_slot_loop", lambda: None)
    assert simulate(cfg, rule, horizon=71_000, burn_in=999,
                    seed=num) == compiled


@pytest.mark.parametrize("rule", ["cmu", "random"])
def test_the_pinned_states_continue_the_numpy_streams(rule):
    """After compiled blocks, each state the loop left in its pinned
    words is numpy's state after the same draws: one uniform per slot
    on every departure stream and the arrival stream, and one choice
    per slot on the random rule's policy stream."""
    _compiled()
    policy = _cmu(THREE) if rule == "cmu" else RandomPolicy(3)
    loop = sim._SlotLoop(THREE, policy, 7)
    assert loop.compiled is not None
    lockstep = _numpy_streams(7, 5)
    for block in (1, 999, 70_000):
        loop.advance(block)
        for rng in lockstep[:4]:
            rng.random(block)
        if rule == "random":
            lockstep[4].integers(3, size=block)
        for i, rng in enumerate(lockstep):
            assert (_pcg_state(loop.gen, 5, i)
                    == rng.bit_generator.state), (block, i)


def test_the_compiled_loop_builds_no_numpy_generator(monkeypatch):
    """A table or the random rule runs with neither a SeedSequence nor
    a Generator: _slotloop.c seeds and draws every stream."""
    _compiled()
    rules = [_cmu(THREE), RandomPolicy(3)]
    want = [simulate(THREE, r, horizon=5_000, burn_in=100, seed=2 ** 64)
            for r in rules]

    def refused(*args, **kw):
        raise AssertionError("a numpy stream on the compiled path")

    monkeypatch.setattr(np.random, "default_rng", refused)
    monkeypatch.setattr(np.random, "SeedSequence", refused)
    assert [simulate(THREE, r, horizon=5_000, burn_in=100, seed=2 ** 64)
            for r in rules] == want


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2 ** 64 - 1),
                                  np.uint32(2 ** 32 - 1), 2 ** 32,
                                  2 ** 32 + 1, 2 ** 64, 2 ** 64 + 3,
                                  2 ** 128, 2 ** 128 + 9])
@pytest.mark.parametrize("policy", ["cmu", "random"])
def test_numpy_and_wide_seeds_give_the_numpy_streams(seed, policy,
                                                     slot_loop):
    """NumPy integers, and seeds of two to five 32-bit words, give the
    reports of SeedSequence(seed)'s streams on both kernels, and on the
    compiled one both rules run compiled at every seed."""
    rule = _cmu(TWO) if policy == "cmu" else RandomPolicy(2)
    if slot_loop == "compiled":
        assert sim._SlotLoop(TWO, rule, seed).compiled is not None
    report = simulate(TWO, rule, horizon=4_000, burn_in=500, seed=seed)
    want = _slot_by_slot(TWO, rule, 4_000, 500, seed)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    assert report.seed == seed


def _deterministic_rules(cfg):
    table = build_index_table(cfg, x_max=3)
    return [WhittlePolicy(table), WhittlePolicy(table, max_state=cfg.buffer),
            _cmu(cfg), ExactPolicy(joint_rvi(cfg))]


# Buffer 6, so joint RVI stays small; p = 0.7 keeps the queues busy.
SIX = SystemConfig(arrival_p=0.7, servers=THREE.servers, buffer=6)


@pytest.mark.parametrize("cfg", [TWO, SIX, EDGE],
                         ids=["two", "three", "buffer1"])
@pytest.mark.parametrize("kw", [{}, {"checkpoints": 7}],
                         ids=["plain", "checkpoints"])
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

    _compiled()  # the Python kernel asks every rule its selector
    rule = Counted(TWO.servers)
    with_table = simulate(TWO, rule, horizon=5_000, burn_in=100, seed=3)
    assert calls == []
    monkeypatch.setattr(policies, "DECISION_STATE_LIMIT", 51 ** 2 - 1)
    fallback = simulate(TWO, Counted(TWO.servers), horizon=5_000,
                        burn_in=100, seed=3)
    assert len(calls) == 5_000
    assert fallback == with_table


class _WrongTable(CmuPolicy):
    """Cmu whose decision table names the last server in every state."""

    tables = 0

    def decisions(self, cfg):
        self.tables += 1
        num = cfg.num_servers
        return bytes([num - 1]) * (cfg.buffer + 1) ** num


@pytest.mark.parametrize("cfg", [TWO, THREE], ids=["two", "three"])
def test_the_python_kernel_reads_no_decision_table(cfg, monkeypatch):
    """With no compiled loop, a rule's table is neither built nor read:
    a wrong one leaves the report of its selector."""
    monkeypatch.setattr(sim, "_slot_loop", lambda: None)
    rule = _WrongTable(cfg.servers)
    report = simulate(cfg, rule, horizon=30_000, burn_in=1_000, seed=12)
    assert rule.tables == 0
    want = _slot_by_slot(cfg, rule, 30_000, 1_000, 12)
    assert (report.avg_cost, report.mean_lengths, report.drop_count) == want
    last = SimpleNamespace(selector=lambda rng: lambda x: cfg.num_servers - 1)
    assert _slot_by_slot(cfg, last, 30_000, 1_000, 12) != want


@pytest.mark.parametrize("policy", ["whittle", "cmu", "random", "selector"])
def test_simulate_frees_its_loop_by_reference_counting(policy, slot_loop):
    """A loop caught in a reference cycle, as a bound method stored on
    the instance or a selector that calls itself makes one, outlives its
    run until the cycle collector finds it, and its arrays raise the
    peak memory of a comparison."""
    config = "configs/fig3.yaml"
    cfg = load_config(ROOT / config).system
    rule = (_SelectorOnly(_cmu(cfg)) if policy == "selector"
            else _policy_as_compare_builds_it(config, policy))
    gc.collect()
    gc.disable()
    try:
        for seed in range(5):
            simulate(cfg, rule, horizon=5_000, burn_in=1_000, seed=seed)
        assert gc.collect() == 0
    finally:
        gc.enable()


REFERENCE_CASES = [("configs/fig3.yaml", "whittle"),
                   ("configs/fig3.yaml", "cmu"),
                   ("configs/fig3.yaml", "random"),
                   ("perfbench/heavy-traffic.yaml", "cmu"),
                   ("perfbench/heavy-traffic.yaml", "random"),
                   ("perfbench/heavy-traffic.yaml", "exact")]


@functools.cache
def _joint_solution(config):
    return joint_rvi(load_config(ROOT / config).system)


@functools.cache
def _policy_as_compare_builds_it(config, name):
    """Built once per (config, name): the slot_loop parameters share it."""
    loaded = load_config(ROOT / config)
    system = loaded.system
    if name == "whittle":
        w = loaded.whittle
        table = build_index_table(system, w.x_max,
                                  IndexIterationConfig(tol=w.tol))
        return WhittlePolicy(table, max_state=system.buffer)
    if name == "exact":
        return ExactPolicy(_joint_solution(config))
    return _cmu(system) if name == "cmu" else RandomPolicy(system.num_servers)


@pytest.mark.parametrize("config,name", REFERENCE_CASES)
def test_simulate_reproduces_the_benchmark_reference_reports(config, name,
                                                             slot_loop):
    """Common random numbers: each report is pinned bit for bit."""
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref = ref["sim"][config]
    assert (ref["horizon"], ref["burn_in"]) == (50_000, 10_000)
    loaded = load_config(ROOT / config)
    policy = _policy_as_compare_builds_it(config, name)
    for seed in (0, 21, 42, 63):
        r = simulate(loaded.system, policy, 50_000, 10_000, seed)
        got = [r.avg_cost, list(r.mean_lengths), r.drop_count]
        assert got == ref["reports"][name][str(seed)], (name, seed)


def test_heavy_traffic_optimum_matches_the_benchmark_reference_beta():
    config = "perfbench/heavy-traffic.yaml"
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    beta = _joint_solution(config).beta
    assert abs(beta - ref["joint_rvi_beta"][config]) <= 1e-6


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
        # Student-t at 3 seeds, t(2, 0.975) = 4.3027; z = 1.96 made the
        # half-width 2.2 times too narrow.
        assert vals.std(ddof=1) > 0.0
        assert hw == pytest.approx(4.302652729749462 * vals.std(ddof=1)
                                   / np.sqrt(3), abs=1e-12)


def test_compare_needs_two_seeds_and_distinct_names():
    with pytest.raises(ValueError):
        compare(TWO, [_cmu(TWO)], horizon=100, burn_in=0, seeds=[0])
    with pytest.raises(ValueError):
        compare(TWO, [_cmu(TWO), _cmu(TWO)], horizon=100, burn_in=0,
                seeds=[0, 1])
    with pytest.raises(ValueError):
        compare(TWO, [], horizon=100, burn_in=0, seeds=[0, 1])


# ---------------------------------------------------------------- #
# the random rule against its exact one-queue chains               #
# ---------------------------------------------------------------- #


@pytest.mark.parametrize("config", ["fig3", "fig4", "fig5", "gap"])
def test_random_rule_matches_its_exact_one_queue_chains(config):
    """Seeds 0..9 at the config's own horizon and burn-in: the mean
    cost and every mean length lie within 3 standard errors of the
    exact figures of random_rule_exact."""
    _compiled()
    loaded = load_config(ROOT / f"configs/{config}.yaml")
    cfg, run = loaded.system, loaded.sim
    rule = RandomPolicy(cfg.num_servers)
    got = np.array([[r.avg_cost, *r.mean_lengths] for r in (
        simulate(cfg, rule, run.horizon, run.burn_in, seed)
        for seed in range(10))])
    cost, lengths = random_rule_exact(cfg)
    error = got.std(axis=0, ddof=1) / np.sqrt(len(got))
    z = (got.mean(axis=0) - [cost, *lengths]) / error
    assert np.abs(z).max() <= 3.0, z.tolist()
