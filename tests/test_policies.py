"""Selection rules, one selector class per rule, and their decision tables."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from psindex import (CmuPolicy, ExactPolicy, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     build_index_table, joint_rvi, simulate)
from psindex import policies
from psindex.cli import load_config
from psindex.policies import _BLOCK

ROOT = Path(__file__).resolve().parent.parent


def _table():
    entries = np.array([[1.0, 4.0, 9.0],
                        [2.0, 3.0, 5.0]])
    return IndexTable(entries=entries, x_max=2)


def _select(policy):
    return policy.selector(np.random.default_rng(0))


def test_whittle_select_picks_smallest_index():
    select = _select(WhittlePolicy(_table()))
    assert select((0, 0)) == 0   # 1.0 < 2.0
    assert select((1, 0)) == 1   # 4.0 > 2.0
    assert select((2, 2)) == 1   # 9.0 > 5.0


def test_whittle_select_breaks_ties_low():
    entries = np.array([[1.0, 2.0], [1.0, 2.0]])
    select = _select(WhittlePolicy(IndexTable(entries=entries, x_max=1)))
    assert select((0, 0)) == 0
    assert select((1, 1)) == 0
    # Past the rows the extrapolating fallback breaks ties low too.
    assert select((5, 5)) == 0


def test_whittle_select_uses_extrapolation_beyond_the_table():
    select = _select(WhittlePolicy(_table()))
    # Row 0 grows faster, so deep states send work to row 1.
    assert select((7, 7)) == 1


def test_cmu_select_frozen_example():
    servers = (ServerParams(q=0.55, cost_c=30.0),
               ServerParams(q=0.50, cost_c=29.0))
    select = _select(CmuPolicy(servers))
    # Scores 30*2/0.55 = 109.09 and 29*1/0.50 = 58.
    assert select((2, 1)) == 1
    assert select((0, 0)) == 0
    assert select((1, 2)) == 0


def test_random_select_is_uniform_and_in_range():
    select = RandomPolicy(3).selector(np.random.default_rng(7))
    draws = [select((0, 0, 0)) for _ in range(3000)]
    assert set(draws) == {0, 1, 2}
    counts = np.bincount(draws)
    assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)


def test_exact_select_reads_the_joint_policy(two_server_tiny):
    sol = joint_rvi(two_server_tiny)
    select = _select(ExactPolicy(sol))
    for a in range(2):
        for b in range(2):
            assert select((a, b)) == int(sol.policy[a, b])


def test_whittle_policy_fallback_matches_dense_rows():
    # Rows sized to x_max = 2 send most of the grid through the
    # extrapolating fallback; rows dense to 9 never use it.
    table = _table()
    short = _select(WhittlePolicy(table))
    dense = _select(WhittlePolicy(table, max_state=9))
    for a in range(10):
        for b in range(10):
            assert short((a, b)) == dense((a, b))


def test_whittle_policy_extrapolates_past_its_rows():
    # Queues outgrow x_max = 1 at once; rows sized to x_max alone used to
    # raise IndexError there.
    cfg = SystemConfig(arrival_p=0.6,
                       servers=(ServerParams(q=0.7, cost_c=1.0),
                                ServerParams(q=0.65, cost_c=1.0)),
                       buffer=60)
    table = build_index_table(cfg, x_max=1)
    short = simulate(cfg, WhittlePolicy(table), horizon=20_000, burn_in=1000)
    dense = simulate(cfg, WhittlePolicy(table, max_state=cfg.buffer),
                     horizon=20_000, burn_in=1000)
    assert short == dense


def test_cmu_policy_matches_score_argmin():
    servers = (ServerParams(q=0.55, cost_c=30.0),
               ServerParams(q=0.50, cost_c=29.0))
    select = _select(CmuPolicy(servers))
    for a in range(6):
        for b in range(6):
            scores = [s.cost_c * x / s.q for s, x in zip(servers, (a, b))]
            assert select((a, b)) == scores.index(min(scores))


def test_random_policy_draws_from_its_own_stream():
    policy = RandomPolicy(num_servers=4)
    s1 = policy.selector(np.random.default_rng(3))
    s2 = policy.selector(np.random.default_rng(3))
    seq1 = [s1((0, 0, 0, 0)) for _ in range(50)]
    seq2 = [s2((0, 0, 0, 0)) for _ in range(50)]
    assert seq1 == seq2
    assert set(seq1) <= {0, 1, 2, 3}


@pytest.mark.parametrize("n", range(1, 9))
def test_random_policy_blocks_equal_scalar_draws(n):
    # The selector pre-draws _BLOCK selections per generator call; the
    # common random numbers need them to be the scalar stream.
    count = 5 * _BLOCK // 2 + 7
    select = RandomPolicy(n).selector(np.random.default_rng(40 + n))
    blocked = [select((0,) * n) for _ in range(count)]
    rng = np.random.default_rng(40 + n)
    assert blocked == [int(rng.integers(n)) for _ in range(count)]


def test_policy_names_are_distinct():
    names = {WhittlePolicy.name, CmuPolicy.name, RandomPolicy.name,
             ExactPolicy.name}
    assert names == {"whittle", "cmu", "random", "exact"}


# ---------------------------------------------------------------- #
# decision tables                                                  #
# ---------------------------------------------------------------- #


def _bank(num, buffer, weights=(30.0, 29.0, 28.0), qs=(0.55, 0.5, 0.45)):
    return SystemConfig(arrival_p=0.4,
                        servers=tuple(ServerParams(q=q, cost_c=c)
                                      for q, c in zip(qs[:num],
                                                      weights[:num])),
                        buffer=buffer)


def _assert_table_is_the_selector(policy, cfg):
    """Byte k equals the selector in the k-th state of C-order enumeration."""
    dec = policy.decisions(cfg)
    assert isinstance(dec, bytes)
    assert len(dec) == (cfg.buffer + 1) ** cfg.num_servers
    select = _select(policy)
    states = itertools.product(range(cfg.buffer + 1), repeat=cfg.num_servers)
    got = list(dec)
    want = [select(list(state)) for state in states]
    assert got == want


def _table_cases():
    two = _bank(2, 6)
    three = _bank(3, 4)
    # Row 0 climbs fastest, so states past x_max = 2 flip to the others.
    steep = IndexTable(entries=np.array([[0.0, 2.0, 7.0],
                                         [0.5, 1.5, 3.0],
                                         [0.5, 2.5, 3.5]]), x_max=2)
    # Equal rows and rows equal in places: every tie goes low.
    tied = IndexTable(entries=np.array([[1.0, 2.0, 3.0],
                                        [1.0, 2.0, 3.0],
                                        [0.5, 2.0, 4.0]]), x_max=2)
    built = build_index_table(three, x_max=3)
    cases = []
    for cfg in (two, three):
        n = cfg.num_servers
        for table in (steep, tied, built):
            sub = IndexTable(entries=table.entries[:n].copy(),
                             x_max=table.x_max)
            cases.append((WhittlePolicy(sub), cfg))
            cases.append((WhittlePolicy(sub, max_state=cfg.buffer), cfg))
        cases.append((CmuPolicy(cfg.servers), cfg))
        # Equal c/q on every server: the score ties whenever lengths do.
        equal = _bank(n, cfg.buffer, weights=(5.5, 5.0, 4.5))
        cases.append((CmuPolicy(equal.servers), equal))
        cases.append((ExactPolicy(joint_rvi(cfg)), cfg))
    return cases


@pytest.mark.parametrize("case", range(len(_table_cases())))
def test_decisions_equal_the_selector_on_every_state(case):
    policy, cfg = _table_cases()[case]
    _assert_table_is_the_selector(policy, cfg)


def test_tied_tables_send_ties_to_the_lowest_server():
    table = IndexTable(entries=np.array([[1.0, 2.0], [1.0, 2.0]]), x_max=1)
    dec = WhittlePolicy(table).decisions(_bank(2, 3))
    assert dec[0] == 0                 # (0, 0)
    assert dec[1 * 4 + 1] == 0         # (1, 1)
    assert dec[3 * 4 + 3] == 0         # (3, 3), past x_max
    assert dec[1 * 4 + 0] == 1         # (1, 0)
    assert dec[0 * 4 + 1] == 0         # (0, 1)
    cmu = CmuPolicy(_bank(2, 3, weights=(5.5, 5.0)).servers)
    assert cmu.decisions(_bank(2, 3)) == bytes(
        0 if a <= b else 1 for a in range(4) for b in range(4))


def test_decisions_equal_the_selector_on_sampled_fig3_states():
    loaded = load_config(ROOT / "configs" / "fig3.yaml")
    cfg = loaded.system
    table = build_index_table(cfg, loaded.whittle.x_max)
    rng = np.random.default_rng(2017)
    # Uniform states, plus short queues where ties and x_max sit.
    states = np.vstack([rng.integers(cfg.buffer + 1, size=(10_000, 3)),
                        rng.integers(12, size=(10_000, 3))])
    codes = np.ravel_multi_index(states.T, (cfg.buffer + 1,) * 3)
    for policy in (WhittlePolicy(table, max_state=cfg.buffer),
                   WhittlePolicy(table), CmuPolicy(cfg.servers)):
        dec = policy.decisions(cfg)
        select = _select(policy)
        got = [dec[k] for k in codes.tolist()]
        assert got == [select(s) for s in states.tolist()]


def test_decisions_are_built_once_per_grid():
    cfg = _bank(2, 6)
    policy = CmuPolicy(cfg.servers)
    first = policy.decisions(cfg)
    assert policy.decisions(cfg) is first
    wider = policy.decisions(_bank(2, 7))
    assert len(wider) == 64
    assert policy.decisions(cfg) == first


def test_random_policy_has_no_decision_table():
    assert not hasattr(RandomPolicy(2), "decisions")


def test_grids_above_the_state_limit_get_no_table(monkeypatch):
    # 7**2 = 49 states; a limit of 48 leaves the selector in charge.
    cfg = _bank(2, 6)
    monkeypatch.setattr(policies, "DECISION_STATE_LIMIT", 48)
    assert CmuPolicy(cfg.servers).decisions(cfg) is None
    assert ExactPolicy(joint_rvi(cfg)).decisions(cfg) is None
    monkeypatch.setattr(policies, "DECISION_STATE_LIMIT", 49)
    assert CmuPolicy(cfg.servers).decisions(cfg) is not None
    monkeypatch.undo()
    # The real limit: 2049**2 states is above 1 << 22 = 2048**2.
    big = _bank(2, 2048)
    assert CmuPolicy(big.servers).decisions(big) is None
    assert len(CmuPolicy(big.servers).decisions(_bank(2, 2047))) == 1 << 22


def test_decisions_need_a_policy_that_fits_the_grid():
    cfg = _bank(2, 4)
    solution = joint_rvi(cfg)
    assert ExactPolicy(solution).decisions(_bank(2, 5)) is None
    assert CmuPolicy(cfg.servers).decisions(_bank(3, 4)) is None
    table = IndexTable(entries=np.array([[1.0, 2.0]]), x_max=1)
    assert WhittlePolicy(table).decisions(cfg) is None


def test_fig3_whittle_table_build_stays_small():
    # One byte per state (1 MiB at 101**3), built without a full-grid
    # float array: a 3 x 101**3 float64 stack alone would be 24 MiB.
    loaded = load_config(ROOT / "configs" / "fig3.yaml")
    cfg = loaded.system
    policy = WhittlePolicy(build_index_table(cfg, loaded.whittle.x_max),
                           max_state=cfg.buffer)
    tracemalloc.start()
    try:
        dec = policy.decisions(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec) == 101 ** 3
    assert peak < 4 * 2 ** 20
