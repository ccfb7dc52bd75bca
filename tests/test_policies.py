"""Selection rules, one selector class per rule."""

import numpy as np
import pytest

from psindex import (CmuPolicy, ExactPolicy, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     build_index_table, joint_rvi, simulate)
from psindex.policies import _BLOCK


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
