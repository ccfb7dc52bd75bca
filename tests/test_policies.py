"""Selection rules and their simulator-facing policy wrappers."""

import numpy as np
import pytest

from psindex import (CmuPolicy, ExactPolicy, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     build_index_table, cmu_select, exact_select, joint_rvi,
                     random_select, simulate, whittle_select)
from psindex.policies import _BLOCK


def _table():
    entries = np.array([[1.0, 4.0, 9.0],
                        [2.0, 3.0, 5.0]])
    return IndexTable(entries=entries, x_max=2)


def test_whittle_select_picks_smallest_index():
    table = _table()
    assert whittle_select((0, 0), table) == 0   # 1.0 < 2.0
    assert whittle_select((1, 0), table) == 1   # 4.0 > 2.0
    assert whittle_select((2, 2), table) == 1   # 9.0 > 5.0


def test_whittle_select_breaks_ties_low():
    entries = np.array([[1.0, 2.0], [1.0, 2.0]])
    table = IndexTable(entries=entries, x_max=1)
    assert whittle_select((0, 0), table) == 0
    assert whittle_select((1, 1), table) == 0


def test_whittle_select_uses_extrapolation_beyond_the_table():
    table = _table()
    # Row 0 grows faster, so deep states send work to row 1.
    assert whittle_select((7, 7), table) == 1


def test_cmu_select_frozen_example():
    servers = (ServerParams(q=0.55, cost_c=30.0),
               ServerParams(q=0.50, cost_c=29.0))
    # Scores 30*2/0.55 = 109.09 and 29*1/0.50 = 58.
    assert cmu_select((2, 1), servers) == 1
    assert cmu_select((0, 0), servers) == 0
    assert cmu_select((1, 2), servers) == 0


def test_random_select_is_uniform_and_in_range():
    rng = np.random.default_rng(7)
    draws = [random_select(rng, 3) for _ in range(3000)]
    assert set(draws) == {0, 1, 2}
    counts = np.bincount(draws)
    assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)


def test_exact_select_reads_the_joint_policy(two_server_tiny):
    sol = joint_rvi(two_server_tiny)
    for a in range(2):
        for b in range(2):
            assert exact_select((a, b), sol) == int(sol.policy[a, b])


@pytest.mark.parametrize("cls,ref", [
    (WhittlePolicy, whittle_select),
])
def test_whittle_policy_wrapper_matches_free_function(cls, ref):
    table = _table()
    policy = cls(table, max_state=9)
    select = policy.selector(np.random.default_rng(0))
    for a in range(10):
        for b in range(10):
            assert select((a, b)) == ref((a, b), table)


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


def test_cmu_policy_wrapper_matches_free_function():
    servers = (ServerParams(q=0.55, cost_c=30.0),
               ServerParams(q=0.50, cost_c=29.0))
    select = CmuPolicy(servers).selector(np.random.default_rng(0))
    for a in range(6):
        for b in range(6):
            assert select((a, b)) == cmu_select((a, b), servers)


def test_exact_policy_wrapper_matches_free_function(two_server_tiny):
    sol = joint_rvi(two_server_tiny)
    select = ExactPolicy(sol).selector(np.random.default_rng(0))
    for a in range(2):
        for b in range(2):
            assert select((a, b)) == exact_select((a, b), sol)


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
    rng = np.random.default_rng(40 + n)
    assert blocked == [random_select(rng, n) for _ in range(count)]


def test_policy_names_are_distinct():
    names = {WhittlePolicy.name, CmuPolicy.name, RandomPolicy.name,
             ExactPolicy.name}
    assert names == {"whittle", "cmu", "random", "exact"}
