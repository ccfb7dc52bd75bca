"""Slotted simulator: sampling, accounting, reproducibility, comparison."""

import numpy as np
import pytest

from psindex import (CmuPolicy, DepartureSampler, IndexTable, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy, compare,
                     departure_pmf, simulate)

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
        cdf = np.cumsum(departure_pmf(x, 0.5).dense(x + 1))
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
        cdf = np.cumsum(departure_pmf(x, q).dense(x + 1)).tolist()
        cdf[-1] = 1.0
        want.append(cdf)
    assert DepartureSampler(q, 100)._cdfs == want


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
def test_departure_sampler_rejects_q_outside_the_unit_interval(q):
    with pytest.raises(ValueError):
        DepartureSampler(q, 5)


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


def test_checkpoints_trace_the_running_average():
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
