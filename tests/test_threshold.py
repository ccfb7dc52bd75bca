"""Threshold-policy chains: stationary laws, costs, dominance."""

import numpy as np
import pytest

from psindex import (ServerParams, cumulative_active_mass, dominance_check,
                     optimal_threshold_cost, stationary_distribution,
                     threshold_average_cost, threshold_chain)
from psindex.whittle import _FixedThresholdSystem

from conftest import binom_row, power_stationary

PAIRS = ((0.5, 0.4), (0.55, 0.4), (0.95, 0.4), (0.45, 0.3), (0.2, 0.1))
GRID = [(k, q, p) for k in (0, 1, 3, 7, 15) for q, p in PAIRS]


def _per_row_chain(k, q, p):
    """Threshold-k chain assembled one binom_row at a time."""
    return np.vstack([binom_row(s, q, p, s <= k, k + 1)
                      for s in range(k + 2)])


def test_threshold_chain_frozen_matrix():
    chain = threshold_chain(0, 0.5, 0.4)
    assert np.allclose(chain, [[0.6, 0.4], [0.5, 0.5]], atol=1e-15)
    assert not chain.flags.writeable


@pytest.mark.parametrize("q,p", PAIRS + ((0.9, 0.5), (0.3, 0.8)))
def test_threshold_chain_matches_the_per_row_assembly(q, p):
    for k in range(0, 41):
        chain = threshold_chain(k, q, p)
        assert np.max(np.abs(chain - _per_row_chain(k, q, p))) <= 1e-15


def test_threshold_chain_rejects_negative_k():
    with pytest.raises(ValueError):
        threshold_chain(-1, 0.5, 0.4)


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
    """The value system's transition block is threshold_chain(x), bit
    for bit: a holds I - P there."""
    q, p = 0.55, 0.4
    system = _FixedThresholdSystem(ServerParams(q=q, cost_c=1.0), p, x, x + 1)
    block = system._a[: x + 2, : x + 2]
    assert np.array_equal(block, np.eye(x + 2) - threshold_chain(x, q, p))


def test_stationary_distribution_frozen():
    pi = stationary_distribution(threshold_chain(0, 0.5, 0.4))
    assert np.allclose(pi, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)


@pytest.mark.parametrize("k,q,p", GRID)
def test_stationary_distribution_matches_power_iteration(k, q, p):
    chain = threshold_chain(k, q, p)
    pi = stationary_distribution(chain)
    ref = power_stationary(chain)
    assert np.allclose(pi, ref, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_cumulative_active_mass_frozen():
    assert cumulative_active_mass(0, 0.5, 0.4) == pytest.approx(5.0 / 9.0,
                                                                abs=1e-12)


@pytest.mark.parametrize("q,p", [(0.5, 0.4), (0.55, 0.4), (0.9, 0.5),
                                 (0.3, 0.2)])
def test_cumulative_active_mass_monotone_in_k(q, p):
    masses = [cumulative_active_mass(k, q, p) for k in range(0, 25)]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_threshold_average_cost_frozen():
    assert threshold_average_cost(0, 0.0, 1.0, 0.5, 0.4) == pytest.approx(
        4.0 / 9.0, abs=1e-12)
    assert threshold_average_cost(0, 1.0, 1.0, 0.5, 0.4) == pytest.approx(
        8.0 / 9.0, abs=1e-12)
    assert threshold_average_cost(-1, -3.0, 1.0, 0.5, 0.4) == -3.0


@pytest.mark.parametrize("k,q,p", GRID)
def test_threshold_average_cost_matches_direct_expectation(k, q, p):
    """Cross-check against an explicitly assembled stationary expectation."""
    lam, cost_c = 1.7, 3.0
    pi = power_stationary(threshold_chain(k, q, p))
    states = np.arange(k + 2)
    want = cost_c * float(states @ pi) + lam * float(pi[k + 1])
    got = threshold_average_cost(k, lam, cost_c, q, p)
    assert got == pytest.approx(want, abs=1e-10)


def test_optimal_threshold_cost_is_the_explicit_minimum():
    for lam in np.arange(-4.0, 12.0, 0.8):
        cost, k = optimal_threshold_cost(float(lam), 1.0, 0.5, 0.4, 30)
        explicit = [float(lam)] + [
            threshold_average_cost(j, float(lam), 1.0, 0.5, 0.4)
            for j in range(0, 31)]
        assert cost == pytest.approx(min(explicit), abs=1e-12)
        # Ties resolve to the smallest k: nothing below k may match it.
        for j in range(-1, k):
            below = (float(lam) if j == -1
                     else threshold_average_cost(j, float(lam), 1.0, 0.5, 0.4))
            assert below > cost - 1e-15


def test_negative_charge_prefers_staying_passive():
    cost, k = optimal_threshold_cost(-5.0, 1.0, 0.5, 0.4)
    assert (cost, k) == (-5.0, -1)


@pytest.mark.parametrize("k,q,p", GRID)
def test_dominance_check_holds_on_grid(k, q, p):
    assert dominance_check(k, q, p)


@pytest.mark.parametrize("q,p", PAIRS)
def test_dominance_check_matches_two_separate_chains(q, p):
    for k in range(0, 20):
        lo = np.zeros((k + 3, k + 3))
        lo[: k + 2, : k + 2] = threshold_chain(k, q, p)
        hi = threshold_chain(k + 1, q, p)
        up = np.tril(np.ones((k + 3, k + 3)))
        want = bool(np.all(lo @ up <= hi @ up + 1e-12))
        assert dominance_check(k, q, p) == want


@pytest.mark.parametrize("q,p", [(0.5, 0.4), (0.55, 0.4), (0.9, 0.5)])
def test_raising_threshold_lifts_stationary_tails(q, p):
    """Stationary consequence of the kernel dominance.

    If every row of the threshold-k kernel is stochastically below the
    threshold-(k+1) kernel, the stationary laws inherit the ordering:
    the tail mass P(X >= j) never shrinks when the threshold grows.
    """
    for k in range(0, 12):
        lo = stationary_distribution(threshold_chain(k, q, p))
        hi = stationary_distribution(threshold_chain(k + 1, q, p))
        lo_pad = np.zeros(k + 3)
        lo_pad[: k + 2] = lo
        tail_lo = lo_pad[::-1].cumsum()[::-1]
        tail_hi = hi[::-1].cumsum()[::-1]
        assert np.all(tail_lo <= tail_hi + 1e-12)
