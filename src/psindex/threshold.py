"""Recurrent chains induced by single-queue threshold policies.

A threshold policy with parameter k keeps the server active on states
{0, ..., k} and passive above. Started empty, the queue then lives on
{0, ..., k+1}: it can only climb by admitting arrivals, and admissions
stop one step above the threshold. The convention k = -1 means never
active, whose recurrent class is the single state {0}. Every chain is
threshold_rows of model.transition_kernel, and stationary_distribution
is the stationary solve of every chain, dp's joint policy chains too.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import transition_kernel

STATIONARY_TOL = 1e-10


def threshold_rows(active: np.ndarray, passive: np.ndarray,
                   k: int) -> np.ndarray:
    """Every row of a kernel under threshold k: active iff s <= k."""
    return np.vstack((active[: k + 1], passive[k + 1:]))


def _chain_block(active: np.ndarray, passive: np.ndarray,
                 k: int) -> np.ndarray:
    """The threshold-k chain on {0, ..., k+1} from a kernel over 0..n.

    Exact for every n >= k+1: active rows s <= k never reach a state
    above k+1, the clamp at n touches active row n only, and from state
    k+1 the server is passive, so the chain cannot leave the class
    upward. A sweep over k can thus slice one kernel per (q, p).
    """
    return threshold_rows(active[: k + 2, : k + 2],
                          passive[: k + 2, : k + 2], k)


def threshold_chain(k: int, q: float, p: float) -> np.ndarray:
    """The read-only chain on {0, ..., k+1} for threshold k >= 0.

    Row s is the one-slot law with the server active iff s <= k, read
    off transition_kernel(q, p, k+1) by _chain_block.
    """
    if k < 0:
        raise ValueError("threshold_chain needs k >= 0; k = -1 has the "
                         "trivial class {0}")
    chain = _chain_block(*transition_kernel(q, p, k + 1), k)
    chain.setflags(write=False)
    return chain


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 directly for a stochastic matrix P.

    P must be irreducible on its states, as a threshold chain is for
    q, p in (0,1) and a joint policy chain on its reachable class; the
    linear system then has a unique solution.
    """
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.isfinite(P).all():
        raise ValueError("matrix entries must be finite")
    if (P < 0.0).any() or not np.abs(P.sum(axis=1) - 1.0).max() <= 1e-10:
        raise ValueError("rows must be probability vectors")
    n = len(P)
    A = P.T.copy()
    A.ravel()[:: n + 1] -= 1.0  # P^T - I
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"malformed chain, stationary solve failed: {e}")
    if (pi < -STATIONARY_TOL).any():
        raise ValueError("stationary solve produced negative mass")
    pi = pi.clip(0.0, None)
    pi /= pi.sum()
    if not np.abs(pi @ P - pi).max() <= STATIONARY_TOL:
        raise ValueError("stationary residual exceeds tolerance")
    return pi


@lru_cache(maxsize=16384)
def _chain_stats(k: int, q: float, p: float) -> tuple[float, float]:
    """(mean queue length, mass of the top state k+1) under threshold k."""
    if k == -1:
        return 0.0, 0.0
    pi = stationary_distribution(threshold_chain(k, q, p))
    mean_len = float(np.arange(k + 2) @ pi)
    return mean_len, float(pi[k + 1])


def cumulative_active_mass(k: int, q: float, p: float) -> float:
    """Stationary probability of the active states {0, ..., k}.

    Equals 1 - pi(k+1); it is non-decreasing in k, which is the
    stationary-mass monotonicity behind index monotonicity.
    """
    _, top = _chain_stats(k, q, p)
    return 1.0 - top


def threshold_average_cost(k: int, lam: float, cost_c: float, q: float,
                           p: float) -> float:
    """Long-run average cost of threshold k with passivity charge lam.

    The only passive recurrent state is k+1, so the cost decomposes as
    cost_c * E[length] + lam * pi(k+1). For k = -1 the queue stays
    empty and pays lam every slot.
    """
    if k == -1:
        return float(lam)
    mean_len, top = _chain_stats(k, q, p)
    return cost_c * mean_len + lam * top


def optimal_threshold_cost(lam: float, cost_c: float, q: float, p: float,
                           k_max: int = 60) -> tuple[float, int]:
    """Minimise the threshold average cost over k in {-1, ..., k_max}.

    A minimum over affine-in-lam functions, hence concave and
    non-decreasing in lam with slope at most 1 (the k = -1 line).
    Returns (best cost, argmin k); ties go to the smaller k.
    """
    best_cost, best_k = float(lam), -1
    for k in range(0, k_max + 1):
        c = threshold_average_cost(k, lam, cost_c, q, p)
        if c < best_cost - 1e-15:
            best_cost, best_k = c, k
    return best_cost, best_k


def dominance_check(k: int, q: float, p: float) -> bool:
    """Certify that raising the threshold enlarges the queue stochastically.

    Embeds the threshold-k chain in the (k+3)-state space of the
    threshold-(k+1) chain by zero-padding the unreachable top row, and
    compares cumulative transition mass through the lower-triangular
    all-ones matrix U: (P @ U)[x, j] is the probability of moving from
    x to a state >= j, so P1 U <= P2 U elementwise says the larger
    threshold pushes every state upward at least as hard. Both chains
    are slices of one transition_kernel(q, p, k+2).
    """
    m = k + 3
    return _dominated(*transition_kernel(q, p, k + 2), k,
                      np.tril(np.ones((m, m))))


def _dominated(active: np.ndarray, passive: np.ndarray, k: int,
               u: np.ndarray) -> bool:
    """dominance_check's comparison on a kernel over 0..n, n >= k+2.

    u is the (k+3) x (k+3) matrix U, so a sweep over k can build each
    kernel and each U once.
    """
    m = k + 3
    p1_pad = np.zeros((m, m))
    p1_pad[: k + 2, : k + 2] = _chain_block(active, passive, k)
    p2 = _chain_block(active, passive, k + 1)
    return bool((p1_pad @ u <= p2 @ u + 1e-12).all())
