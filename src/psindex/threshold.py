"""Recurrent chains induced by single-queue threshold policies.

A threshold policy with parameter k keeps the server active on states
{0, ..., k} and passive above. Started empty, the queue then lives on
{0, ..., k+1}: it can only climb by admitting arrivals, and admissions
stop one step above the threshold. The convention k = -1 means never
active, whose recurrent class is the single state {0}. Every chain is
threshold_rows of model.transition_kernel. stationary_ladder solves
every threshold chain of one kernel at once by cut balance, and
threshold_chains reads from it the one record, over k = -1..K, of the
chains' mean lengths and top masses that every single-queue figure
uses, the never-active rule as its first row. tail_dominance orders
consecutive chains, and stationary_distribution is the general GTH
solve that dp's joint policy chains use.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm

from .model import transition_kernel

STATIONARY_TOL = 1e-10
K_MAX = 60  # optimal_threshold_costs tries the thresholds -1..K_MAX


def threshold_rows(active: np.ndarray, passive: np.ndarray,
                   k: int) -> np.ndarray:
    """Every row of a kernel under threshold k: active iff s <= k."""
    return np.vstack((active[: k + 1], passive[k + 1:]))


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 directly for a stochastic matrix P.

    P must be irreducible on its states, as a threshold chain is for
    q, p in (0,1) and a joint policy chain on its reachable class; the
    solution is then unique. GTH elimination (Grassmann, Taksar &
    Heyman, Oper. Res. 33, 1985) censors the states out from the last:
    each step divides by the mass leaving state k for the states below,
    a sum of non-negative terms, and adds non-negative products, and
    pi is back-substituted from pi(0) = 1. Nothing is subtracted, so
    every entry keeps its relative accuracy however small it is.
    """
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.isfinite(P).all():
        raise ValueError("matrix entries must be finite")
    if (P < 0.0).any() or not np.abs(P.sum(axis=1) - 1.0).max() <= 1e-10:
        raise ValueError("rows must be probability vectors")
    n = len(P)
    a = np.array(P, dtype=float)
    for k in range(n - 1, 0, -1):
        down = a[k, :k].sum()
        if not down > 0.0:
            raise ValueError("malformed chain, stationary solve failed: "
                             f"state {k} leaves for no lower state")
        a[:k, k] /= down
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    if (pi < -STATIONARY_TOL).any():
        raise ValueError("stationary solve produced negative mass")
    pi /= pi.sum()
    if not np.abs(pi @ P - pi).max() <= STATIONARY_TOL:
        raise ValueError("stationary residual exceeds tolerance")
    return pi


def stationary_ladder(active: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Stationary laws of every threshold chain of one kernel over 0..K.

    Column k of the (K+1) x K result is the law of the threshold-k
    chain on {0, ..., k+1}, zero below, for k = 0..K-1. An active row
    climbs at most one state, so only state j crosses the cut between
    {0..j} and {j+1..k+1} upward, and cut balance reads

        pi(j) active[j, j+1] = sum over i > j of pi(i) P(i, <= j),

    row i of P active for i <= k and passive for i = k+1. Fixing
    pi(k+1) = 1, it gives pi(k), ..., pi(0) in turn from sums of
    non-negative terms: GTH (Grassmann, Taksar & Heyman, Oper. Res. 33,
    1985) on a chain that is skip-free upward, with no subtraction, so
    small entries keep their relative accuracy. Every chain shares the
    active rows, so all K are one upper-triangular system.

    Keeps stationary_distribution's guards and messages: finite,
    non-negative rows summing to 1 within 1e-10 on every chain, a
    positive up-step from every active state (the chains' irreducibility),
    no negative mass, and |pi P - pi| <= STATIONARY_TOL on every chain.
    """
    n = len(active) - 1
    act, pas = active[:n], passive[1:]  # row k of pas tops chain k
    if not (np.isfinite(act).all() and np.isfinite(pas).all()):
        raise ValueError("matrix entries must be finite")
    cum_act = np.cumsum(act, axis=1)  # [i, j] = P_active(i, <= j)
    cum_pas = np.cumsum(pas, axis=1)  # [k, j] = P_passive(k+1, <= j)
    # Chain k reads active row j <= k through state k+1, a sum that grows
    # with k from cum_act[j, j+1], and passive row k+1 through k+1.
    states = np.arange(n)
    sums = np.concatenate((cum_act[states, states + 1], cum_act[:, -1],
                           cum_pas[states, states + 1]))
    if ((act < 0.0).any() or (pas < 0.0).any()
            or not np.abs(sums - 1.0).max() <= 1e-10):
        raise ValueError("rows must be probability vectors")
    up = act[states, states + 1]
    if not (up > 0.0).all():
        raise ValueError("malformed chain, stationary solve failed: no "
                         f"up-step from state {np.argmin(up > 0.0)}")
    laws = _cut_balance(up, cum_act, cum_pas)
    if (laws < 0.0).any():
        raise ValueError("stationary solve produced negative mass")
    laws /= laws.sum(axis=0)
    flow = (np.triu(laws[:n]).T @ act
            + np.diagonal(laws, -1)[:, None] * pas)
    if not np.abs(flow - laws.T).max() <= STATIONARY_TOL:
        raise ValueError("stationary residual exceeds tolerance")
    return laws


def _cut_balance(up: np.ndarray, cum_act: np.ndarray,
                 cum_pas: np.ndarray) -> np.ndarray:
    """stationary_ladder's unnormalised laws, pi_k(k+1) scaled from 1.

    Back substitution on T X = B in blocks of rows, bottom first:
    T[j, j] = up[j], T[j, i] = -down[j, i] = -cum_act[i, j] for i > j,
    and column k of B is cum_pas[k, :k+1], zero below. Every row adds
    non-negative terms. Solving row j multiplies a column's mass by at
    most 1 + 1/up[j], so a block takes the rows that keep this bound
    under 2^1000; after each block a column whose mass passed 1 is
    scaled back by a power of two, which is exact.
    """
    n = len(up)
    down = np.triu(cum_act[:, :n].T, 1)
    t = np.diag(up) - down
    x = np.triu(cum_pas.T[:n])
    top = np.ones(n)
    growth = np.cumsum(np.log2(1.0 + 1.0 / up)[::-1])  # bottom rows first
    budget = 1000.0 - np.log2(n + 1.0)
    hi, spent = n, 0.0
    while hi > 0:
        reach = int(np.searchsorted(growth, spent + budget, "right"))
        lo = min(hi - 1, n - reach)
        x[lo:hi] = dtrsm(1.0, t[lo:hi, lo:hi], x[lo:hi])
        mass = x.max(axis=0)
        e = np.where(mass > 1.0, np.frexp(mass)[1], 0)
        x, top = np.ldexp(x, -e), np.ldexp(top, -e)
        x[:lo] += down[:lo, lo:hi] @ x[lo:hi]
        hi, spent = lo, growth[n - lo - 1]
    laws = np.vstack((x, np.zeros(n)))
    laws[np.arange(1, n + 1), np.arange(n)] = top
    return laws


class ThresholdChains(NamedTuple):
    """Figures of the threshold chains k = -1..K of one (q, p).

    Entry k+1 belongs to chain k: mean is its mean queue length L_k and
    top its mass pi_k(k+1) on the one passive state, so 1 - top is the
    active mass. Entry 0 is the never-active rule, whose queue stays at
    0: mean 0 and top 1.
    """
    mean: np.ndarray
    top: np.ndarray


def threshold_chains(q: float, p: float, k_max: int) -> ThresholdChains:
    """The chains k = -1..k_max from one stationary_ladder.

    The ladder runs over transition_kernel(q, p, k_max + 1) and is
    solved afresh on each call.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    laws = stationary_ladder(*transition_kernel(q, p, k_max + 1))
    return ThresholdChains(
        np.concatenate(([0.0], np.arange(k_max + 2) @ laws)),
        np.concatenate(([1.0], np.diagonal(laws, -1))))


def optimal_threshold_costs(lams: np.ndarray, cost_c: float, q: float,
                            p: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimise the threshold average cost over k in {-1, ..., K_MAX}.

    Chain k costs cost_c * L_k + lam * pi_k(k+1) on average, since k+1
    is its only passive recurrent state. A minimum over affine-in-lam
    functions, hence concave and non-decreasing in lam with slope at
    most 1 (the k = -1 line, which costs lam). Returns the best cost
    and its argmin k at every charge in lams, one pass over k: a chain
    beats the best so far only below it by more than 1e-15, so ties go
    to the smaller k.
    """
    chains = threshold_chains(q, p, K_MAX)
    costs = (cost_c * chains.mean[:, None]
             + np.asarray(lams, dtype=float) * chains.top[:, None])
    best, arg = costs[0].copy(), np.full(costs.shape[1], -1)
    for k, c in enumerate(costs[1:]):
        better = c < best - 1e-15
        best[better] = c[better]
        arg[better] = k
    return best, arg


def tail_dominance(active: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Whether chain k+1 dominates chain k, for k = -1..n-2 of one kernel.

    The kernel runs over states 0..n, and entry k+1 holds threshold k.
    Chain k is zero-padded to the k+3 states of chain k+1 and the two
    are compared through the lower-triangular all-ones matrix U:
    (P @ U)[x, j] is the probability of moving from x to a state >= j,
    so P1 U <= P2 U + 1e-12 elementwise says the larger threshold
    pushes every state upward at least as hard. The chains share the
    active rows 0..k, so this comes down to two rows. Row k+1 holds
    passive row k+1 in chain k and active row k+1 in chain k+1: its
    passive tail sums must not exceed the active ones. Row k+2 is zero
    in the padded chain and passive row k+2 in chain k+1, whose tail
    sums must be non-negative. A passive row stops at its own state and
    an active row one above, so the tail sums of whole kernel rows, one
    reverse cumulative sum each, are those of the chains' rows.
    """
    def tails(m):
        return np.cumsum(m[:, ::-1], axis=1)[:, ::-1]
    ptail = tails(passive)
    upper = (ptail[:-1] <= tails(active[:-1]) + 1e-12).all(axis=1)
    lower = (0.0 <= ptail[1:] + 1e-12).all(axis=1)
    return upper & lower
