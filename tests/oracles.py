"""Test-only oracles: the enumeration benchmark and the general GTH solve.

brute_force_policy_search enumerates every stationary server
assignment of a small bank and keeps the best, the independent check
on joint_rvi. Each fixed policy's joint chain is a Kronecker product of
model.transition_kernel matrices (_policy_chain), solved on its class
reachable from all-empty by stationary_distribution, the general GTH
solve that threshold.stationary_ladder specialises to skip-free
threshold chains.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from psindex import SystemConfig, transition_kernel
from psindex.threshold import STATIONARY_TOL


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


@dataclass(frozen=True)
class BruteForceResult:
    best_policy: dict
    best_beta: float
    evaluations: tuple  # (policy assignment, beta) per enumerated policy
    states: tuple


def _policy_chain(cfg: SystemConfig, policy):
    """Joint one-slot matrix of a fixed policy and its reachable class.

    Returns the states in np.ndindex order, the matrix whose row s is
    the product law under action policy[s], and the mask of states
    reachable from all-empty (the first state). The matrix for action
    i is the Kronecker product of the per-server kernels, active at
    i and passive elsewhere, whose row-major order is np.ndindex's.
    """
    kernels = [transition_kernel(s.q, cfg.arrival_p, cfg.buffer)
               for s in cfg.servers]
    states = list(np.ndindex(*(cfg.buffer + 1,) * cfg.num_servers))
    action = np.array([policy[s] for s in states])
    if not np.isin(action, np.arange(cfg.num_servers)).all():
        raise ValueError("policy actions must be server indices "
                         f"0..{cfg.num_servers - 1}")
    pmat = np.empty((len(states), len(states)))
    for i in range(cfg.num_servers):
        rows = action == i
        pmat[rows] = functools.reduce(
            np.kron, [pa if j == i else pb
                      for j, (pa, pb) in enumerate(kernels)])[rows]
    reach = np.zeros(len(states), dtype=bool)
    reach[0] = True
    while True:
        grown = reach | (pmat[reach] > 0.0).any(axis=0)
        if np.array_equal(grown, reach):
            return states, pmat, reach
        reach = grown


def policy_reachable_states(cfg: SystemConfig, policy) -> tuple:
    """States reachable from all-empty under a fixed policy.

    They form the policy's single recurrent class, since every queue
    can always drain back to empty. Actions outside this set cannot
    influence the average cost.
    """
    states, _, reach = _policy_chain(cfg, policy)
    return tuple(s for s, r in zip(states, reach) if r)


def joint_policy_average_cost(cfg: SystemConfig, policy) -> float:
    """Average holding cost of a fixed stationary policy, started empty.

    `policy` maps each joint state tuple to the active server. Only the
    states reachable from all-empty matter; they form one recurrent
    class because every queue can always drain, and
    stationary_distribution solves it under its guards.
    """
    states, pmat, reach = _policy_chain(cfg, policy)
    pi = stationary_distribution(pmat[np.ix_(reach, reach)])
    holding = np.array([sum(s.cost_c * x for s, x in zip(cfg.servers, st))
                        for st, r in zip(states, reach) if r])
    return float(pi @ holding)


def brute_force_policy_search(cfg: SystemConfig) -> BruteForceResult:
    """Enumerate every stationary server assignment and keep the best.

    The policy space has num_servers ** num_states members; anything
    beyond 100 000 is refused with the size spelled out. Ties on
    average cost keep the first policy in lexicographic order, which
    prefers lower server indices.
    """
    states = tuple(itertools.product(range(cfg.buffer + 1),
                                     repeat=cfg.num_servers))
    count, limit = cfg.num_servers ** len(states), 100_000
    if count > limit:
        raise ValueError(
            f"refusing to enumerate {cfg.num_servers}**{len(states)} = "
            f"{count} policies (limit {limit})")
    best_beta, best_assign, evaluations = np.inf, None, []
    for assign in itertools.product(range(cfg.num_servers),
                                    repeat=len(states)):
        beta = joint_policy_average_cost(cfg, dict(zip(states, assign)))
        evaluations.append((assign, beta))
        if beta < best_beta - 1e-12:
            best_beta, best_assign = beta, assign
    return BruteForceResult(best_policy=dict(zip(states, best_assign)),
                            best_beta=float(best_beta),
                            evaluations=tuple(evaluations),
                            states=states)
