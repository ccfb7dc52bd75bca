"""Average-cost dynamic programming for single queues and server banks.

single_queue_rvi solves the one-queue problem with a passivity charge
and exposes the greedy policy, whose active set should be a downward
closed interval (threshold structure); it reads
model.transition_kernel, and the admission-gain profile its passive
half. joint_rvi solves the full bank on the product state space and is
the exact benchmark the index policy is measured against;
brute_force_policy_search cross-checks it by sheer enumeration on
spaces small enough to afford that.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConvergenceError, ServerParams, SystemConfig, \
    passive_kernel, transition_kernel
from .threshold import stationary_distribution

# ---------------------------------------------------------------- #
# single queue                                                     #
# ---------------------------------------------------------------- #


@dataclass(frozen=True)
class SingleQueueSolution:
    lam: float
    n: int
    v: np.ndarray
    beta: float
    policy: np.ndarray  # True where the greedy action is active
    sweeps: int
    span: float

    def __post_init__(self):
        self.v.setflags(write=False)
        self.policy.setflags(write=False)


def single_queue_rvi(lam: float, server: ServerParams, arrival_p: float,
                     n: int, tol: float = 1e-9, max_sweeps: int = 100_000,
                     v_init: np.ndarray | None = None) -> SingleQueueSolution:
    """Relative value iteration for one queue under charge lam.

    Jacobi sweeps with normalisation at state 0, stopping when the span
    of the update difference drops below tol; the average cost is the
    midpoint of that difference's range. The greedy tie at equal action
    values goes to active.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < tol < np.inf):
        raise ValueError("tol must be positive and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    q, p, c = server.q, arrival_p, server.cost_c
    m = n + 1
    pa, pb = transition_kernel(q, p, n)
    xs = np.arange(m, dtype=np.float64)
    cost_a = c * xs
    cost_p = c * xs + lam

    v = np.zeros(m) if v_init is None else np.array(v_init, dtype=np.float64)
    for sweep in range(1, max_sweeps + 1):
        tv = np.minimum(cost_a + pa @ v, cost_p + pb @ v)
        diff = tv - v
        span = float(diff.max() - diff.min())
        v = tv - tv[0]
        if span <= tol:
            beta = float(0.5 * (diff.max() + diff.min()))
            qa = cost_a + pa @ v
            qp = cost_p + pb @ v
            return SingleQueueSolution(lam=lam, n=n, v=v, beta=beta,
                                       policy=qa <= qp, sweeps=sweep,
                                       span=span)
        if not math.isfinite(span):  # NaN never passes span <= tol
            raise ConvergenceError(
                f"relative value iteration span is {span!r} at sweep "
                f"{sweep}: the values are no longer finite", residual=span)
    raise ConvergenceError(
        f"relative value iteration did not reach span {tol:g} within "
        f"{max_sweeps} sweeps (last span {span:.3e})", residual=span)


def active_interval(policy: np.ndarray, upto: int | None = None
                    ) -> tuple[int, bool]:
    """Largest active state and whether the active set is {0, ..., k}.

    Truncation can distort the greedy action near the cut, so callers
    usually restrict the check to states <= n/2 via `upto`.
    """
    view = policy if upto is None else policy[: upto + 1]
    idx = np.flatnonzero(view)
    if idx.size == 0:
        return -1, True
    k = int(idx[-1])
    return k, bool(idx.size == k + 1 and idx[0] == 0)


def admission_gain_profile(v: np.ndarray, q: float, p: float) -> np.ndarray:
    """Expected value increase caused by one admitted arrival.

    Entry i is p * E[V(x+1-D) - V(x-D)] at x = i + 1, the quantity whose
    monotonicity in x makes the greedy active set an interval. Defined
    for x = 1..n-1 so the shifted argument stays inside the truncation.
    Passive row x of the kernel is the law of x - D, so the profile is
    one product with the increments of v.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    n = len(v) - 1
    return p * (passive_kernel(q, n)[1:n, :n] @ np.diff(v))


# ---------------------------------------------------------------- #
# server bank                                                      #
# ---------------------------------------------------------------- #


@dataclass(frozen=True)
class JointSolution:
    v: np.ndarray       # shape (buffer+1,) * num_servers, v[reference] = 0
    beta: float
    policy: np.ndarray  # same shape, entries in 0..num_servers-1
    reference: tuple[int, ...]
    sweeps: int
    span: float

    def __post_init__(self):
        self.v.setflags(write=False)
        self.policy.setflags(write=False)


def _per_server_operators(cfg: SystemConfig):
    return [transition_kernel(s.q, cfg.arrival_p, cfg.buffer)
            for s in cfg.servers]


def _expected_values(v: np.ndarray, ops) -> list[np.ndarray]:
    """E^i[V | state] for each candidate active server i, one matmul
    per server on a reshaped view of the C-contiguous V."""
    n, last = v.shape[0], v.ndim - 1
    outs = []
    for i in range(len(ops)):
        w = v
        for j, (pa, pb) in enumerate(ops):
            k = pa if j == i else pb
            w = (w.reshape(-1, n) @ k.T if j == last
                 else np.matmul(k, w.reshape(n ** j, n, -1)))
        outs.append(w.reshape(v.shape))
    return outs


def joint_rvi(cfg: SystemConfig, tol: float = 1e-9,
              max_sweeps: int = 200_000) -> JointSolution:
    """Optimal average cost for the whole bank by relative value iteration.

    Synchronous sweeps of V <- cost + min_i E^i[V] - V[ref]; at the fixed
    point V[ref] (all empty) is the optimal average cost. Ties go to the
    lowest server index. Exponential in the server count: heavy-traffic's
    10 201 states take ~3 360 sweeps, 1.0 s on a 2-core VM. tol is
    absolute; |V| reaches 1.7e6 there, where 1e-9 is 4 ulps, so reordered
    arithmetic (BLAS build, threads) moves the sweep count by a few.
    """
    if not (0.0 < tol < np.inf):
        raise ValueError("tol must be positive and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    ref = (0,) * cfg.num_servers
    shape = (cfg.buffer + 1,) * cfg.num_servers
    cost = sum(s.cost_c * g for s, g in zip(cfg.servers, np.indices(shape)))
    ops = _per_server_operators(cfg)

    v = np.zeros(shape)
    for sweep in range(1, max_sweeps + 1):
        tv = functools.reduce(np.minimum, _expected_values(v, ops))
        tv += cost
        tv -= v[ref]
        span = float(np.ptp(tv - v))
        v = tv
        if span <= tol:
            beta = float(v[ref])
            policy = np.argmin(np.stack(_expected_values(v, ops)), axis=0)
            return JointSolution(v=v - v[ref], beta=beta,
                                 policy=policy.astype(np.int64),
                                 reference=ref, sweeps=sweep, span=span)
        if not math.isfinite(span):  # NaN never passes span <= tol
            raise ConvergenceError(
                f"joint relative value iteration span is {span!r} at sweep "
                f"{sweep}: the values are no longer finite", residual=span)
    raise ConvergenceError(
        f"joint relative value iteration did not reach span {tol:g} within "
        f"{max_sweeps} sweeps (last span {span:.3e})", residual=span)


# ---------------------------------------------------------------- #
# enumeration benchmark                                            #
# ---------------------------------------------------------------- #


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
    i is the Kronecker product of the per-server operators, active at
    i and passive elsewhere, whose row-major order is np.ndindex's.
    """
    ops = _per_server_operators(cfg)
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
                      for j, (pa, pb) in enumerate(ops)])[rows]
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
    threshold.stationary_distribution solves it under its guards.
    """
    states, pmat, reach = _policy_chain(cfg, policy)
    pi = stationary_distribution(pmat[np.ix_(reach, reach)])
    holding = np.array([sum(s.cost_c * x for s, x in zip(cfg.servers, st))
                        for st, r in zip(states, reach) if r])
    return float(pi @ holding)


def brute_force_policy_search(cfg: SystemConfig,
                              max_policies: int = 100_000) -> BruteForceResult:
    """Enumerate every stationary server assignment and keep the best.

    The policy space has num_servers ** num_states members; anything
    beyond max_policies is refused with the size spelled out. Ties on
    average cost keep the first policy in lexicographic order, which
    prefers lower server indices.
    """
    states = tuple(itertools.product(range(cfg.buffer + 1),
                                     repeat=cfg.num_servers))
    count = cfg.num_servers ** len(states)
    if count > max_policies:
        raise ValueError(
            f"refusing to enumerate {cfg.num_servers}**{len(states)} = "
            f"{count} policies (limit {max_policies})")
    best_beta = np.inf
    best_assign = None
    evaluations = []
    for assign in itertools.product(range(cfg.num_servers),
                                    repeat=len(states)):
        policy = dict(zip(states, assign))
        beta = joint_policy_average_cost(cfg, policy)
        evaluations.append((assign, beta))
        if beta < best_beta - 1e-12:
            best_beta = beta
            best_assign = assign
    return BruteForceResult(best_policy=dict(zip(states, best_assign)),
                            best_beta=float(best_beta),
                            evaluations=tuple(evaluations),
                            states=states)
