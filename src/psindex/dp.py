"""Average-cost dynamic programming for single queues and server banks.

single_queue_rvi solves the one-queue problem with a passivity charge
and exposes the greedy policy, whose active set should be a downward
closed interval (threshold structure); it reads
model.transition_kernel, and the admission-gain profile its passive
half. joint_rvi solves the full bank on the product state space and is
the exact benchmark the index policy is measured against;
brute_force_policy_search cross-checks it by sheer enumeration on
spaces small enough to afford that. Both relative value iterations
supply only their sweep, read-out, tolerance and sweep limit, each
stated once in the solver; one driver owns the stop rule (span <= tol,
a non-finite span, values that repeat an earlier sweep, the sweep
limit). A joint solve whose span falls but fails to halve from sweep 30
to 60, or that is still short of tol after 300 sweeps, takes an
aggregation correction every 10 sweeps from then on (_Aggregation): a
small Poisson system on product blocks of states, built from the
per-server kernels, whose solution removes the slow part of the error
the plain sweeps leave. The aggregation builds its block maps once per
solve and reads its greedy policy from the expected values of the sweep
it follows. The sweeps' kernels and the aggregation's block maps reach
the value grid through one routine, _apply, each matrix by a plan built
once per solve (_plan): a kernel of 64 states or more is multiplied in
row blocks, each over its band of columns, which skips the zero upper
blocks its lower triangular (passive) or lower Hessenberg (active)
shape leaves and the leading columns that hold at most 2^-60 of every
row's mass in the block, and every other matrix in one product. One
strict-< scan, _greedy, ties to the lowest server, gives the greedy
policy here and the Whittle and Cmu decision tables in policies. The
first correction that does not pay is undone, and plain sweeps finish
the solve; the solution counts the corrections, names the sweep of the
first and says whether one was undone.

Below every index the never-active rule is optimal; its relative
values, one triangular solve on the passive kernel
(_never_active_values), are single-queue RVI's fixed point there, and
the property suite's structure check starts from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgetrf, dgetrs

from .config import ConvergenceError, ServerParams, SystemConfig
from .model import passive_kernel, transition_kernel
from .threshold import stationary_distribution

# ---------------------------------------------------------------- #
# relative value iteration                                         #
# ---------------------------------------------------------------- #


def _relative_value_iteration(name: str, sweep, v: np.ndarray, tol: float,
                              max_sweeps: int, correct=None):
    """Sweep v until the span of the update's difference falls to tol.

    sweep(v) returns the update Tv and the values to sweep next, Tv
    normalised; the span is that of Tv - v. The result is the last
    values, the last Tv - v, the sweep count and the span. A
    non-finite span stops at once: a NaN never passes span <= tol.

    correct, when given, is called after every sweep that does not
    stop, as correct(sweeps, v, Tv - v, values to sweep next, span);
    it returns None or the values to sweep next in their place.

    Values that repeat those of an earlier sweep bit for bit also stop:
    a sweep is a function of the values alone, so the sweeps in
    between, none of whose spans met tol, recur forever. Values large
    enough that rounding swallows each update do this: the single queue
    stalls at a fixed point, the joint bank in a short cycle, and an
    absolute tol is never met. Brent's method keeps one saved value
    array, renewed at doubling gaps, and finds a cycle within a few
    periods. Only sweeps whose span did not fall are offered to it:
    each period of a cycle has one. The saved array is the sweep's own,
    not a copy: every sweep builds a new one and never writes to an old
    one. Values that a correction replaced are not a sweep's, so every
    correction starts the search afresh.
    """
    saved, saved_sweep, gap, offered = None, 0, 1, 0
    last_span = math.inf
    for sweeps in range(1, max_sweeps + 1):
        v_in = v
        tv, v = sweep(v_in)
        diff = tv - v_in
        span = float(diff.max() - diff.min())
        if span <= tol:
            return v, diff, sweeps, span
        if not math.isfinite(span):
            raise ConvergenceError(
                f"{name} span is {span!r} at sweep {sweeps}: the values "
                "are no longer finite", residual=span)
        if span >= last_span:
            if (saved is not None and v.flat[-1] == saved.flat[-1]
                    and v.tobytes() == saved.tobytes()):
                raise ConvergenceError(
                    f"{name} repeats the values of sweep {saved_sweep} at "
                    f"sweep {sweeps}: span {span:.3e} stays above {tol:g} "
                    f"with max |v| {float(np.abs(v).max()):.3e}",
                    residual=span)
            offered += 1
            if offered == gap:
                saved, saved_sweep, gap, offered = v, sweeps, 2 * gap, 0
        last_span = span
        if correct is not None:
            corrected = correct(sweeps, v_in, diff, v, span)
            if corrected is not None:
                v, saved, gap, offered = corrected, None, 1, 0
    raise ConvergenceError(
        f"{name} did not reach span {tol:g} within {max_sweeps} sweeps "
        f"(last span {span:.3e})", residual=span)


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
                     n: int, v_init: np.ndarray | None = None
                     ) -> SingleQueueSolution:
    """Relative value iteration for one queue under charge lam.

    Jacobi sweeps with normalisation at state 0, stopping when the span
    of the update difference drops to 1e-10 (a ConvergenceError after
    100 000 sweeps); the average cost is the midpoint of that
    difference's range. The greedy tie at equal action values goes to
    active. v_init, when given, has shape (n + 1,).
    """
    pa, pb = transition_kernel(server.q, arrival_p, n)  # checks n >= 1
    v = (np.zeros(n + 1) if v_init is None
         else np.array(v_init, dtype=np.float64))
    if v.shape != (n + 1,):
        raise ValueError(f"v_init must have shape ({n + 1},), "
                         f"not {v.shape}")
    cost_a = server.cost_c * np.arange(n + 1, dtype=np.float64)
    cost_p = cost_a + lam

    def sweep(v):
        tv = np.minimum(cost_a + pa @ v, cost_p + pb @ v)
        return tv, tv - tv[0]

    v, diff, sweeps, span = _relative_value_iteration(
        "relative value iteration", sweep, v, tol=1e-10, max_sweeps=100_000)
    return SingleQueueSolution(
        lam=lam, n=n, v=v, beta=float(0.5 * (diff.max() + diff.min())),
        policy=cost_a + pa @ v <= cost_p + pb @ v, sweeps=sweeps, span=span)


def _never_active_values(server: ServerParams, n: int) -> np.ndarray | None:
    """Relative values of the never-active rule on states 0..n.

    Passive, state 0 is absorbing and its charge is the average cost,
    so v[0] = 0 and v solves (I - P) v = c x on 1..n, P the passive
    kernel without row and column 0: a lower triangular M-matrix with a
    non-negative right-hand side, which forward substitution solves
    componentwise accurately. Below every index the rule is optimal,
    and these values are relative value iteration's fixed point. None
    when c x or the solution is not finite.
    """
    rhs = server.cost_c * np.arange(1.0, n + 1.0)
    if not np.isfinite(rhs).all():
        return None
    v = np.zeros(n + 1)
    v[1:] = dtrsm(1.0, np.eye(n) - passive_kernel(server.q, n)[1:, 1:],
                  rhs, lower=1)
    return v if np.isfinite(v).all() else None


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
    return p * (passive_kernel(q, n)[1:n, :n] @ (v[1:] - v[:-1]))


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
    corrections: int = 0  # aggregation corrections applied
    undone: bool = False  # whether one was undone
    started: int = 0      # sweep of the first correction, 0 if none

    def __post_init__(self):
        self.v.setflags(write=False)
        self.policy.setflags(write=False)


# _plan(m, kernel=True) splits a sweep's kernel of 2 * _BLOCK_ROWS
# states or more into row blocks of at least _BLOCK_ROWS rows, at most
# _MAX_BLOCKS of them, each multiplied over its band of columns: the
# leading columns that hold at most _TAIL of every row's mass in the
# block are dropped, so each axis's product moves by at most
# _TAIL * max|V| (1.5e-12 at heavy-traffic's 1.7e6, against joint
# RVI's stop at 1e-9). Every other matrix is one block, one matmul.
_BLOCK_ROWS = 32
_MAX_BLOCKS = 3
_TAIL = 2.0 ** -60


def _plan(m: np.ndarray, kernel: bool = False):
    """(m, row blocks, m.T), how _apply multiplies m. A block
    (r0, r1, lo, k) says rows r0..r1-1 are read over columns lo..k-1.
    k is read from m's own nonzero pattern: about r1, as passive
    kernels are lower triangular and active ones lower Hessenberg. lo
    is the most leading columns whose cumulative mass stays at or below
    _TAIL in every row of the block: Binomial departures leave a tail
    that decays like q^d/d!, subnormal at small q. Several blocks take
    a C-contiguous m.T for the last axis's column blocks; one block,
    (0, rows, 0, cols), takes no scan and the view m.T."""
    rows, cols = m.shape
    count = min(_MAX_BLOCKS, rows // _BLOCK_ROWS) if kernel else 1
    if count < 2:
        return m, ((0, rows, 0, cols),), m.T
    edges = [rows * b // count for b in range(count + 1)]
    mass = np.cumsum(m, axis=1) <= _TAIL
    blocks = tuple((r0, r1, int(mass[r0:r1].sum(axis=1).min()),
                    1 + int(np.flatnonzero(m[:r1].any(axis=0))[-1]))
                   for r0, r1 in zip(edges, edges[1:]))
    return m, blocks, np.ascontiguousarray(m.T)


def _apply(t: np.ndarray, plans) -> np.ndarray:
    """t with each plan's matrix m applied from the left to its axis j,
    which then has m.shape[0] entries: matmuls on a reshaped view of the
    C-contiguous t, batched over the axes before j. A plan of one block
    is one matmul; otherwise each (square) block multiplies only its
    band, columns lo..k-1, into its rows of one output: by m's rows on a
    leading axis, and by mt's columns on the last."""
    shape = list(t.shape)
    for j, (m, blocks, mt) in enumerate(plans):
        last = j == len(plans) - 1
        a = (t.reshape(-1, shape[j]) if last
             else t.reshape(math.prod(shape[:j]), shape[j], -1))
        if len(blocks) == 1:
            t = a @ mt if last else np.matmul(m, a)
        else:
            t = np.empty_like(a)
            for r0, r1, lo, k in blocks:
                if last:
                    np.matmul(a[:, lo:k], mt[lo:k, r0:r1], out=t[:, r0:r1])
                else:
                    np.matmul(m[r0:r1, lo:k], a[:, lo:k], out=t[:, r0:r1])
        shape[j] = m.shape[0]
    return t.reshape(shape)


def _kernel_plans(cfg: SystemConfig) -> list[tuple]:
    """Each server's (active, passive) kernel plans, once per solve."""
    return [tuple(_plan(m, kernel=True)
                  for m in transition_kernel(s.q, cfg.arrival_p, cfg.buffer))
            for s in cfg.servers]


def _expected_values(v: np.ndarray, plans) -> list[np.ndarray]:
    """E^i[V | state] for each candidate active server i: its active
    kernel on axis i and the passive ones elsewhere."""
    return [_apply(v, [pair[j != i] for j, pair in enumerate(plans)])
            for i in range(len(plans))]


def _greedy(expected) -> tuple[np.ndarray, np.ndarray]:
    """The candidate of least expected value at each state, ties to the
    lowest server, and that value: np.argmin and np.min over the stacked
    candidates on finite values, by strict-< scans that stack nothing."""
    best, policy = expected[0], np.zeros(expected[0].shape, dtype=np.int64)
    for i, e in enumerate(expected[1:], 1):
        lower = e < best
        np.copyto(policy, i, where=lower)
        best = np.where(lower, e, best)
    return policy, best


def _block_indicator(n: int, k: int) -> np.ndarray:
    """The 0/1 map of states 0..n-1 to blocks of side k, the last
    block shorter when k does not divide n."""
    return (np.arange(n)[:, None] // k == np.arange(-(-n // k))).astype(
        np.float64)


# Aggregation corrections start at sweep _AGG_EARLY of a joint solve
# whose plain span fails to halve from _AGG_EARLY // 2 to there, else
# once it has run _AGG_START plain sweeps, and come every _AGG_PERIOD
# sweeps after that, on product blocks of at most _AGG_GROUPS groups
# (the system then stays within 0.25 MB). The first undone correction
# ends them for the solve.
_AGG_EARLY = 60
_AGG_START = 300
_AGG_PERIOD = 10
_AGG_GROUPS = 169
_AGG_GROWTH = 4.0


class _Aggregation:
    """Adaptive aggregation for a slow joint solve (Bertsekas and
    Castañon, IEEE Trans. Automatic Control 34(6), 1989).

    The states fall into product blocks, W maps each state to its block
    and D averages over a block. With mu the greedy policy of the
    values v a sweep started from, and r = Tv - v its difference,

        [D(I - P_mu)W, 1; e_ref, 0] [y; delta] = [D r; 0]

    solves for the slow, block-wise part of v's error, and v + W y is
    swept next in place of Tv. y is 0 at the reference state's block,
    block 0, so delta takes that block's column and the system is
    square. It is factored in place, once per policy. ind maps each
    axis's states to its blocks; the block sizes and the one-block plans
    of ind.T, of ind and of every server's block-sum pairs are built
    from it once. D r, W y and D P_mu W are each one _apply of these
    maps, transposed where they sum over states. mu is the argmin of the
    expected values the sweep left in `expected`, ties to the lowest.
    `corrections` counts the corrections applied, `started` is the
    sweep of the first, and `undone` says whether one was undone.
    """

    def __init__(self, plans, ind):
        n, ga = ind.shape
        self.dims, self.ga = len(plans), ga
        self.sums = [_plan(ind.T)] * self.dims
        self.spreads = [_plan(ind)] * self.dims
        self.sizes = functools.reduce(np.multiply.outer,
                                      [ind.sum(axis=0)] * self.dims).ravel()
        # Row x pairs x's block with its kernel row's block sums, active
        # then passive: the (ga, ga) factor that state x adds on its axis.
        self.pairs = [[_plan((ind[:, :, None] * (k @ ind)[:, None]).reshape(
            n, ga * ga).T) for k, _, _ in pair] for pair in plans]
        self.system = np.empty((len(self.sizes),) * 2)
        self.expected = self.policy = self.lu = self.piv = None
        self.early = self.deadline = self.mark = None
        self.done = self.undone = False
        self.corrections = self.started = 0

    def __call__(self, sweeps, v, diff, v_next, span):
        """The values to sweep next at a correction, else None.

        Corrections start at sweep _AGG_EARLY if the plain span there is
        below its value at _AGG_EARLY // 2 but above half of it, and
        else at _AGG_START, if the solve gets there: a span that halves
        by _AGG_EARLY keeps the plain iteration for longer. The pace is
        the time the plain sweeps took to halve the span from sweep
        start // 2 to the start, read from those two spans. Corrections
        must pay: each must leave the span below half the span at the
        last mark within that pace, and never above _AGG_GROWTH times it
        (a correction can raise the span for a few sweeps). A mark keeps
        a span and the plain sweep's values there, and the first
        correction that fails this is undone to them; plain sweeps then
        run the rest of the solve. The first correction sets a mark, and
        so does each halving. Corrections never start while the plain
        span is not falling.
        """
        if sweeps in (_AGG_EARLY // 2, _AGG_START // 2):
            self.early = span
        if sweeps % _AGG_PERIOD or self.done:
            return None
        if self.deadline is None:
            if not (sweeps == _AGG_EARLY and span < self.early < 2 * span
                    or sweeps == _AGG_START):
                return None
            if not span < self.early:  # no pace to keep: never start
                self.done = True
                return None
            self.deadline = ((sweeps - sweeps // 2) * math.log(2)
                             / math.log(self.early / span))
        if self.mark is not None:
            mark_span, mark_values, mark_sweeps = self.mark
            if span > _AGG_GROWTH * mark_span or (
                    2 * span > mark_span
                    and sweeps - mark_sweeps >= self.deadline):
                self.done = self.undone = True
                return mark_values
        if self.mark is None or 2 * span <= self.mark[0]:
            self.mark = (span, v_next, sweeps)
        step = self.step(diff)
        if step is None:
            return None
        if not self.corrections:
            self.started = sweeps
        self.corrections += 1
        return v + step

    def step(self, diff):
        """W y for the last sweep's difference diff, under the greedy
        policy of its expected values, or None if the aggregated system
        is singular or y is not finite."""
        policy = _greedy(self.expected)[0]
        if self.policy is None or not np.array_equal(policy, self.policy):
            self._factor(policy)
        if self.lu is None:
            return None
        rhs = _apply(diff, self.sums).ravel()
        rhs /= self.sizes
        y = dgetrs(self.lu, self.piv, rhs, trans=1, overwrite_b=1)[0]
        y[0] = 0.0  # entry 0 was delta; y is pinned to 0 there
        if not np.isfinite(y).all():
            return None
        return _apply(y.reshape((self.ga,) * self.dims), self.spreads)

    def operator(self, policy):
        """D·P_policy·W, written into `system` in row-major block order:
        entry (g, h) is the chance of a move into block h, averaged over
        the states of block g.

        P_policy is never formed. Row x of the active-i operator is the
        outer product of the per-server rows, so under the mask of
        states that choose i, each axis contracts against its server's
        block-sum pairs.
        """
        ga, dims = self.ga, self.dims
        a = self.system
        a.fill(0.0)
        acc = a.reshape((ga,) * 2 * dims)
        order = [*range(0, 2 * dims, 2), *range(1, 2 * dims, 2)]
        for i in range(dims):
            t = _apply((policy == i).astype(np.float64),
                       [pair[j != i] for j, pair in enumerate(self.pairs)])
            acc += t.reshape((ga, ga) * dims).transpose(order)
        a /= self.sizes[:, None]
        return a

    def _factor(self, policy):
        a = self.operator(policy)
        np.negative(a, out=a)
        a.flat[:: len(a) + 1] += 1.0
        a[:, 0] = 1.0
        # a.T is Fortran-ordered, so getrf factors it in place.
        lu, piv, info = dgetrf(a.T, overwrite_a=1)
        self.policy = policy
        self.lu, self.piv = (lu, piv) if info == 0 else (None, None)


def joint_rvi(cfg: SystemConfig) -> JointSolution:
    """Optimal average cost for the whole bank by relative value iteration.

    Synchronous sweeps of V <- cost + min_i E^i[V] - V[ref]; at the fixed
    point V[ref] (all empty) is the optimal average cost. Ties go to the
    lowest server index. The stop at span 1e-9 is absolute (a
    ConvergenceError after 200 000 sweeps); |V| reaches 1.7e6 on
    heavy-traffic, where 1e-9 is 4 ulps, so reordered arithmetic (BLAS
    build, threads) moves the sweep count by a few.

    A solve is slow if its span falls but fails to halve from sweep 30
    to _AGG_EARLY = 60, or if it has not converged after _AGG_START =
    300 sweeps, and from sweep 60 or 300 on every 10th sweep is
    followed by an aggregation correction (_Aggregation) on blocks of
    equal side per axis, as many as fit in _AGG_GROUPS. Each sweep hands
    the aggregation its expected values, so E^i[V] is evaluated once per
    sweep and once more for the returned policy. The first correction
    that does not halve the span as fast as the plain sweeps did before
    the start is undone, and plain sweeps finish the solve. A solve that
    converges within 300 sweeps and halves its span from sweep 30 to 60
    (tiny, gap, fig3 at buffer 12, fig3-5 at buffer 30) is the plain
    iteration bit for bit. Kernels of 64 states or more are multiplied
    in row blocks over their bands (_plan), which reorders the sums and
    drops the leading columns that hold at most _TAIL = 2^-60 of each
    block row's mass: each axis's product moves by at most 2^-60 times
    max|V|, 1.5e-12 on heavy-traffic, under 1/600 of the stop. Exponential
    in the server count: heavy-traffic's 10 201 states take 980 sweeps
    (92 corrections from sweep 60, none undone) and about 0.14 s on a
    2-core VM with one BLAS thread (0.17-0.21 s before the bands),
    against 1 250 sweeps with corrections from sweep 300 and 3 361 plain
    sweeps, with the same policy on every state.
    """
    ref = (0,) * cfg.num_servers
    n = cfg.buffer + 1
    shape = (n,) * cfg.num_servers
    cost = sum(s.cost_c * g for s, g in zip(cfg.servers, np.indices(shape)))
    plans = _kernel_plans(cfg)
    per_axis = 1
    while (per_axis + 1) ** cfg.num_servers <= _AGG_GROUPS:
        per_axis += 1
    agg = _Aggregation(plans, _block_indicator(n, -(-n // per_axis)))

    def sweep(v):
        agg.expected = _expected_values(v, plans)
        tv = functools.reduce(np.minimum, agg.expected)
        tv += cost
        tv -= v[ref]
        return tv, tv

    v, _, sweeps, span = _relative_value_iteration(
        "joint relative value iteration", sweep, np.zeros(shape), tol=1e-9,
        max_sweeps=200_000, correct=agg)
    return JointSolution(v=v - v[ref], beta=float(v[ref]),
                         policy=_greedy(_expected_values(v, plans))[0],
                         reference=ref, sweeps=sweeps, span=span,
                         corrections=agg.corrections, undone=agg.undone,
                         started=agg.started)


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
    threshold.stationary_distribution solves it under its guards.
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
