"""Average-cost dynamic programming for single queues and server banks.

single_queue_rvi solves the one-queue problem with a passivity charge
and exposes the greedy policy, whose active set should be a downward
closed interval (threshold structure); it reads
model.transition_kernel, and the admission-gain profile its passive
half. joint_rvi solves the full bank on the product state space and is
the exact benchmark the index policy is measured against; the test
suite's enumeration oracle cross-checks it on spaces small enough to
afford that. Both relative value iterations
supply only their sweep, read-out, tolerance and sweep limit, each
stated once in the solver; one driver owns the stop rule (span <= tol,
a non-finite span, values that repeat an earlier sweep, the sweep
limit). A joint solve whose span falls but fails to halve from sweep 30
to 60, or that is still short of tol after 300 sweeps, takes an
aggregation correction every 10 sweeps from then on (_Aggregation): a
small Poisson system on product blocks of states, built from the
per-server kernels, whose solution removes the slow part of the error
the plain sweeps leave. Each state's move reaches few blocks once its
leading blocks of at most 1e-8 of the mass are dropped, so the system
is banded, and a banded LU solves it in bordered form. The aggregation
builds its block maps and band layout once per solve and reads its
greedy policy from the expected values of the sweep it follows. The
sweeps' kernels, the aggregation's block maps and the policy's read-out
reach the value grid through products bound once per solve
(_Products), each matrix split by one row-block rule (_plan): a kernel
of 64 states or more is multiplied in row blocks, each over its band
of columns, which skips the zero upper blocks its lower triangular
(passive) or lower Hessenberg (active) shape leaves and the leading
columns that hold at most 2^-60 of every row's mass in the block, and
every other matrix in one product. Every operand and output view is
built with the plan, into two scratch tables the candidates share and
one output each, so a sweep issues only matmuls. One
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
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .config import ConvergenceError, ServerParams, SystemConfig
from .model import passive_kernel, transition_kernel

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
    """(m, row blocks, m.T), how _Products multiplies m. A block
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


class _Products:
    """Chains of matrix products on tables of one shape, bound once.

    Each chain applies one plan (m, blocks, mt) per axis j, in axis
    order, from the left: axis j then has m.shape[0] entries. Each
    product is matmuls on a reshaped view of a C-contiguous table,
    batched over the axes before j, one per row block (r0, r1, lo, k),
    which multiplies only its band, columns lo..k-1, into its rows of
    the product: by m's rows on a leading axis, and by mt's columns on
    the last. Every view is built here. A chain's last axis writes the
    chain's own output, each earlier axis one of two scratch tables
    that all chains share, in turn, and only the first axis reads the
    table a call passes, through its column bands, sliced on each call.
    A call is then only matmuls into fixed views, and it returns the
    outputs, which the next call overwrites.
    """

    def __init__(self, shape: tuple[int, ...], chains):
        def axis(table, dims, j):  # table as the matmul operand of axis j
            return table.reshape((-1, dims[j]) if j == len(dims) - 1
                                 else (math.prod(dims[:j]), dims[j], -1))

        self.chains = chains
        self.trail = len(shape) == 1  # the first axis is also the last
        self.lead = (-1, shape[0]) if self.trail else (1, shape[0], -1)
        tables = []  # each chain's table shapes: its input, then per axis
        for plans in chains:
            seq = [tuple(shape)]
            for j, (m, _, _) in enumerate(plans):
                seq.append(seq[-1][:j] + (m.shape[0],) + seq[-1][j + 1:])
            tables.append(seq)
        # Axis j writes scratch table j % 2, the last axis the output.
        scratch = [np.empty(max([math.prod(seq[j]) for seq in tables
                                 for j in range(1 + parity, len(seq) - 1, 2)],
                                default=0))
                   for parity in (0, 1)]
        self.outs = [np.empty(seq[-1]) for seq in tables]
        self.steps = []  # per chain: the first axis's products, the rest's
        for plans, seq, out in zip(chains, tables, self.outs):
            head, body, a = [], [], None  # None: the call's table
            for j, (m, blocks, mt) in enumerate(plans):
                last = j == len(plans) - 1
                t = out if last else scratch[j % 2][:math.prod(seq[j + 1])]
                t = axis(t, seq[j + 1], j)
                for r0, r1, lo, k in blocks:
                    band = mt[lo:k, r0:r1] if last else m[r0:r1, lo:k]
                    if a is None:
                        head.append((band, slice(lo, k), t[:, r0:r1]))
                    elif last:
                        body.append((a[:, lo:k], band, t[:, r0:r1]))
                    else:
                        body.append((band, a[:, lo:k], t[:, r0:r1]))
                if not last:
                    a = axis(t, seq[j + 1], j + 1)
            self.steps.append((head, body))

    def __call__(self, t: np.ndarray) -> list[np.ndarray]:
        a = t.reshape(self.lead)
        for head, body in self.steps:
            for m, cols, out in head:
                if self.trail:
                    np.matmul(a[:, cols], m, out=out)
                else:
                    np.matmul(m, a[:, cols], out=out)
            for left, right, out in body:
                np.matmul(left, right, out=out)
        return self.outs


def _kernel_plans(cfg: SystemConfig) -> list[tuple]:
    """Each server's (active, passive) kernel plans, once per solve."""
    return [tuple(_plan(m, kernel=True)
                  for m in transition_kernel(s.q, cfg.arrival_p, cfg.buffer))
            for s in cfg.servers]


def _candidates(plans, shape: tuple[int, ...]) -> _Products:
    """The products that give E^i[V | state] for each candidate active
    server i on value tables of `shape`: its active kernel on axis i and
    the passive ones elsewhere."""
    return _Products(shape, [[pair[j != i] for j, pair in enumerate(plans)]
                             for i in range(len(plans))])


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
# sweeps after that, on product blocks of at most _AGG_GROUPS groups.
# The first undone correction ends them for the solve. The coarse
# system drops each state's leading blocks that hold at most _AGG_TAIL
# of its move's mass on an axis, which leaves it banded.
_AGG_EARLY = 60
_AGG_START = 300
_AGG_PERIOD = 10
_AGG_GROUPS = 676
_AGG_GROWTH = 4.0
_AGG_TAIL = 1e-8


class _Aggregation:
    """Adaptive aggregation for a slow joint solve (Bertsekas and
    Castañon, IEEE Trans. Automatic Control 34(6), 1989).

    The states fall into product blocks, W maps each state to its block
    and D averages over a block. With mu the greedy policy of the
    values v a sweep started from, r = Tv - v its difference and
    Q = D P_mu W,

        [I - Q, 1; e_ref, 0] [y; delta] = [D r; 0]

    solves for the slow, block-wise part of v's error, and v + W y is
    swept next in place of Tv. y is 0 at the reference state's block,
    block 0, so delta takes that block's column. ind maps each axis's
    states to its blocks; the block sizes and the products `sums` and
    `spreads`, the one-block plans of ind.T and of ind bound to the
    value grid and the block grid, are built from it once, and D r and
    W y are each one call of them. mu is the argmin of the expected
    values the sweep left in `expected`, ties to the lowest; they may
    be the sweep's bound outputs, which the next sweep overwrites, as
    the correction that reads them comes before it. `corrections` counts
    the corrections applied, `started` is the sweep of the first, and
    `undone` says whether one was undone.

    On an axis a state's move reaches at most one block above its own
    and, once the leading blocks holding at most _AGG_TAIL of its mass
    are dropped, `reach` blocks below. `cols` holds, per block, the
    `width` = min(reach + 2, ga) consecutive blocks its windows read,
    clipped to the grid, and `windows` every server's active and passive
    block sums of each state over them, as (ga, width, side) arrays.
    In row-major block order Q is then banded, within kl = reach * ku
    below the diagonal and ku = (ga^N - 1) / (ga - 1) above it (each at
    most G - 2, G the block count). The system is solved in bordered
    form: M = (I - Q) without row and column 0 is factored in place in
    the Fortran-ordered band `band`, once per policy, z1 = M^-1 1 with
    it, and then for each r

        z = M^-1 (D r)[1:],  delta = ((D r)[0] - a0 z) / (1 - a0 z1),
        y = (0, z - delta z1),

    a0 = (I - Q)[0, 1:]. One block (G = 1) leaves y = 0.
    """

    def __init__(self, plans, ind):
        n, ga = ind.shape
        side = int(ind[:, 0].sum())
        self.dims, self.ga = len(plans), ga
        self.sums = _Products((n,) * self.dims, [[_plan(ind.T)] * self.dims])
        self.spreads = _Products((ga,) * self.dims, [[_plan(ind)] * self.dims])
        self.sizes = functools.reduce(np.multiply.outer,
                                      [ind.sum(axis=0)] * self.dims).ravel()
        block_sums = [[k @ ind for k, _, _ in pair] for pair in plans]
        for m in itertools.chain(*block_sums):
            m[np.cumsum(m, axis=1) <= _AGG_TAIL] = 0.0
        block = np.arange(n) // side
        reach = max(int((block - (m > 0).argmax(axis=1)).max())
                    for m in itertools.chain(*block_sums))
        width = min(reach + 2, ga)
        self.cols = (np.clip(np.arange(ga) - reach, 0, ga - width)[:, None]
                     + np.arange(width))
        # windows[s][a][g, d, t]: block cols[g, d]'s share of the move of
        # state g * side + t, 0 past the last state.
        pad = np.zeros((ga * side - n, ga))
        self.windows = [
            [np.ascontiguousarray(np.take_along_axis(
                np.vstack([m, pad]).reshape(ga, side, ga),
                self.cols[:, None], axis=2).transpose(0, 2, 1))
             for m in pair] for pair in block_sums]
        # The policy, padded with -1 to ga * side states per axis.
        self.padded = np.full((ga * side,) * self.dims, -1)
        groups = len(self.sizes)
        self.band = None
        if groups > 1:
            stride = ga ** np.arange(self.dims - 1, -1, -1)
            self.ku = min(int(stride.sum()), groups - 2)
            self.kl = min(reach * int(stride.sum()), groups - 2)
            rows = 2 * self.kl + self.ku + 1
            idx = np.indices((ga, width) * self.dims).reshape(
                2 * self.dims, -1)
            # A full-width window also reads blocks no move reaches.
            to = self.cols[idx[::2], idx[1::2]]
            near = ((to - idx[::2] >= -reach) & (to <= idx[::2] + 1)).all(0)
            g, h = stride @ idx[::2], stride @ to
            self.into_band = np.flatnonzero(near & (g > 0) & (h > 0))
            self.band_at = ((h[self.into_band] - 1) * rows + self.kl
                            + self.ku + g[self.into_band] - h[self.into_band])
            self.into_top = np.flatnonzero(near & (g == 0) & (h > 0))
            self.top_at = h[self.into_top] - 1
            self.band = np.zeros((rows, groups - 1), order="F")
            self.top = np.zeros(groups - 1)
        self.expected = self.policy = self.lu = self.piv = None
        self.z1 = self.schur = None
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
        policy of its expected values, or None if M is singular or y is
        not finite. W y is the output of `spreads`, which the next step
        overwrites."""
        policy = _greedy(self.expected)[0]
        rhs = self.sums(diff)[0].ravel()
        rhs /= self.sizes
        y = np.zeros_like(rhs)
        if self.band is not None:
            if self.policy is None or not np.array_equal(policy,
                                                         self.policy):
                self._factor(policy)
            if self.lu is None:
                return None
            z = dgbtrs(self.lu, self.kl, self.ku, rhs[1:], self.piv)[0]
            delta = (rhs[0] - self.top @ z) / self.schur
            y[1:] = z - delta * self.z1
            if not np.isfinite(y).all():
                return None
        return self.spreads(y.reshape((self.ga,) * self.dims))[0]

    def operator(self, policy):
        """Q = D·P_policy·W over the windows, shape (ga, width) * N:
        entry (g_1, d_1, ..., g_N, d_N) is the chance of a move from
        block (g_1, ..., g_N) into block (cols[g_1, d_1], ...), averaged
        over the states of the first.

        P_policy is never formed. Row x of the active-i operator is the
        outer product of the per-server rows, so the padded mask of
        states that choose i contracts axis by axis against its server's
        windows, one batched matmul per axis; on the last axis, whose
        mask has one column, it is one (rows x side) @ (side x width)
        product per block.
        """
        ga, dims = self.ga, self.dims
        width = self.cols.shape[1]
        self.padded[tuple(map(slice, policy.shape))] = policy
        total = 0.0
        for i in range(dims):
            t = (self.padded == i).astype(np.float64)
            for j, pair in enumerate(self.windows):
                w = pair[j != i]
                t = t.reshape((ga * width) ** j, ga, w.shape[2], -1)
                if j < dims - 1:
                    t = np.matmul(w, t)
                else:  # one (rows x side) @ (side x width) per block
                    t = np.matmul(t[..., 0].transpose(1, 0, 2),
                                  w.transpose(0, 2, 1)).transpose(1, 0, 2)
            total = total + t
        total = total.reshape((ga, width) * dims)
        total /= self.sizes.reshape((ga, 1) * dims)
        return total

    def _factor(self, policy):
        q = self.operator(policy).ravel()
        band = self.band
        band.fill(0.0)
        # band.T is C-contiguous: its flat index is column * rows + row.
        band.T.reshape(-1)[self.band_at] = -q[self.into_band]
        band[self.kl + self.ku] += 1.0
        self.top[self.top_at] = -q[self.into_top]
        lu, piv, info = dgbtrf(band, self.kl, self.ku, overwrite_ab=1)
        self.policy = policy
        self.lu = self.piv = None
        if info == 0:
            self.lu, self.piv = lu, piv
            self.z1 = dgbtrs(lu, self.kl, self.ku, np.ones(band.shape[1]),
                             piv)[0]
            self.schur = 1.0 - self.top @ self.z1


def joint_rvi(cfg: SystemConfig) -> JointSolution:
    """Optimal average cost for the whole bank by relative value iteration.

    Synchronous sweeps of V <- cost + min_i E^i[V] - V[ref]; at the fixed
    point V[ref] (all empty) is the optimal average cost. Ties go to the
    lowest server index. The stop at span 1e-9 is absolute (a
    ConvergenceError after 200 000 sweeps); |V| reaches 1.7e6 on
    heavy-traffic, where 1e-9 is 4 ulps, so reordered arithmetic (BLAS
    build, threads) moves the sweep count by a few.

    A solve is slow if its span falls but fails to halve from sweep 30 to
    _AGG_EARLY = 60, or if it has not converged after _AGG_START = 300
    sweeps, and from sweep 60 or 300 on every 10th sweep is followed by an
    aggregation correction (_Aggregation) on blocks of equal side per axis,
    as many as fit in _AGG_GROUPS. E^i[V] comes from products bound once
    per solve (_candidates), so a sweep issues only matmuls into fixed
    views and then builds a fresh Tv. Each sweep hands the aggregation its
    expected values, so E^i[V] is evaluated once per sweep and once more
    for the returned policy. The first correction that does not halve the
    span as fast as the plain sweeps did before the start is undone, and
    plain sweeps finish the solve. A solve that converges within 300 sweeps
    and halves its span from sweep 30 to 60 (tiny, gap, fig3 at buffer 12,
    fig3-5 at buffer 30) is the plain iteration bit for bit. Kernels of 64
    states or more are multiplied in row blocks over their bands (_plan),
    which reorders the sums and drops the leading columns that hold at most
    _TAIL = 2^-60 of each block row's mass: each axis's product moves by at
    most 2^-60 times max|V|, 1.5e-12 on heavy-traffic, under 1/600 of the
    stop. Exponential in the server count: heavy-traffic's 10 201 states
    take 637 sweeps (58 corrections from sweep 60 on 26 x 26 blocks, none
    undone) and about 0.10 s on a 2-core VM with one BLAS thread, against
    3 361 plain sweeps, with the same policy on every state.
    """
    ref = (0,) * cfg.num_servers
    n = cfg.buffer + 1
    shape = (n,) * cfg.num_servers
    cost = sum(s.cost_c * g for s, g in zip(cfg.servers, np.indices(shape)))
    plans = _kernel_plans(cfg)
    expected = _candidates(plans, shape)
    per_axis = 1
    while (per_axis + 1) ** cfg.num_servers <= _AGG_GROUPS:
        per_axis += 1
    agg = _Aggregation(plans, _block_indicator(n, -(-n // per_axis)))

    def sweep(v):
        agg.expected = expected(v)
        # A fresh tv even from one candidate: Brent's guard keeps it.
        tv = (functools.reduce(np.minimum, agg.expected) if len(plans) > 1
              else agg.expected[0].copy())
        tv += cost
        tv -= v[ref]
        return tv, tv

    v, _, sweeps, span = _relative_value_iteration(
        "joint relative value iteration", sweep, np.zeros(shape), tol=1e-9,
        max_sweeps=200_000, correct=agg)
    return JointSolution(v=v - v[ref], beta=float(v[ref]),
                         policy=_greedy(expected(v))[0],
                         reference=ref, sweeps=sweeps, span=span,
                         corrections=agg.corrections, undone=agg.undone,
                         started=agg.started)
