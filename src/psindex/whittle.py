"""Whittle index computation for a single processor-sharing queue.

The index of state x is the passivity charge lam at which activating
and resting the server are equally attractive, assuming states at and
below x use the active dynamics and states above use the passive ones.
With the threshold structure fixed, the relative values solve a linear
system that is affine in lam, so the balance gap has a single root.
Index tables take it in closed form from two back-solves on one LU.
Every value system is sliced from a per-server kernel that holds the
model's read-only transition_kernel negated with the unit diagonal
added: a table row builds one over the states all its cells visit, and
every other caller one over the states of its single system. The
residual guard's message gives the largest value and its ulp, the
float floor the residual is measured against.
Two independent routes find it iteratively and serve as oracles: the
paper's incremental fixed-point scheme (compute_index) and a bisection
(bisect_index) that brackets the root by the gap's signs at the two
ends of a growing window.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .model import ConvergenceError, ServerParams, SystemConfig, \
    transition_kernel

VALUE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class IndexIterationConfig:
    """Knobs of compute_index; tol also bounds every table root's gap."""

    gamma: float = 0.1
    tol: float = 1e-6
    max_iter: int = 100_000
    lambda0: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not (0.0 < self.tol < np.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ValueSolution:
    """Relative values of a fixed-threshold policy at a fixed charge."""

    lam: float
    threshold_x: int
    n: int
    v: np.ndarray
    beta: float

    def __post_init__(self):
        self.v.setflags(write=False)


class _ServerKernel:
    """One server's arrays that each of its value systems slices.

    active and passive are the read-only model.transition_kernel over
    states 0..n. Its clamp at the buffer touches active row n alone,
    and a system on states 0..m, m <= n, reads only active rows below
    m, so every system reads rows a larger kernel shares bit for bit.
    neg holds the identity minus each, active then passive, in one
    C-ordered copy checked finite here once; cost holds cost_c * x. A
    system copies its rows from their top-left corners.
    """

    def __init__(self, server: ServerParams, arrival_p: float, n: int):
        self.active, self.passive = transition_kernel(server.q, arrival_p, n)
        size = n + 1
        neg = np.empty((2, size, size))
        np.negative(self.active, out=neg[0])
        np.negative(self.passive, out=neg[1])
        neg.reshape(2, -1)[:, :: size + 1] += 1.0
        if not np.isfinite(neg).all():
            raise ValueError("array must not contain infs or NaNs")
        self.neg = neg
        self.cost = server.cost_c * np.arange(size)


class _FixedThresholdSystem:
    """Linear system for the relative values of a threshold policy.

    Unknowns are V(0..n) and beta; the coefficient matrix does not
    depend on lam (only the right-hand side does), so it is factored
    once by LAPACK getrf and re-solved per lam by getrs. States above n
    clamp there, which is exact for every n >= threshold_x + 1: started
    empty, the policy never leaves 0..threshold_x+1, and states above
    it are transient. Its transition rows are threshold.threshold_rows
    of transition_kernel(q, p, n), bit for bit: rows 0..threshold_x of
    the kernel's negated active matrix, the rest of its negated passive
    one, each with the unit diagonal already added. Active rows
    s <= threshold_x < n never reach state n, and the clamp that
    transition_kernel adds at its buffer sits in active row n alone,
    which no system reads. The kernel is built over states 0..n unless
    a caller passes one over at least n + 1 states, as
    build_index_table does once per server row. The balance rows are
    read-only views of the model's cached kernel. The matrix stays
    C-ordered: the residual products run on it, and their rounding,
    which the 1e-9 guard reads, depends on that layout.
    """

    def __init__(self, server: ServerParams, arrival_p: float,
                 threshold_x: int, n: int,
                 kernel: _ServerKernel | None = None):
        if n < 1 or n < threshold_x + 1:
            raise ValueError("truncation n must be >= max(1, threshold_x+1)")
        if threshold_x < -1:
            raise ValueError("threshold_x must be >= -1")
        if kernel is None:
            kernel = _ServerKernel(server, arrival_p, n)
        self.threshold_x = threshold_x
        self.n = n
        m, k = n + 2, threshold_x + 1
        a = np.empty((m, m))
        a[:k, : n + 1] = kernel.neg[0, :k, : n + 1]
        a[k: n + 1, : n + 1] = kernel.neg[1, k: n + 1, : n + 1]
        a[: n + 1, n + 1] = 1.0
        a[n + 1] = 0.0
        a[n + 1, 0] = 1.0  # pins V(0) = 0
        # Right-hand sides b0 and b1, then the right-hand side, solution
        # and residual of _refined_solve, in one allocation.
        vectors = np.zeros((5, m))
        self._b0, self._b1 = vectors[0], vectors[1]
        self._b, self._u, self._r = vectors[2], vectors[3], vectors[4]
        self._b0[: n + 1] = kernel.cost[: n + 1]
        self._b1[k: n + 1] = 1.0
        self._a = a
        self._lu, self._piv, info = dgetrf(a)
        if info > 0:  # info < 0 only for a bad argument
            raise ConvergenceError(f"value system is singular: pivot {info} "
                                   "is exactly zero")
        # Balance rows are evaluated at the threshold state itself.
        x = max(threshold_x, 0)
        self.active_row = kernel.active[x, : n + 1]
        self.passive_row = kernel.passive[x, : n + 1]

    def _refined_solve(self, lam: float) -> np.ndarray:
        """Solve a u = b0 + lam * b1 in buffers the next call reuses.

        One refinement step follows the LU solve, and the residual guard
        covers the result; a NaN residual fails it too, so getrs needs
        no finiteness check. A failed guard raises ConvergenceError
        carrying the residual; its message gives max |v| and that
        value's ulp, so an abort at the float floor reads as one.
        """
        b, u, r = self._b, self._u, self._r
        np.multiply(self._b1, lam, out=b)
        b += self._b0
        u[:] = b
        dgetrs(self._lu, self._piv, u, overwrite_b=1)
        np.matmul(self._a, u, out=r)
        np.subtract(b, r, out=r)
        dgetrs(self._lu, self._piv, r, overwrite_b=1)  # one refinement step
        u += r
        np.matmul(self._a, u, out=r)
        r -= b
        resid = float(np.abs(r, out=r).max())
        if not resid <= VALUE_RESIDUAL_TOL:
            v_max = float(np.abs(u[: self.n + 1]).max())
            raise ConvergenceError(f"value system residual {resid:.3e} "
                                   f"exceeds {VALUE_RESIDUAL_TOL:g}; max |v| "
                                   f"{v_max:.3e}, ulp {np.spacing(v_max):.3e}",
                                   residual=resid)
        return u

    def solve(self, lam: float) -> ValueSolution:
        u = self._refined_solve(lam).copy()
        return ValueSolution(lam=lam, threshold_x=self.threshold_x, n=self.n,
                             v=u[: self.n + 1], beta=float(u[self.n + 1]))

    def gap(self, lam: float) -> float:
        """Active-minus-passive continuation gap at the threshold state."""
        v = self._refined_solve(lam)[: self.n + 1]
        return float(self.active_row @ v - self.passive_row @ v) - lam

    def gap_line(self) -> tuple[float, float]:
        """Intercept and slope of the gap, which is affine in lam.

        The values are v0 + lam * v1 with v0, v1 the solutions for the
        right-hand sides b0 and b1, so two back-solves on the one LU
        give the whole line.
        """
        d = self.active_row - self.passive_row
        m = self.n + 1
        v0 = dgetrs(self._lu, self._piv, self._b0)[0][:m]
        v1 = dgetrs(self._lu, self._piv, self._b1)[0][:m]
        return float(d @ v0), float(d @ v1) - 1.0


def solve_value(lam: float, threshold_x: int, server: ServerParams,
                arrival_p: float, n: int) -> ValueSolution:
    """Relative values and average cost of a fixed-threshold policy."""
    return _FixedThresholdSystem(server, arrival_p, threshold_x, n).solve(lam)


def _index_system(x: int, server: ServerParams, arrival_p: float, n: int):
    if x < 0:  # threshold -1's system would give state 0's index
        raise ValueError("x must be >= 0")
    return _FixedThresholdSystem(server, arrival_p, x, n)


def index_residual(lam: float, x: int, server: ServerParams,
                   arrival_p: float, n: int) -> float:
    """Balance gap at state x under charge lam; zero at the index."""
    return _index_system(x, server, arrival_p, n).gap(lam)


def compute_index(x: int, server: ServerParams, arrival_p: float, n: int,
                  iter_cfg: IndexIterationConfig | None = None) -> float:
    """Whittle index of state x by the incremental balance iteration.

    Repeats lam <- lam + gamma * gap(lam) until the gap is within tol,
    which also bounds the step size by gamma * tol. Raises
    ConvergenceError with the trailing iterate when max_iter is hit;
    bisect_index is the fallback reference in that case.
    """
    cfg = iter_cfg or IndexIterationConfig()
    system = _index_system(x, server, arrival_p, n)
    lam = cfg.lambda0
    gap = system.gap(lam)
    for _ in range(cfg.max_iter):
        if abs(gap) <= cfg.tol:
            return lam
        lam = lam + cfg.gamma * gap
        gap = system.gap(lam)
    if abs(gap) <= cfg.tol:
        return lam
    raise ConvergenceError(
        f"index iteration for state {x} stopped at lam={lam:.9g} with "
        f"residual {gap:.3e} after {cfg.max_iter} iterations",
        iterate=lam, residual=gap)


def bisect_index(x: int, server: ServerParams, arrival_p: float,
                 n: int) -> float:
    """Reference root finder for the balance gap.

    Brackets the root by the gap's signs at the two ends of [-50, 50],
    doubling the window outward until they differ (indices grow quickly
    with x), then halves the bracket 60 times. The gap is affine in lam
    for a fixed threshold, so it changes sign inside a window exactly
    when it does between the ends, and the root is unique; bisection
    stays valid for any continuous gap. A root on a window end is
    returned as that end.
    """
    system = _index_system(x, server, arrival_p, n)
    a, b, span = -50.0, 50.0, 100.0
    for _ in range(40):
        fa, fb = system.gap(a), system.gap(b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb < 0.0:
            break
        span *= 2.0
        a, b = a - span / 2.0, b + span / 2.0
    else:
        raise ConvergenceError("no sign change found for the balance gap")
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = system.gap(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


@dataclass(frozen=True)
class IndexTable:
    """Whittle indices per server for states 0..x_max.

    Entries beyond x_max are served by linear extrapolation through
    the last two computed points, matching how rarely such states are
    visited in a stable system.
    """

    entries: np.ndarray  # shape (num_servers, x_max + 1)
    x_max: int

    def __post_init__(self):
        if self.x_max < 1:  # extrapolation needs two computed points
            raise ValueError("x_max must be >= 1")
        if self.entries.ndim != 2 or self.entries.shape[1] != self.x_max + 1:
            raise ValueError("entries must be (num_servers, x_max + 1)")
        if not np.all(np.isfinite(self.entries)):  # NaN passes the test below
            raise ValueError("indices must be finite")
        if np.any(np.diff(self.entries, axis=1) < -1e-7):
            raise ValueError("indices must be non-decreasing in x")
        self.entries.setflags(write=False)

    @property
    def num_servers(self) -> int:
        return int(self.entries.shape[0])

    def lookup(self, server: int, x: int) -> float:
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server must be in 0..{self.num_servers - 1}, "
                             f"got {server}")
        if x < 0:
            raise ValueError("x must be >= 0")
        row = self.entries[server]
        if x <= self.x_max:
            return float(row[x])
        slope = float(row[self.x_max] - row[self.x_max - 1])
        return float(row[self.x_max]) + (x - self.x_max) * slope

    def dense_row(self, server: int, size: int) -> np.ndarray:
        """Indices for states 0..size-1, extrapolating past x_max."""
        return np.array([self.lookup(server, x) for x in range(size)])


def default_truncation(x_max: int, buffer: int) -> int:
    """max(2 * x_max, buffer): perfbench's bisection cut, read nowhere else."""
    return max(2 * x_max, buffer)


def _closed_form_index(system: _FixedThresholdSystem) -> float:
    """Root of the affine balance gap, verified by a guarded solve.

    Raises ConvergenceError when the gap line has no unique root or the
    root leaves a gap above IndexIterationConfig.tol; the residual guard
    of solve raises one as usual.
    """
    g0, slope = system.gap_line()
    if slope == 0.0 or not (math.isfinite(slope) and math.isfinite(g0)):
        raise ConvergenceError(f"balance gap line {g0!r} + lam * {slope!r} "
                               "has no unique root")
    lam = -g0 / slope
    gap = system.gap(lam)
    tol = IndexIterationConfig.tol
    if not abs(gap) <= tol:
        raise ConvergenceError(f"closed-form index {lam:.9g} leaves gap "
                               f"{gap:.3e} above tol {tol:g}",
                               iterate=lam, residual=gap)
    return lam


def _row_systems(server: ServerParams, arrival_p: float,
                 x_max: int) -> Iterator[_FixedThresholdSystem]:
    """The value system of each cell x = 0..x_max of a server's row.

    Cell x lives on states 0..x+1, so one kernel over states
    0..x_max+1 serves the whole row.
    """
    kernel = _ServerKernel(server, arrival_p, x_max + 1)
    for x in range(x_max + 1):
        yield _FixedThresholdSystem(server, arrival_p, x, x + 1, kernel)


def build_index_table(cfg: SystemConfig, x_max: int,
                      iter_cfg: IndexIterationConfig | None = None,
                      n: int | None = None) -> IndexTable:
    """Compute the index of every state 0..x_max for every server.

    Each cell is the closed-form root of its affine balance gap, checked
    against the fixed IndexIterationConfig.tol. Cell x is solved on
    states 0..x+1, the states the threshold-x policy visits from empty,
    which is exact for any truncation, so the table does not depend on
    the buffer. iter_cfg (None or IndexIterationConfig()) and n (None)
    are retired. A failed cell aborts the whole table with a
    ConvergenceError naming the offending (server, state).
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if iter_cfg not in (None, IndexIterationConfig()) or n is not None:
        raise ValueError("iter_cfg and n are retired: cell x is solved on "
                         "states 0..x+1 to IndexIterationConfig.tol")
    entries = np.zeros((cfg.num_servers, x_max + 1))
    for i, server in enumerate(cfg.servers):
        cells = _row_systems(server, cfg.arrival_p, x_max)
        for x, system in enumerate(cells):
            try:
                entries[i, x] = _closed_form_index(system)
            except ConvergenceError as e:
                raise ConvergenceError(
                    f"index table aborted at server {i}, state {x}: {e}",
                    iterate=e.iterate, residual=e.residual) from e
    return IndexTable(entries=entries, x_max=x_max)
