"""Whittle index computation for a single processor-sharing queue.

The index of state x is the passivity charge lam at which activating
and resting the server are equally attractive, assuming states at and
below x use the active dynamics and states above use the passive ones.
With the threshold structure fixed, the relative values solve a linear
system that is affine in lam, so the balance gap has a single root.
Index tables take it in closed form from two back-solves on one LU.
Each system is written straight from the model's cached read-only
kernel blocks, with no intermediate copy of the kernel.
Two independent routes find it iteratively and serve as oracles: the
paper's incremental fixed-point scheme (compute_index) and a bisection
(bisect_index) that brackets the root by the gap's signs at the two
ends of a growing window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .model import ConvergenceError, ServerParams, SystemConfig, \
    kernel_blocks

VALUE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class IndexIterationConfig:
    """Knobs of the incremental index iteration."""

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


class _FixedThresholdSystem:
    """Linear system for the relative values of a threshold policy.

    Unknowns are V(0..n) and beta; the coefficient matrix does not
    depend on lam (only the right-hand side does), so it is factored
    once by LAPACK getrf and re-solved per lam by getrs. States above n
    clamp there, which is exact for every n >= threshold_x + 1: started
    empty, the policy never leaves 0..threshold_x+1, and states above
    it are transient. Its transition rows are threshold.threshold_rows
    of transition_kernel(q, p, n), bit for bit, but written negated
    straight from the model.kernel_blocks that the kernel slices:
    rows 0..threshold_x from the active block, the rest from the
    passive one. Active rows s <= threshold_x < n never reach state n,
    so the clamp the kernel adds at the buffer never applies to them.
    The balance rows are read-only views of the blocks. The matrix
    stays C-ordered: the residual products run on it, and their
    rounding, which the 1e-9 guard reads, depends on that layout.
    """

    def __init__(self, server: ServerParams, arrival_p: float,
                 threshold_x: int, n: int):
        if n < 1 or n < threshold_x + 1:
            raise ValueError("truncation n must be >= max(1, threshold_x+1)")
        if threshold_x < -1:
            raise ValueError("threshold_x must be >= -1")
        active, passive = kernel_blocks(server.q, arrival_p, n)
        self.server = server
        self.arrival_p = arrival_p
        self.threshold_x = threshold_x
        self.n = n
        m, k = n + 2, threshold_x + 1
        a = np.zeros((m, m))
        np.negative(active[:k, : n + 1], out=a[:k, : n + 1])
        np.negative(passive[k: n + 1, : n + 1], out=a[k: n + 1, : n + 1])
        a.ravel()[: (n + 1) * m: m + 1] += 1.0
        a[: n + 1, n + 1] = 1.0
        a[n + 1, 0] = 1.0  # pins V(0) = 0
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        b0 = np.zeros(m)
        b0[: n + 1] = server.cost_c * np.arange(n + 1)
        b1 = np.zeros(m)
        b1[k: n + 1] = 1.0
        self._a = a
        self._b0 = b0
        self._b1 = b1
        self._lu, self._piv, info = dgetrf(a)
        if info > 0:  # info < 0 only for a bad argument
            raise ConvergenceError(f"value system is singular: pivot {info} "
                                   "is exactly zero")
        # Right-hand side, solution and residual of _refined_solve.
        self._b, self._u, self._r = np.empty(m), np.empty(m), np.empty(m)
        # Balance rows are evaluated at the threshold state itself.
        x = max(threshold_x, 0)
        self.active_row = active[x, : n + 1]
        self.passive_row = passive[x, : n + 1]

    def _refined_solve(self, lam: float) -> np.ndarray:
        """Solve a u = b0 + lam * b1 in buffers the next call reuses.

        One refinement step follows the LU solve, and the residual guard
        covers the result; a NaN residual fails it too, so getrs needs
        no finiteness check. A failed guard raises ConvergenceError
        carrying the residual.
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
            raise ConvergenceError(f"value system residual {resid:.3e} "
                                   f"exceeds {VALUE_RESIDUAL_TOL:g}",
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


def index_residual(lam: float, x: int, server: ServerParams,
                   arrival_p: float, n: int) -> float:
    """Balance gap at state x under charge lam; zero at the index."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return _FixedThresholdSystem(server, arrival_p, x, n).gap(lam)


def compute_index(x: int, server: ServerParams, arrival_p: float, n: int,
                  iter_cfg: IndexIterationConfig | None = None) -> float:
    """Whittle index of state x by the incremental balance iteration.

    Repeats lam <- lam + gamma * gap(lam) until the gap is within tol,
    which also bounds the step size by gamma * tol. Raises
    ConvergenceError with the trailing iterate when max_iter is hit;
    bisect_index is the fallback reference in that case.
    """
    cfg = iter_cfg or IndexIterationConfig()
    system = _FixedThresholdSystem(server, arrival_p, x, n)
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
    system = _FixedThresholdSystem(server, arrival_p, x, n)
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


def _closed_form_index(system: _FixedThresholdSystem, tol: float) -> float:
    """Root of the affine balance gap, verified by a guarded solve.

    Raises ConvergenceError when the gap line has no unique root or the
    root leaves a gap above tol; the residual guard of solve raises
    one as usual.
    """
    g0, slope = system.gap_line()
    if slope == 0.0 or not (np.isfinite(slope) and np.isfinite(g0)):
        raise ConvergenceError(f"balance gap line {g0!r} + lam * {slope!r} "
                               "has no unique root")
    lam = -g0 / slope
    gap = system.gap(lam)
    if not abs(gap) <= tol:
        raise ConvergenceError(f"closed-form index {lam:.9g} leaves gap "
                               f"{gap:.3e} above tol {tol:g}",
                               iterate=lam, residual=gap)
    return lam


def build_index_table(cfg: SystemConfig, x_max: int,
                      iter_cfg: IndexIterationConfig | None = None,
                      n: int | None = None) -> IndexTable:
    """Compute the index of every state 0..x_max for every server.

    Each cell is the closed-form root of its affine balance gap, checked
    against iter_cfg.tol; gamma, max_iter and lambda0 drive only
    compute_index. Cell x is solved on states 0..x+1, the states the
    threshold-x policy visits from empty, which is exact for any
    truncation, so the table does not depend on the buffer. n is a
    retired truncation and must be None. A failed cell aborts the whole
    table with a ConvergenceError naming the offending (server, state).
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if n is not None:
        raise ValueError("n is retired: cell x is solved on states 0..x+1")
    tol = (iter_cfg or IndexIterationConfig()).tol
    entries = np.zeros((cfg.num_servers, x_max + 1))
    for i, server in enumerate(cfg.servers):
        for x in range(x_max + 1):
            system = _FixedThresholdSystem(server, cfg.arrival_p, x, x + 1)
            try:
                entries[i, x] = _closed_form_index(system, tol)
            except ConvergenceError as e:
                raise ConvergenceError(
                    f"index table aborted at server {i}, state {x}: {e}",
                    iterate=e.iterate, residual=e.residual) from e
    return IndexTable(entries=entries, x_max=x_max)
