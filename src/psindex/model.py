"""Single-slot dynamics for egalitarian processor-sharing queues.

A server holding x jobs completes each of them independently with
probability q/x during one slot, so the departure count is
Binomial(x, q/x) and its mean is exactly q whenever x >= 1. An active
server may additionally admit one Bernoulli(p) arrival. These laws,
stated once as transition matrices over a buffered state space, and a
drift certificate for the stability region are the vocabulary every
other module builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special._ufuncs import _binom_pmf


class ConvergenceError(RuntimeError):
    """A solver ran out of iterations or failed its residual check.

    Carries the trailing iterate and residual so callers can report
    exactly where the iteration stalled.
    """

    def __init__(self, message: str, iterate: float | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


@dataclass(frozen=True)
class ServerParams:
    """One server: service capacity q per slot and holding cost rate."""

    q: float
    cost_c: float


@dataclass(frozen=True)
class SystemConfig:
    """A bank of servers fed by a single Bernoulli arrival stream.

    Exactly one server is scheduled (made active) per slot; only the
    active server can admit the slot's arrival. `buffer` caps each
    queue length, and arrivals that would exceed it are dropped.
    `strict_stability_mode` additionally demands the ordered-capacity
    and q_min > 2p conditions under which the drift certificate exists.
    """

    arrival_p: float
    servers: tuple[ServerParams, ...]
    buffer: int
    strict_stability_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(self.servers))

    @property
    def num_servers(self) -> int:
        return len(self.servers)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LyapunovCertificate:
    """Witness (a, b) for geometric drift of the total queue length.

    b is the margin by which the exponential drift inequality holds at
    parameter a; any b > 0 certifies stability of the always-work
    policy class under q_min > 2p.
    """

    a: float
    b: float


def validate_config(cfg: SystemConfig) -> ValidationReport:
    """Check a SystemConfig against its domain constraints.

    Returns a report rather than raising so callers can surface every
    violation at once. Strict stability mode adds the decreasing-q and
    q_min > 2p requirements; without it those are deliberately skipped
    because the buffer already guarantees a finite state space.
    """
    v: list[str] = []
    if not (0.0 < cfg.arrival_p < 1.0):
        v.append("arrival_p outside (0,1)")
    if len(cfg.servers) == 0:
        v.append("servers list is empty")
    for i, s in enumerate(cfg.servers):
        if not (0.0 < s.q < 1.0):
            v.append(f"servers[{i}].q={s.q:g} outside (0,1)")
        if not s.cost_c > 0.0:
            v.append(f"servers[{i}].cost_c={s.cost_c:g} not > 0")
        elif not math.isfinite(s.cost_c):
            v.append(f"servers[{i}].cost_c={s.cost_c:g} not finite")
    if cfg.buffer < 1:
        v.append(f"buffer={cfg.buffer} not >= 1")
    if cfg.strict_stability_mode and cfg.servers:
        qs = [s.q for s in cfg.servers]
        if any(a <= b for a, b in zip(qs, qs[1:])):
            v.append("q values not strictly decreasing")
        q_min = min(qs)
        if not q_min > 2.0 * cfg.arrival_p:
            v.append(f"q_min={q_min:g} <= 2p={2.0 * cfg.arrival_p:g}")
    return ValidationReport(tuple(v))


_BLOCK = 64  # passive blocks are cached in multiples of this many states


def _binomial_block(q: float, size: int) -> np.ndarray:
    """Passive matrix over states 0..size-1, built afresh.

    The pmf is evaluated elementwise, so the top-left corner of a
    block is bit-identical to a direct build at the smaller size, whose
    entries above the diagonal are the pmf's zeros at negative counts.
    Every lower-triangle entry lies in the binomial's support, where
    scipy.stats.binom.pmf returns exactly the clipped _binom_pmf ufunc
    it dispatches to; calling the ufunc spares every process the
    import of scipy.stats, most of the package's cold start.
    """
    x, y = np.tril_indices(size)  # a passive server only loses jobs
    block = np.zeros((size, size))
    block[x, y] = np.clip(_binom_pmf(x - y, x, q / np.maximum(x, 1)),
                          0.0, 1.0)
    return block


@lru_cache(maxsize=2)
def _passive_block(q: float, size: int) -> np.ndarray:
    """Read-only _binomial_block, shared by every passive_kernel call.

    Sweeps loop over q outermost, so two blocks serve every consumer in
    turn, and a sweep over large sizes keeps little memory alive.
    """
    block = _binomial_block(q, size)
    block.setflags(write=False)
    return block


def passive_kernel(q: float, n: int) -> np.ndarray:
    """Passive transition matrix over states 0..n, free of p.

    Row x puts P(D = x - y) on y, D ~ Binomial(x, q/x), all rows from
    one binomial evaluation over the lower triangle; an empty server
    (x = 0) has the point mass Binomial(0, q) at zero. Reversed, row x
    is the departure law: passive[x, x::-1][d] = P(D = d). The result
    is a writable copy of a cached block, so callers may edit it.
    """
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0,1)")
    size = -(-(n + 1) // _BLOCK) * _BLOCK
    return _passive_block(float(q), size)[: n + 1, : n + 1].copy()


@lru_cache(maxsize=2)
def _active_block(q: float, p: float, size: int) -> np.ndarray:
    """Read-only active matrix over a passive block, one column wider.

    Row x is passive row x convolved with the Bernoulli(p) arrival and
    nothing dropped, so column y + 1 carries p * passive[x, y]. Every
    transition_kernel call slices it; the extra column holds the mass
    an arrival to the last state of the block would carry past it.
    """
    passive = _passive_block(q, size)
    block = np.zeros((size, size + 1))
    block[:, :size] = (1.0 - p) * passive
    block[:, 1:] += p * passive
    block.setflags(write=False)
    return block


def kernel_blocks(q: float, p: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached read-only active and passive blocks over states 0..n.

    Each covers at least n + 1 states; transition_kernel(q, p, n) is
    their top-left corners with the clamp at n added. A caller that
    reads rows the clamp leaves alone, such as active rows below n,
    may read them here without a copy, and must not write.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0,1)")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    size = -(-(n + 1) // _BLOCK) * _BLOCK
    return (_active_block(float(q), float(p), size),
            _passive_block(float(q), size))


def transition_kernel(q: float, p: float,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Active and passive transition matrices over states 0..n.

    The buffer sits at n. Row x of the active matrix is passive row x
    convolved with the Bernoulli(p) arrival, the arrival dropped when
    it would pass the buffer. Both are writable copies of slices of
    the kernel_blocks; the active block's entry [n, n+1] is exactly
    p * passive[n, n], the mass the clamp returns to the buffer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    big, passive = kernel_blocks(q, p, n)
    active = big[: n + 1, : n + 1].copy()
    # An arrival to a full buffer with no departure is dropped.
    active[n, n] += big[n, n + 1]
    return active, passive[: n + 1, : n + 1].copy()


def lyapunov_margin(p: float, q_min: float, a: float) -> float:
    """Margin b of the drift inequality at candidate parameter a."""
    return 0.5 * q_min * (1.0 - math.exp(-a)) - p * (math.exp(a) - 1.0)


def lyapunov_certificate(p: float, q_min: float) -> LyapunovCertificate | None:
    """The drift parameter a in (0, 5] maximising the margin.

    The margin is strictly concave in a, and its slope
    q_min/2 * exp(-a) - p * exp(a) vanishes at a = ln(q_min / (2p)) / 2,
    which is positive iff q_min > 2p; the maximiser on (0, 5] is that
    root capped at 5. Returns None when no positive-margin parameter
    exists.
    """
    if not (0.0 < p < 1.0) or not (0.0 < q_min < 1.0):
        raise ValueError("p and q_min must lie in (0,1)")
    if q_min <= 2.0 * p:
        return None
    a = min(5.0, 0.5 * math.log(q_min / (2.0 * p)))
    b = lyapunov_margin(p, q_min, a)
    if b <= 0.0:
        return None
    return LyapunovCertificate(a=a, b=b)
