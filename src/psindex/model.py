"""Single-slot dynamics for egalitarian processor-sharing queues.

A server holding x jobs completes each of them independently with
probability q/x during one slot, so the departure count is
Binomial(x, q/x) and its mean is exactly q whenever x >= 1. An active
server may additionally admit one Bernoulli(p) arrival. These laws,
stated once as transition matrices over a buffered state space, and a
drift certificate for the stability region are the vocabulary every
other module builds on. The matrices are read-only blocks cached by
the exact state count, handed to every consumer as they are: shared,
never copied, and refused to any write. The bank's parameters and
their validation live in psindex.config, which imports no numerical
module; this module re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special._ufuncs import _binom_pmf

from .config import (ConvergenceError, ServerParams,  # noqa: F401
                     SystemConfig, ValidationReport, validate_config)


@dataclass(frozen=True)
class LyapunovCertificate:
    """Witness (a, b) for geometric drift of the total queue length.

    b is the margin by which the exponential drift inequality holds at
    parameter a; any b > 0 certifies stability of the always-work
    policy class under q_min > 2p.
    """

    a: float
    b: float


@lru_cache(maxsize=2)
def _passive_block(q: float, size: int) -> np.ndarray:
    """Read-only passive matrix over states 0..size-1, cached.

    Keyed by the exact state count. Sweeps loop over q outermost, so
    two blocks serve every consumer in turn, and a sweep over large
    sizes keeps little memory alive. The pmf is evaluated elementwise,
    so the top-left corner of a block is bit-identical to a direct
    build at the smaller size, whose entries above the diagonal are the
    pmf's zeros at negative counts. Every lower-triangle entry lies in
    the binomial's support, where scipy.stats.binom.pmf returns exactly
    the clipped _binom_pmf ufunc it dispatches to; calling the ufunc
    spares every process the import of scipy.stats, most of the
    package's cold start.
    """
    states = np.arange(size)
    # The lower triangle, row by row: a passive server only loses jobs.
    x, y = np.nonzero(states[:, None] >= states)
    block = np.zeros((size, size))
    block[x, y] = np.clip(_binom_pmf(x - y, x, q / np.maximum(x, 1)),
                          0.0, 1.0)
    block.setflags(write=False)
    return block


def passive_kernel(q: float, n: int) -> np.ndarray:
    """Passive transition matrix over states 0..n, free of p.

    Row x puts P(D = x - y) on y, D ~ Binomial(x, q/x), all rows from
    one binomial evaluation over the lower triangle; an empty server
    (x = 0) has the point mass Binomial(0, q) at zero. Reversed, row x
    is the departure law: passive[x, x::-1][d] = P(D = d). The result
    is the cached block itself, shared and read-only.
    """
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0,1)")
    return _passive_block(float(q), n + 1)


@lru_cache(maxsize=2)
def _active_block(q: float, p: float, size: int) -> np.ndarray:
    """Read-only active matrix over a passive block's states, cached.

    Row x is passive row x convolved with the Bernoulli(p) arrival, so
    column y + 1 carries p * passive[x, y]. An arrival to a full buffer
    with no departure is dropped: its mass p * passive[-1, -1] stays at
    the last state.
    """
    passive = _passive_block(q, size)
    block = (1.0 - p) * passive
    block[:, 1:] += p * passive[:, :-1]
    block[-1, -1] += p * passive[-1, -1]
    block.setflags(write=False)
    return block


def transition_kernel(q: float, p: float,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Active and passive transition matrices over states 0..n.

    The buffer sits at n. Row x of the active matrix is passive row x
    convolved with the Bernoulli(p) arrival, the arrival dropped when
    it would pass the buffer. Both are the cached blocks themselves,
    shared and read-only. Every entry is elementwise in the state, so
    each block is bit for bit the top-left corner of the blocks over
    any larger n, except active row n, where the clamp applies.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0,1)")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    return (_active_block(float(q), float(p), n + 1),
            _passive_block(float(q), n + 1))


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
