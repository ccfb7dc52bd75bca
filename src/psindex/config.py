"""A bank's parameters, their domain checks and the index knobs.

This layer imports the standard library alone, so loading and checking
a configuration (`psindex validate`, and the refusal of a bad config by
every subcommand) never pays for numpy, scipy or the solvers. The
modules that solve re-export these names: `psindex.model` the bank and
its validation, `psindex.whittle` the index iteration's knobs, each the
same object as here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        if not (0.0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
