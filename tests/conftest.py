"""Shared independent oracles for the test suite.

These helpers re-derive quantities the library computes, through
deliberately different routes (explicit enumeration, power iteration),
so agreement is evidence rather than tautology. Comparisons at 1e-15
or bit for bit read a per-row scipy binom.pmf law instead, since
enumeration's roundoff is a few times larger.
"""

from __future__ import annotations

import math
import shutil

import numpy as np
import pytest
from scipy.stats import binom

from psindex import (ServerParams, SystemConfig, model, sim,
                     stationary_distribution)


def enum_next_state(x: int, q: float, p: float, active: bool,
                    buffer: int) -> dict[int, float]:
    """Next-state law by explicit enumeration of departures and arrival.

    Each of the x jobs finishes independently with probability q / x;
    an active server then admits a Bernoulli(p) arrival, clamped at the
    buffer. Uses math.comb directly so nothing is shared with the
    implementation.
    """
    per_job = q / x if x > 0 else 0.0
    out: dict[int, float] = {}
    for d in range(x + 1):
        w = (math.comb(x, d) * per_job ** d * (1.0 - per_job) ** (x - d)
             if x > 0 else (1.0 if d == 0 else 0.0))
        if w == 0.0:
            continue
        y = x - d
        if active:
            out[y] = out.get(y, 0.0) + w * (1.0 - p)
            z = min(y + 1, buffer)
            out[z] = out.get(z, 0.0) + w * p
        else:
            out[y] = out.get(y, 0.0) + w
    return {k: v for k, v in sorted(out.items()) if v > 0.0}


def power_stationary(pmat: np.ndarray, iters: int = 500_000,
                     tol: float = 1e-14) -> np.ndarray:
    """Stationary distribution by plain power iteration."""
    m = pmat.shape[0]
    pi = np.full(m, 1.0 / m)
    for _ in range(iters):
        nxt = pi @ pmat
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt
        pi = nxt
    raise AssertionError("power iteration did not settle")


def enum_departures(x: int, q: float) -> np.ndarray:
    """P(D = d) for d = 0..x, read off the passive enumeration.

    A passive server admits nothing, so p and the buffer do not enter.
    """
    law = enum_next_state(x, q, 0.5, False, x)
    return np.array([law.get(x - d, 0.0) for d in range(x + 1)])


def enum_row(x: int, q: float, p: float, active: bool,
             n: int) -> np.ndarray:
    """enum_next_state as a dense vector over 0..n."""
    out = np.zeros(n + 1)
    for y, w in enum_next_state(x, q, p, active, n).items():
        out[y] = w
    return out


def binom_departures(x: int, q: float) -> np.ndarray:
    """P(D = d) for d = 0..x from one scipy binom.pmf call.

    The per-row reference for comparisons at 1e-15 or bit for bit,
    where enumeration's roundoff (up to about 5e-15) is too coarse.
    """
    return binom.pmf(np.arange(x + 1), x, q / max(x, 1))


def binom_row(x: int, q: float, p: float, active: bool,
              n: int) -> np.ndarray:
    """Dense next-state law over 0..n built on binom_departures."""
    dep = binom_departures(x, q)
    y = x - np.arange(x + 1)
    out = np.zeros(n + 1)
    if not active:
        out[y] = dep
        return out
    np.add.at(out, y, dep * (1.0 - p))
    np.add.at(out, np.minimum(y + 1, n), dep * p)
    return out


def random_rule_exact(cfg: SystemConfig) -> tuple[float, list[float]]:
    """The random rule's exact long-run cost and mean queue lengths.

    Uniform routing sends each slot's Bernoulli(p) arrival to server i
    with probability p/N whatever the state, so each queue on its own
    is the one-server chain whose active kernel has arrival p/N. Its
    stationary law gives the mean length; the cost is sum c * E[x].
    """
    p = cfg.arrival_p / cfg.num_servers
    lengths = []
    for s in cfg.servers:
        active, _ = model.transition_kernel(s.q, p, cfg.buffer)
        law = stationary_distribution(active)
        lengths.append(float(np.arange(cfg.buffer + 1) @ law))
    cost = sum(s.cost_c * x for s, x in zip(cfg.servers, lengths))
    return cost, lengths


# One line per acceptance criterion, replayed after the test summary so
# the verdicts are visible without -s.
VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def two_server_tiny() -> SystemConfig:
    """Asymmetric two-server bank small enough to brute force."""
    return SystemConfig(arrival_p=0.3,
                        servers=(ServerParams(q=0.6, cost_c=2.0),
                                 ServerParams(q=0.5, cost_c=1.0)),
                        buffer=1)


@pytest.fixture(params=["compiled", "python"])
def slot_loop(request, monkeypatch):
    """Run a simulator test on each slot loop in turn.

    "python" patches the loader to find nothing, as on a machine with
    no C compiler. "compiled" skips only when no `cc` is on the path;
    with one, the loop must build.
    """
    if request.param == "python":
        monkeypatch.setattr(sim, "_slot_loop", lambda: None)
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    else:
        assert sim._slot_loop() is not None, "cc did not build the slot loop"
    return request.param


@pytest.fixture()
def pmf_sizes(monkeypatch) -> list[int]:
    """Entry counts of the binomial pmf evaluations the test makes.

    Both kernel caches are cleared first, so every block the test reads
    is built, and counted, afresh.
    """
    real = model._binom_pmf
    sizes: list[int] = []

    def counted(k, n, p):
        out = real(k, n, p)
        sizes.append(np.size(out))
        return out
    monkeypatch.setattr(model, "_binom_pmf", counted)
    model._passive_block.cache_clear()
    model._active_block.cache_clear()
    return sizes
