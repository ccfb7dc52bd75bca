"""Server-selection rules: which queue gets the arrival opportunity.

All rules pick exactly one active server per slot, empty system
included, and ties go to the lowest server index. Each rule is one
class whose selector(rng) returns the per-slot choice function, so the
simulator can hand the random rule its own generator stream.

The deterministic rules (Whittle, Cmu, exact) are pure functions of
the joint state, so each also gives its whole decision table:
decisions(cfg) holds one byte per joint state, the server the selector
picks there. The simulator's compiled slot loop reads the table, or
draws RandomPolicy's stream itself; its Python kernel calls the
selector.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

from .dp import JointSolution, _greedy
from .model import ServerParams, SystemConfig
from .whittle import IndexTable

# Random selections drawn per generator call: a bounded block, so the
# selector's memory does not grow with the horizon.
_BLOCK = 4096

# Joint grids up to this many states get a decision table (one byte per
# state, 4 MiB at the limit); larger ones keep the per-slot selector.
DECISION_STATE_LIMIT = 1 << 22


def _argmin_table(rows) -> bytes:
    """The lowest-server argmin of per-server scores over the joint grid.

    rows[i][x] is server i's score at queue length x. Byte k of the
    result is the choice in the state whose mixed-radix code is k
    (C order, server 0 most significant). Ties and NaNs resolve as in
    the selectors' strict < in server order. The servers after the
    first give the same choice in every x0-slice, so dp._greedy scans
    them once, behind an infinite stand-in for server 0, and each slice
    only compares their least score with server 0's: no full-grid float
    array is ever built.
    """
    rows = [np.asarray(r, dtype=float) for r in rows]
    num, size = len(rows), len(rows[0])
    shape = (size,) * (num - 1)
    choice, value = _greedy(
        [np.broadcast_to(np.inf, shape)]
        + [np.broadcast_to(rows[i].reshape((size,) + (1,) * (num - 1 - i)),
                           shape) for i in range(1, num)])
    choice = choice.astype(np.uint8)
    return b"".join(np.where(value < score, choice, 0).tobytes()
                    for score in rows[0])


class _DecisionTable:
    """decisions(cfg), built once per grid and cached on the instance."""

    _decision_cache: tuple | None = None

    def decisions(self, cfg: SystemConfig) -> bytes | None:
        """The choice in every joint state of cfg's grid, or None.

        Byte k is the server picked in the state whose mixed-radix code
        is k: (buffer+1)**servers bytes in C order, server 0 most
        significant. None for a grid above DECISION_STATE_LIMIT or one
        the rule does not fit; the caller then uses the selector.
        """
        key = (cfg.num_servers, cfg.buffer)
        if self._decision_cache is None or self._decision_cache[0] != key:
            # One byte names the server, so at most 256 of them.
            fits = (cfg.num_servers == self.num_servers
                    and getattr(self, "buffer", cfg.buffer) == cfg.buffer
                    and cfg.num_servers <= 256 and (cfg.buffer + 1)
                    ** cfg.num_servers <= DECISION_STATE_LIMIT)
            table = self._build_decisions(cfg) if fits else None
            self._decision_cache = (key, table)
        return self._decision_cache[1]


class _IndexRule(_DecisionTable):
    """Activates the server whose score at its queue length is smallest.

    scores(size) gives each server's scores at lengths 0..size-1; ties
    go to the lowest server by a strict < in server order. The selector
    reads rows of _size scores and widens them for a longer queue.
    """

    _size = 1

    def selector(self, rng: np.random.Generator):
        rows = [r.tolist() for r in self.scores(self._size)]
        num = len(rows)

        def select(state):
            nonlocal rows
            while True:
                try:
                    best, best_val = 0, rows[0][state[0]]
                    for i in range(1, num):
                        val = rows[i][state[i]]
                        if val < best_val:
                            best, best_val = i, val
                    return best
                except IndexError:  # a state past the rows: widen them
                    rows = [r.tolist()
                            for r in self.scores(2 * max(state) + 1)]

        return select

    def _build_decisions(self, cfg: SystemConfig) -> bytes:
        return _argmin_table(self.scores(cfg.buffer + 1))


class WhittlePolicy(_IndexRule):
    """Activates the server whose (extrapolated) table index is smallest."""

    name = "whittle"

    def __init__(self, table: IndexTable, max_state: int | None = None):
        self.table = table
        self.num_servers = table.num_servers
        self._size = (max_state if max_state is not None else table.x_max) + 1

    def scores(self, size: int) -> list[np.ndarray]:
        return [self.table.dense_row(i, size)
                for i in range(self.num_servers)]


class CmuPolicy(_IndexRule):
    """Activates the server with the smallest cost_c * x / q score."""

    name = "cmu"

    def __init__(self, servers: tuple[ServerParams, ...]):
        self._weights = [s.cost_c / s.q for s in servers]
        self.num_servers = len(servers)

    def scores(self, size: int) -> list[np.ndarray]:
        xs = np.arange(size)
        return [w * xs for w in self._weights]


class RandomPolicy:
    """Uniform choice among all servers, ignoring the state."""

    name = "random"

    def __init__(self, num_servers: int):
        self.num_servers = num_servers

    def selector(self, rng: np.random.Generator):
        """One rng.integers(num) per call, drawn _BLOCK at a time.

        rng.integers(num, size=k) yields the same values as k scalar
        calls, so the stream is one scalar draw per slot, the one the
        compiled slot loop draws in C for a RandomPolicy. The selector is
        next() on the endless chain of blocks, drawn when reached; the
        state it is called with lands in next's default, which an
        endless iterator never returns. No Python frame runs per call.
        """
        num = self.num_servers
        blocks = iter(lambda: rng.integers(num, size=_BLOCK).tolist(), None)
        return partial(next, chain.from_iterable(blocks))


class ExactPolicy(_DecisionTable):
    """Reads each state's action off joint value iteration's policy array."""

    name = "exact"

    def __init__(self, solution: JointSolution):
        self._policy = solution.policy
        self.num_servers = solution.policy.ndim
        self.buffer = solution.policy.shape[0] - 1

    def selector(self, rng: np.random.Generator):
        item = self._policy.item
        return lambda state: item(*state)

    def _build_decisions(self, cfg: SystemConfig) -> bytes:
        return self._policy.astype(np.uint8).tobytes()
