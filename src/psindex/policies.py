"""Server-selection rules: which queue gets the arrival opportunity.

All rules pick exactly one active server per slot, empty system
included, and ties go to the lowest server index. Each rule is one
class whose selector(rng) returns the per-slot choice function, so the
simulator can hand the random rule its own generator stream.
"""

from __future__ import annotations

import numpy as np

from .dp import JointSolution
from .model import ServerParams
from .whittle import IndexTable

# Random selections drawn per generator call: a bounded block, so the
# selector's memory does not grow with the horizon.
_BLOCK = 4096


class WhittlePolicy:
    """Activates the server whose (extrapolated) table index is smallest."""

    name = "whittle"

    def __init__(self, table: IndexTable, max_state: int | None = None):
        self.table = table
        # Dense per-server rows make the per-slot lookup a list index.
        size = (max_state if max_state is not None else table.x_max) + 1
        self._rows = [table.dense_row(i, size).tolist()
                      for i in range(table.num_servers)]

    def selector(self, rng: np.random.Generator):
        rows = self._rows
        table = self.table
        num = len(rows)

        def select(state):
            try:
                best, best_val = 0, rows[0][state[0]]
                for i in range(1, num):
                    val = rows[i][state[i]]
                    if val < best_val:
                        best, best_val = i, val
            except IndexError:  # a state past the rows: extrapolate
                return min(range(num), key=lambda i: table.lookup(i, state[i]))
            return best

        return select


class CmuPolicy:
    """Activates the server with the smallest cost_c * x / q score."""

    name = "cmu"

    def __init__(self, servers: tuple[ServerParams, ...]):
        self._weights = [s.cost_c / s.q for s in servers]

    def selector(self, rng: np.random.Generator):
        w = self._weights
        num = len(w)

        def select(state):
            best, best_val = 0, w[0] * state[0]
            for i in range(1, num):
                val = w[i] * state[i]
                if val < best_val:
                    best, best_val = i, val
            return best

        return select


class RandomPolicy:
    """Uniform choice among all servers, ignoring the state."""

    name = "random"

    def __init__(self, num_servers: int):
        self.num_servers = num_servers

    def selector(self, rng: np.random.Generator):
        """One uniform draw per call, pre-drawn in blocks of _BLOCK.

        rng.integers(num, size=k) yields the same values as k scalar
        rng.integers(num) calls, so the stream is one scalar draw per slot.
        """
        num = self.num_servers
        it = iter(())

        def select(state):
            nonlocal it
            try:
                return next(it)
            except StopIteration:
                it = iter(rng.integers(num, size=_BLOCK).tolist())
                return next(it)

        return select


class ExactPolicy:
    """Looks up the optimal action computed by joint value iteration."""

    name = "exact"

    def __init__(self, solution: JointSolution):
        self._policy = solution.policy.tolist()

    def selector(self, rng: np.random.Generator):
        pol = self._policy

        def select(state):
            node = pol
            for x in state:
                node = node[x]
            return node

        return select
