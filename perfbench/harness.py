"""Spans, operation accounting and the timing policy wrapper.

Everything here lives in the benchmark's own files: it times the
benchmark's calls into psindex from the outside and never patches the
program. One `Run` object belongs to one benchmark process.
"""

from __future__ import annotations

import statistics
import time
import uuid
from bisect import bisect_right
from contextlib import contextmanager

import numpy as np

# The errors psindex raises for a computation it could not finish;
# ConvergenceError subclasses RuntimeError.
OP_ERRORS = (RuntimeError, ValueError)


class Run:
    """Spans and operation outcomes of one benchmark process.

    A span is a dict with id, name, start, end, parent and run id, kept
    in memory until the run writes them out. Each public call the
    benchmark makes is one operation: it either returns, fails with
    one of OP_ERRORS, or returns an output that does not match its
    reference, which also marks the run incorrect.
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.mismatches = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(),
               "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def attempt(self, name: str, fn, *args, **kwargs):
        """Call fn as one operation inside a span.

        Returns (result, span); result is None when the call raised
        one of OP_ERRORS, whose message is kept on the span.
        """
        self.attempted += 1
        with self.span(name) as rec:
            try:
                return fn(*args, **kwargs), rec
            except OP_ERRORS as e:
                rec["error"] = f"{type(e).__name__}: {e}"
                self.failures.append((name, rec["error"]))
                return None, rec

    def fail(self, name: str, message: str, mismatch: bool = False) -> None:
        """Count an operation as failed without calling anything.

        Used for an operation whose input could not be built and for
        an output that does not match its reference (mismatch=True).
        """
        if mismatch:
            self.mismatches += 1
            message = f"output mismatch: {message}"
        else:
            self.attempted += 1
        self.failures.append((name, message))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover.

        Children are timed sequentially inside their parent, so the
        covered part is the sum of their durations. Time the span
        records under "inner_s" (the selector time inside a simulate
        call) is subtracted the same way.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            own = s["end"] - s["start"] - covered - s.get("inner_s", 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


# Seconds each calibration kernel takes at the reference speed, about
# its median on the machine the benchmark was written on (a 2-core
# x86-64 VM, Python 3.11). Times in the result line are scaled to
# these; they never change.
CAL_REF_S = {"python": 0.008, "numpy": 0.007}
CAL_REPEATS = 3


def calibrate_python(steps: int = 20_000) -> float:
    """Seconds for a fixed pure-Python loop shaped like a simulator slot.

    List indexing, float sums and a bisect on a short CDF, as in
    sim.simulate.
    """
    cdf = [k / 32 for k in range(1, 33)]
    x = [0, 0, 0]
    acc = 0.0
    start = time.perf_counter()
    for j in range(steps):
        i = j % 3
        x[i] = (x[i] + bisect_right(cdf, (j * 0.6180339887) % 1.0)) & 31
        acc += 1.5 * x[i]
    return time.perf_counter() - start


def calibrate_numpy(sweeps: int = 40) -> float:
    """Seconds for small dense products shaped like a joint RVI sweep."""
    a = np.linspace(0.0, 1.0 / 101, 101 * 101).reshape(101, 101)
    w = np.ones((101, 101))
    start = time.perf_counter()
    for _ in range(sweeps):
        w = np.minimum(np.tensordot(a, w, axes=(1, 0)),
                       np.tensordot(a, w, axes=(1, 1)).T)
    return time.perf_counter() - start


KERNELS = {"python": calibrate_python, "numpy": calibrate_numpy}


def slowness(kind: str, repeats: int = CAL_REPEATS) -> float:
    """How many times slower than the reference speed the host runs now.

    On the machine the benchmark was written on (a 2-core x86-64 VM),
    each core's speed drifted by up to a half over spells of seconds.
    Dividing a time measured next to this call by its result cancels
    most of that drift. kind is "python" for interpreted code, "numpy"
    for dense array code and "mixed" for both; the result is the median
    of `repeats` back-to-back calibrations.
    """
    parts = ("python", "numpy") if kind == "mixed" else (kind,)
    ref = sum(CAL_REF_S[p] for p in parts)
    return statistics.median(sum(KERNELS[p]() for p in parts) / ref
                             for _ in range(repeats))


class TimedPolicy:
    """Policy wrapper that counts and times every selection.

    Duck-typed like the psindex policies (a `name` and a
    `selector(rng)` factory). It hands the generator to the wrapped
    policy untouched and draws no random numbers itself, so the
    simulator's common random numbers, and hence its report, are the
    same as without the wrapper. It also sees the pre-transition state
    of every slot, which gives the all-empty share and the longest
    queue without looking inside the simulator.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.select_ns = 0
        self.empty_slots = 0
        self.max_queue = 0

    def selector(self, rng):
        select = self.inner.selector(rng)
        clock = time.perf_counter_ns
        acc = [0, 0, 0, 0]  # calls, ns, empty slots, longest queue

        def timed(state):
            t0 = clock()
            action = select(state)
            acc[1] += clock() - t0
            acc[0] += 1
            top = max(state)
            if top == 0:
                acc[2] += 1
            elif top > acc[3]:
                acc[3] = top
            return action

        self._acc = acc
        return timed

    def harvest(self) -> tuple[int, int, int, int]:
        """Fold the last selector's counters into the totals.

        Returns that selector's (calls, ns, empty slots, longest queue).
        """
        calls, ns, empty, top = self._acc
        self.calls += calls
        self.select_ns += ns
        self.empty_slots += empty
        self.max_queue = max(self.max_queue, top)
        return calls, ns, empty, top
