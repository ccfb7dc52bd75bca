"""Discrete-time simulation of the server bank under a selection rule.

Each slot records the holding cost of the pre-transition state, asks
the policy for the active server, then draws departures for every
queue and at most one Bernoulli arrival routed to the active queue,
clamping at the buffer. One master seed expands into independent
per-server departure streams, an arrival stream, and a policy stream,
numpy's SeedSequence(seed).spawn(num + 2), so different policies under
the same seed face identical randomness. Departures are drawn by
inverting per-length CDFs, built once per bank from the reversed rows
of model.passive_kernel.

Each slot consumes one uniform per queue and one arrival uniform
whether or not it uses them, so how a kernel skips idle work changes
no report. An empty queue always has zero departures: the Python
kernel draws each stream in blocks with numpy and does no bisection
for an empty queue, and a slot with no job in the bank adds nothing to
the cost or length sums and reads no departure uniform at all. The
compiled kernel seeds the same streams and draws the same numbers
itself, numpy's seeding and PCG64 stream reproduced in C, and takes
every queue through the same branch-free steps, which leave those
sums as they are.

Each kernel reads one face of a policy. The compiled kernel reads a
decision table, decisions(cfg), by the state's mixed-radix code
(server 0 most significant), or draws a RandomPolicy's
Generator.integers(num) once per slot on the policy stream in C. The
Python kernel asks every policy its selector(rng) once per slot, empty
slots included, RandomPolicy's selector drawing the same stream a
block at a time. One loop object holds the state in the arrays that
advance() of _slotloop.c updates in place, and picks its kernel once.
A table or RandomPolicy runs compiled; the system C compiler builds
that kernel on the first call, at most once per process, and it is
used only when its seeding and draws reproduce numpy's. The Python
kernel is its reference and the fallback: it runs when no compiler
built the loop or the self-test failed, and for any other policy (a
wrapper, a RandomPolicy subclass, a grid too large for a table). Both
kernels give bit-identical reports; the test suite checks the flow
identity next = current - departures + admissions slot by slot on each.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import stdtrit

from .model import SystemConfig, passive_kernel
from .policies import RandomPolicy

_CHUNK = 1 << 16


def _departure_cdfs(q: float, max_x: int) -> list[list[float]]:
    """Departure-count CDFs at lengths 0..max_x, one list per length.

    Row x is the reversed row x of passive_kernel(q, max_x), divided by
    its sum when roundoff leaves that off 1, with the last entry pinned
    to 1.
    """
    passive = passive_kernel(q, max_x)
    rows = []
    for x in range(max_x + 1):
        row = passive[x, x::-1]
        total = float(row.sum())
        if total != 1.0:
            row = row / total
        cdf = np.cumsum(row)
        cdf[-1] = 1.0
        rows.append(cdf.tolist())
    return rows


class _Bank(NamedTuple):
    """What the slot loop reads of a bank, whatever the seed.

    costs and cdfs (the _departure_cdfs rows per server) serve the
    Python kernel. arrays holds what the compiled kernel reads,
    read-only: the costs, every server's CDF rows back to back, each
    row followed by a sentinel 1.0 (so row x of a server starts x(x+3)/2
    past the server's first), the stride (the state code's place
    values, server 0 first), and a zero stride for a loop without a
    table, which never reads the code (a grid without one can pass
    2**64). addresses holds their addresses.
    """

    costs: tuple[float, ...]
    cdfs: tuple[list[list[float]], ...]
    arrays: tuple[np.ndarray, ...]
    addresses: tuple[int, ...]


@lru_cache(maxsize=8)
def _bank(cfg: SystemConfig) -> _Bank:
    """cfg's _Bank, built once per bank and shared read-only."""
    num, buffer = cfg.num_servers, cfg.buffer
    costs = tuple(s.cost_c for s in cfg.servers)
    cdfs = tuple(_departure_cdfs(s.q, buffer) for s in cfg.servers)
    stride = tuple((buffer + 1) ** (num - 1 - i) for i in range(num))
    # A table's grid fits 2**22, so a stride past int64 is never read.
    wide = stride[0] >= 2 ** 63
    arrays = (np.array(costs, float),
              np.concatenate([row + [1.0] for rows in cdfs for row in rows]),
              np.array((0,) * num if wide else stride, np.int64),
              np.zeros(num, np.int64))
    for a in arrays:
        a.flags.writeable = False
    return _Bank(costs, cdfs, arrays,
                 tuple(a.ctypes.data for a in arrays))


def _seeded(seed_streams, seed: int, streams: int) -> np.ndarray:
    """The words seed() of _slotloop.c fills for seed's streams.

    seed_streams is that seed(); the result is the PCG64 state of
    every child of SeedSequence(seed).spawn(streams), then their
    increments, then the last stream's 32-bit buffer, each value two
    little-endian uint64 words at a 16-byte boundary, the layout
    advance() reads and updates.
    """
    seed = operator.index(seed)
    words = max(1, -(-seed.bit_length() // 32))
    room = np.empty(4 * streams + 3, np.uint64)
    address = room.ctypes.data
    start = -address % 16 // 8
    seed_streams(seed.to_bytes(4 * words, "little"), words, streams,
                 address + 8 * start)
    return room[start:start + 4 * streams + 2]


# The self-test's seed: six 32-bit words, past SeedSequence's pool of
# four, so every step of its hashmix runs.
_SELF_TEST_SEED = 2 ** 165 + 20140905


def _reproduces_numpy(lib) -> bool:
    """Whether seed(), uniforms() and integers() of _slotloop.c give
    numpy's: the PCG64 states of SeedSequence(seed).spawn(3), and the
    first child's Generator.random() and Generator.integers() draws,
    the latter in odd counts so that a buffered 32-bit half carries
    over, and at a bound that rejects a quarter of them."""
    children = np.random.SeedSequence(_SELF_TEST_SEED).spawn(3)
    words = _seeded(lib.seed, _SELF_TEST_SEED, 3).tolist()
    states = [np.random.PCG64(c).state["state"] for c in children]
    values = ([s["state"] for s in states] + [s["inc"] for s in states]
              + [0])
    if words != [w for v in values for w in (v % 2 ** 64, v >> 64)]:
        return False
    gen = _seeded(lib.seed, _SELF_TEST_SEED, 1)
    rng = np.random.default_rng(children[0])
    got = np.empty(48)
    lib.uniforms(got.size, gen.ctypes.data, got.ctypes.data)
    if got.tolist() != rng.random(got.size).tolist():
        return False
    for num in (3, 3 * 2 ** 30 + 1):
        drawn = np.empty(47, np.int64)
        lib.integers(drawn.size, num, gen.ctypes.data, drawn.ctypes.data)
        if drawn.tolist() != rng.integers(num, size=drawn.size).tolist():
            return False
    return True


@cache
def _slot_loop():
    """_slotloop.c, compiled and loaded; None if it cannot be used.

    Built at most once per process: `cc` compiles the shipped source
    into a temporary directory and ctypes loads the result. Without a
    compiler, when the build or the load fails, or when the library
    does not reproduce numpy's seeding and draws (another stream in a
    future numpy, a big-endian host), the result is None and the
    compiler's output is swallowed.
    """
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return None
    source = Path(__file__).with_name("_slotloop.c")
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
        path = str(Path(tmp) / "_slotloop.so")
        try:
            import ctypes
            subprocess.run([cc, "-O2", "-ffp-contract=off", "-shared",
                            "-fPIC", "-o", path, str(source)],
                           capture_output=True, check=True, timeout=120)
            lib = ctypes.CDLL(path)
            entries = lib.advance, lib.seed, lib.uniforms, lib.integers
        except (ImportError, OSError, subprocess.SubprocessError):
            return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    signatures = ([i64] * 3 + [ptr] * 7 + [ctypes.c_double, ptr],
                  [ctypes.c_char_p, i64, i64, ptr], [i64, ptr, ptr],
                  [i64, i64, ptr, ptr])
    for entry, argtypes in zip(entries, signatures):
        entry.argtypes, entry.restype = argtypes, None
    return lib if _reproduces_numpy(lib) else None


class DepartureSampler:
    """Inverse-CDF sampling of the departure count at lengths 0..max_x.

    One uniform is consumed per call regardless of the current length.
    Its CDF rows come from _departure_cdfs, as both slot-loop kernels'.
    """

    def __init__(self, q: float, max_x: int):
        self.q = q
        self._cdfs = _departure_cdfs(q, max_x)

    def sample(self, x: int, u: float) -> int:
        if not 0 <= x < len(self._cdfs):
            raise ValueError(f"x must be in 0..{len(self._cdfs) - 1}, "
                             f"got {x}")
        if not 0 <= u < 1:
            raise ValueError(f"u must be in [0, 1), got {u}")
        return bisect_right(self._cdfs[x], u)


@dataclass(frozen=True)
class SimReport:
    policy: str
    seed: int
    horizon: int
    burn_in: int
    avg_cost: float
    mean_lengths: tuple[float, ...]
    drop_count: int
    cost_checkpoints: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ComparisonTable:
    reports: tuple[SimReport, ...]
    aggregates: dict  # policy name -> (mean avg_cost, 95% half-width)


class _SlotLoop:
    """The slot loop's streams, its state, and the kernel that advances
    it a block at a time.

    seed's streams are the num + 2 children of SeedSequence(seed): one
    per server's departures, then the arrivals, then the policy's. The
    state is the three arrays advance() of _slotloop.c updates in
    place: x, the queue lengths; counts, the state code and the drops;
    acc, the cost sum and then one length sum per server. The kernel is
    picked once. A decision table, or a RandomPolicy (no subclass: it
    may replace the selector), runs compiled when the loop was built:
    gen holds the streams as seed() of _slotloop.c seeds them, which
    advance() draws from and updates in place, the random choices
    included, and no numpy Generator is built. Otherwise the Python
    kernel runs, the reference and the fallback: streams holds the
    children as numpy Generators, the departure and arrival uniforms
    are drawn in numpy blocks, the policy's selector is asked once per
    slot, no table is built, and counts[0] stays at zero.
    """

    def __init__(self, cfg: SystemConfig, policy, seed: int):
        num = cfg.num_servers
        self.arrival_p, self.buffer = cfg.arrival_p, cfg.buffer
        self.x = np.zeros(num, np.int64)
        self.counts = np.zeros(2, np.int64)
        self.acc = np.zeros(num + 1)
        self.bank = bank = _bank(cfg)
        table_of = getattr(policy, "decisions", None)
        draws = type(policy) is RandomPolicy
        lib = _slot_loop() if table_of or draws else None
        dec = table_of(cfg) if lib and table_of else None
        if dec is None and not draws:
            lib = None
        self.compiled = lib.advance if lib is not None else None
        if lib is None:
            self.streams = [np.random.default_rng(child) for child
                            in np.random.SeedSequence(seed).spawn(num + 2)]
            self.select = policy.selector(self.streams[-1])
            return
        self.gen = _seeded(lib.seed, seed, num + 2)
        # args points into the arrays, gen and the bank, all kept here.
        costs, cdfs, stride, zero = bank.addresses
        self.args = (num, cfg.buffer, *(a.ctypes.data for a in
                                        (self.x, self.counts, self.acc)),
                     costs, cdfs, stride if dec is not None else zero,
                     self.gen.ctypes.data, cfg.arrival_p, dec)

    def advance(self, block: int) -> None:
        """Run the next block of slots on the next draws."""
        if self.compiled is None:
            *dep_rngs, arr_rng, _ = self.streams
            dep_u = np.empty((len(dep_rngs), block))
            for rng, row in zip(dep_rngs, dep_u):
                rng.random(out=row)
            self._python(dep_u, arr_rng.random(block) < self.arrival_p)
            return
        self.compiled(block, *self.args)

    def _python(self, dep_u: np.ndarray, arr: np.ndarray) -> None:
        x, buffer = self.x.tolist(), self.buffer
        bank, select = self.bank, self.select
        jobs = sum(x)
        cost_acc, *len_acc = self.acc.tolist()
        drops = int(self.counts[1])
        arr = arr.tolist()
        lanes = list(zip(range(len(x)), bank.costs, bank.cdfs,
                         (row.tolist() for row in dep_u)))
        for j in range(len(arr)):
            a = select(x)
            if jobs:
                slot_cost = 0.0
                for i, c, cdf, u in lanes:
                    xi = x[i]
                    if xi:
                        slot_cost += c * xi
                        len_acc[i] += xi
                        d = bisect_right(cdf[xi], u[j])
                        if d:
                            x[i] = xi - d
                            jobs -= d
                cost_acc += slot_cost
            if arr[j]:
                xa = x[a]
                if xa < buffer:
                    x[a] = xa + 1
                    jobs += 1
                else:
                    drops += 1
        self.x[:] = x
        self.counts[1] = drops
        self.acc[:] = [cost_acc, *len_acc]


def simulate(cfg: SystemConfig, policy, horizon: int, burn_in: int = 10_000,
             seed: int = 0, checkpoints: int = 0) -> SimReport:
    """Run one trajectory from the all-empty state.

    Costs and queue-length averages cover slots burn_in..horizon-1;
    drops are counted over the whole run. checkpoints > 0 additionally
    records that many evenly spaced running cost averages. A policy
    with a num_servers or a buffer must be built for cfg's.
    """
    if not 0 <= burn_in < horizon:
        raise ValueError("need 0 <= burn_in < horizon")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    num = cfg.num_servers
    if getattr(policy, "num_servers", num) != num:
        raise ValueError(f"policy {policy.name} is for {policy.num_servers} "
                         f"servers, the bank has {num}")
    if getattr(policy, "buffer", cfg.buffer) != cfg.buffer:
        raise ValueError(f"policy {policy.name} is for buffer "
                         f"{policy.buffer}, the bank has {cfg.buffer}")

    loop = _SlotLoop(cfg, policy, seed)

    measured = horizon - burn_in
    marks_at: set[int] = set()
    if checkpoints > 0:
        every = max(1, measured // checkpoints)
        marks_at = set(range(burn_in + every, horizon, every)) | {horizon}
    marks: list[tuple[int, float]] = []

    # Blocks end at burn_in, where the sums restart from zero, and at
    # each checkpoint, so no slot tests for either. How a generator's
    # draws are split into blocks, or which kernel draws them, does not
    # change its stream.
    stops = sorted({burn_in, horizon} - {0} | marks_at)
    t = 0
    for stop in stops:
        while t < stop:
            block = min(_CHUNK, stop - t)
            loop.advance(block)
            t += block
        if t == burn_in:
            loop.acc[:] = 0.0
        if t in marks_at:
            marks.append((t, float(loop.acc[0]) / (t - burn_in)))

    cost, *lengths = loop.acc.tolist()
    return SimReport(policy=policy.name, seed=seed, horizon=horizon,
                     burn_in=burn_in, avg_cost=cost / measured,
                     mean_lengths=tuple(v / measured for v in lengths),
                     drop_count=int(loop.counts[1]),
                     cost_checkpoints=tuple(marks))


def compare(cfg: SystemConfig, policies, horizon: int, burn_in: int,
            seeds) -> ComparisonTable:
    """Run every policy over every seed and aggregate the cost averages.

    Policies see identical arrival and departure randomness per seed.
    Returns per-run reports plus, per policy, the across-seed mean and
    its 95% Student-t half-width, t(n - 1, 0.975) * sd / sqrt(n) over
    n seeds (needs at least two seeds).
    """
    seeds = list(seeds)
    policies = list(policies)
    if len(policies) < 1:
        raise ValueError("need at least one policy")
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for confidence intervals")
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        raise ValueError("policy names must be distinct")
    reports = []
    for policy in policies:
        for seed in seeds:
            reports.append(simulate(cfg, policy, horizon, burn_in, seed))
    aggregates = {}
    t = float(stdtrit(len(seeds) - 1, 0.975))
    for name in names:
        vals = np.array([r.avg_cost for r in reports if r.policy == name])
        hw = t * float(vals.std(ddof=1)) / np.sqrt(len(vals))
        aggregates[name] = (float(vals.mean()), hw)
    return ComparisonTable(reports=tuple(reports), aggregates=aggregates)
