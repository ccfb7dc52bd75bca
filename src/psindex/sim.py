"""Discrete-time simulation of the server bank under a selection rule.

Each slot records the holding cost of the pre-transition state, asks
the policy for the active server, then draws departures for every
queue and at most one Bernoulli arrival routed to the active queue,
clamping at the buffer. One master seed expands into independent
per-server departure streams, an arrival stream, and a policy stream,
so different policies under the same seed face identical randomness.
Departures are drawn by inverting per-length CDFs, read once per
(q, buffer) from the reversed rows of model.passive_kernel and cached.

Every stream is drawn in blocks and each slot consumes its uniforms
whether or not it uses them, so the fast paths below change no
report. An empty queue always has zero departures, so it does no
bisection, and a slot with every queue empty adds nothing to the
cost or length sums and draws no departure at all.

The loop keeps the state's mixed-radix code (server 0 most
significant) next to the lengths; it is zero exactly in the all-empty
state. A policy whose decisions(cfg) gives a table is read there by
that code; any other policy (the random rule, a wrapper, a grid too
large for a table) is asked through its selector once per slot, empty
slots included.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import SystemConfig, passive_kernel

_CHUNK = 1 << 16


@lru_cache(maxsize=32)
def _departure_cdfs(q: float, max_x: int) -> tuple[list[float], ...]:
    """Departure-count CDFs at lengths 0..max_x, shared across calls.

    Row x is the reversed row x of passive_kernel(q, max_x), divided by
    its sum when roundoff leaves that off 1, with the last entry pinned
    to 1. The rows are cached and shared: never mutate them.
    """
    passive = passive_kernel(q, max_x)
    cdfs = []
    for x in range(max_x + 1):
        row = passive[x, x::-1]
        total = float(row.sum())
        if total != 1.0:
            row = row / total
        cdf = np.cumsum(row).tolist()
        cdf[-1] = 1.0
        cdfs.append(cdf)
    return tuple(cdfs)


class DepartureSampler:
    """Inverse-CDF sampling of the departure count at any queue length.

    One uniform is consumed per call regardless of the current length.
    The CDF rows are the cached ones simulate bisects directly.
    """

    def __init__(self, q: float, max_x: int):
        self.q = q
        self._cdfs = list(_departure_cdfs(q, max_x))

    def sample(self, x: int, u: float) -> int:
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


def simulate(cfg: SystemConfig, policy, horizon: int, burn_in: int = 10_000,
             seed: int = 0, debug_conservation: bool = False,
             checkpoints: int = 0) -> SimReport:
    """Run one trajectory from the all-empty state.

    Costs and queue-length averages cover slots burn_in..horizon-1;
    drops are counted over the whole run. With debug_conservation the
    flow identity next = current - departures + admissions is asserted
    on the first ten thousand slots. checkpoints > 0 additionally
    records that many evenly spaced running cost averages. A policy
    with a num_servers must be built for cfg's number of servers.
    """
    if not 0 <= burn_in < horizon:
        raise ValueError("need 0 <= burn_in < horizon")
    num = cfg.num_servers
    if getattr(policy, "num_servers", num) != num:
        raise ValueError(f"policy {policy.name} is for {policy.num_servers} "
                         f"servers, the bank has {num}")
    buffer = cfg.buffer
    costs = [s.cost_c for s in cfg.servers]

    seq = np.random.SeedSequence(seed)
    children = seq.spawn(num + 2)
    dep_rngs = [np.random.default_rng(c) for c in children[:num]]
    arr_rng = np.random.default_rng(children[num])
    pol_rng = np.random.default_rng(children[num + 1])

    cdfs = [_departure_cdfs(s.q, buffer) for s in cfg.servers]
    table_of = getattr(policy, "decisions", None)
    dec = table_of(cfg) if table_of is not None else None
    select = policy.selector(pol_rng) if dec is None else None
    stride = [(buffer + 1) ** (num - 1 - i) for i in range(num)]

    x = [0] * num
    code = 0  # sum of x[i] * stride[i]
    cost_acc = 0.0
    len_acc = [0.0] * num
    drops = 0
    measured = horizon - burn_in
    check_every = max(1, measured // checkpoints) if checkpoints > 0 else 0
    marks: list[tuple[int, float]] = []
    guard_until = min(horizon, 10_000) if debug_conservation else 0

    # Blocks end at burn_in, where the sums restart from zero, and at
    # guard_until, so neither needs a test per slot. How a generator's
    # draws are split into blocks does not change its stream.
    stops = sorted({s for s in (burn_in, guard_until) if s > 0} | {horizon})
    t = 0
    for stop in stops:
        guard = t < guard_until
        marking = check_every and t >= burn_in
        while t < stop:
            block = min(_CHUNK, stop - t)
            dep_u = [rng.random(block).tolist() for rng in dep_rngs]
            arr = (arr_rng.random(block) < cfg.arrival_p).tolist()
            lanes = list(zip(range(num), costs, cdfs, dep_u, stride))
            for j in range(block):
                a = dec[code] if dec is not None else select(x)
                if guard:
                    before = list(x)
                if code:
                    slot_cost = 0.0
                    for i, c, cdf, u, st in lanes:
                        xi = x[i]
                        if xi:
                            slot_cost += c * xi
                            len_acc[i] += xi
                            d = bisect_right(cdf[xi], u[j])
                            if d:
                                x[i] = xi - d
                                code -= d * st
                    cost_acc += slot_cost
                if guard:
                    mid = list(x)
                if arr[j]:
                    xa = x[a]
                    if xa < buffer:
                        x[a] = xa + 1
                        code += stride[a]
                    else:
                        drops += 1
                if guard:
                    _check_flow(t + j, before, mid, x,
                                a if arr[j] else -1, buffer)
                    if code != sum(map(int.__mul__, x, stride)):
                        raise AssertionError("state code out of step "
                                             f"at slot {t + j}")
                if marking:
                    done = t + j + 1 - burn_in
                    if done % check_every == 0 or done == measured:
                        marks.append((t + j + 1, cost_acc / done))
            t += block
        if t == burn_in:
            cost_acc = 0.0
            len_acc = [0.0] * num

    return SimReport(policy=policy.name, seed=seed, horizon=horizon,
                     burn_in=burn_in, avg_cost=cost_acc / measured,
                     mean_lengths=tuple(v / measured for v in len_acc),
                     drop_count=drops,
                     cost_checkpoints=tuple(marks))


def _check_flow(t: int, before, mid, after, arrived: int, buffer: int):
    """Assert next = current - departures + admissions for one slot.

    before, mid and after are the lengths at the slot's start, after
    its departures and after its arrival; arrived is the queue the
    slot's arrival went to, or -1 when there was none.
    """
    for i in range(len(after)):
        gain = 1 if i == arrived and mid[i] < buffer else 0
        if after[i] != mid[i] + gain:
            raise AssertionError("flow conservation violated at "
                                 f"slot {t}, server {i}")
        if not 0 <= before[i] - mid[i] <= before[i]:
            raise AssertionError("departures exceed queue length "
                                 f"at slot {t}, server {i}")


def compare(cfg: SystemConfig, policies, horizon: int, burn_in: int,
            seeds) -> ComparisonTable:
    """Run every policy over every seed and aggregate the cost averages.

    Policies see identical arrival and departure randomness per seed.
    Returns per-run reports plus, per policy, the across-seed mean and
    a 95% normal-approximation half-width (needs at least two seeds).
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
    for name in names:
        vals = np.array([r.avg_cost for r in reports if r.policy == name])
        hw = 1.96 * float(vals.std(ddof=1)) / np.sqrt(len(vals))
        aggregates[name] = (float(vals.mean()), hw)
    return ComparisonTable(reports=tuple(reports), aggregates=aggregates)
