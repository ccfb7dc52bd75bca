"""Discrete-time simulation of the server bank under a selection rule.

Each slot records the holding cost of the pre-transition state, asks
the policy for the active server, then draws departures for every
queue and at most one Bernoulli arrival routed to the active queue,
clamping at the buffer. One master seed expands into independent
per-server departure streams, an arrival stream, and a policy stream,
so different policies under the same seed face identical randomness.
Departures are drawn by inverting per-length CDFs that are built once
per run from one broadcast binomial evaluation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .model import SystemConfig

_CHUNK = 1 << 16


class DepartureSampler:
    """Inverse-CDF sampling of the departure count at any queue length.

    One uniform is consumed per call regardless of the current length,
    which keeps the departure streams aligned across policies. All rows
    come from one broadcast binomial evaluation; each is normalised the
    way departure_pmf normalises, so the CDFs match it bit for bit.
    """

    def __init__(self, q: float, max_x: int):
        if not (0.0 < q < 1.0):
            raise ValueError("q must lie in (0,1)")
        self.q = q
        xs = np.arange(max_x + 1)
        # Row x is Binomial(x, q/x); an empty server has the point mass
        # Binomial(0, q) at zero.
        pmf = binom.pmf(xs[None, :], xs[:, None],
                        q / np.maximum(xs, 1)[:, None])
        self._cdfs = []
        for x in range(max_x + 1):
            row = pmf[x, : x + 1]
            total = float(row.sum())
            if total != 1.0:
                row = row / total
            cdf = np.cumsum(row).tolist()
            cdf[-1] = 1.0
            self._cdfs.append(cdf)

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
    records that many evenly spaced running cost averages.
    """
    if not 0 <= burn_in < horizon:
        raise ValueError("need 0 <= burn_in < horizon")
    num = cfg.num_servers
    buffer = cfg.buffer
    costs = [s.cost_c for s in cfg.servers]

    seq = np.random.SeedSequence(seed)
    children = seq.spawn(num + 2)
    dep_rngs = [np.random.default_rng(c) for c in children[:num]]
    arr_rng = np.random.default_rng(children[num])
    pol_rng = np.random.default_rng(children[num + 1])

    samplers = [DepartureSampler(s.q, buffer) for s in cfg.servers]
    select = policy.selector(pol_rng)

    x = [0] * num
    cost_acc = 0.0
    len_acc = [0.0] * num
    drops = 0
    measured = horizon - burn_in
    check_every = max(1, measured // checkpoints) if checkpoints > 0 else 0
    marks: list[tuple[int, float]] = []
    guard_until = min(horizon, 10_000) if debug_conservation else 0

    t = 0
    while t < horizon:
        block = min(_CHUNK, horizon - t)
        dep_u = [rng.random(block).tolist() for rng in dep_rngs]
        arr = (arr_rng.random(block) < cfg.arrival_p).tolist()
        for j in range(block):
            if t >= burn_in:
                slot_cost = 0.0
                for i in range(num):
                    slot_cost += costs[i] * x[i]
                    len_acc[i] += x[i]
                cost_acc += slot_cost
            a = select(x)
            guard = t < guard_until
            if guard:
                before = list(x)
                drawn = [0] * num
            for i in range(num):
                d = samplers[i].sample(x[i], dep_u[i][j])
                if guard:
                    drawn[i] = d
                x[i] -= d
            admitted = 0
            if arr[j]:
                if x[a] < buffer:
                    x[a] += 1
                    admitted = 1
                else:
                    drops += 1
            if guard:
                for i in range(num):
                    gain = admitted if i == a else 0
                    if x[i] != before[i] - drawn[i] + gain:
                        raise AssertionError("flow conservation violated at "
                                             f"slot {t}, server {i}")
                    if not 0 <= drawn[i] <= before[i]:
                        raise AssertionError("departures exceed queue length "
                                             f"at slot {t}, server {i}")
            if check_every and t >= burn_in:
                done = t - burn_in + 1
                if done % check_every == 0 or done == measured:
                    marks.append((t + 1, cost_acc / done))
            t += 1

    return SimReport(policy=policy.name, seed=seed, horizon=horizon,
                     burn_in=burn_in, avg_cost=cost_acc / measured,
                     mean_lengths=tuple(v / measured for v in len_acc),
                     drop_count=drops,
                     cost_checkpoints=tuple(marks))


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
