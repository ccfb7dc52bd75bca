"""Numerical certification of the model's structural properties.

Each check re-verifies one claim the index policy leans on: exactness
of the departure law and of the active law built on it (both read from
the transition kernel that the solvers and the simulator use),
stationary-mass monotonicity and stochastic dominance of threshold
chains, the shape of the optimal threshold cost curve, threshold
structure and indexability of the single-queue problem, and monotone
convex relative values. The CLI `properties` subcommand runs the whole
list and reports pass/fail per item.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dp, threshold, whittle
from .model import SystemConfig, _binomial_block, passive_kernel, \
    transition_kernel

STRUCT_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_departure_law(x_max: int = 200) -> CheckResult:
    """Each passive row has mass 1, and x - y has mean q when x >= 1."""
    states = np.arange(x_max + 1)
    shift = np.subtract.outer(states, states)  # departures x - y
    worst = 0.0
    for q in np.arange(0.05, 1.0, 0.1):
        # No sweep reads these values of q: build them at this size,
        # outside the block cache, so the sweeps' blocks stay cached.
        passive = _binomial_block(float(q), x_max + 1)
        mass = passive.sum(axis=1)
        mean = (passive * shift).sum(axis=1)[1:]
        worst = max(worst, float(np.max(np.abs(mass - 1.0))),
                    float(np.max(np.abs(mean - q), initial=0.0)))
    return CheckResult("departure_law_mean_and_mass", worst <= 1e-12,
                       f"max deviation {worst:.3e}")


def check_active_law_is_convolution(x_max: int = 30) -> CheckResult:
    """Active rows must be passive rows convolved with the arrival.

    The kernel's buffer sits at x_max + 1, so the last row checks the
    clamp as well; the passive matrix must be lower-triangular, since
    a passive server only loses jobs.
    """
    n = x_max + 1
    worst = 0.0
    for q, p in ((0.5, 0.4), (0.9, 0.2), (0.3, 0.25)):
        active, passive = transition_kernel(q, p, n)
        escapes = np.flatnonzero(np.triu(passive, 1).any(axis=1))
        if escapes.size:
            return CheckResult("active_law_convolution", False,
                               f"passive support escapes [0,{escapes[0]}]")
        for x in range(n + 1):
            conv = np.convolve(passive[x], (1.0 - p, p))
            conv[n] += conv[n + 1]  # clamp at the buffer
            worst = max(worst, float(np.max(np.abs(active[x]
                                                   - conv[:n + 1]))))
    return CheckResult("active_law_convolution", worst <= 1e-12,
                       f"max gap {worst:.3e}")


def check_passive_shift_monotone(x_max: int = 60) -> CheckResult:
    """A longer backlog stays stochastically longer after departures.

    The departure counts themselves cannot be stochastically ordered
    across x (they share the mean q), but the post-departure length
    x - D is: its CDF, the cumulative sum of passive row x, falls
    pointwise as x grows. This row monotonicity is what the
    chain-dominance argument rests on.
    """
    worst = 0.0
    for q in (0.2, 0.5, 0.8, 0.95):
        # Entry [x, j] is P(x - D <= j).
        cdf = np.cumsum(passive_kernel(q, x_max), axis=1)
        worst = max(worst, float(np.max(np.diff(cdf, axis=0), initial=0.0)))
    return CheckResult("passive_shift_monotone", worst <= 1e-12,
                       f"max CDF increase {worst:.3e}")


def check_stationary_mass_monotone(k_max: int = 40) -> CheckResult:
    worst = 0.0
    for q in np.arange(0.1, 1.0, 0.1):
        for p in np.arange(0.1, 1.0, 0.1):
            if q <= p:
                continue
            prev = None
            for k in range(0, k_max + 1):
                mass = threshold.cumulative_active_mass(k, float(q), float(p))
                if prev is not None:
                    worst = min(worst, mass - prev)
                prev = mass
    return CheckResult("stationary_mass_monotone", worst >= -1e-12,
                       f"min mass increment {worst:.3e}")


def check_chain_dominance(k_max: int = 40) -> CheckResult:
    for q in np.arange(0.1, 1.0, 0.1):
        for p in np.arange(0.1, 1.0, 0.1):
            if q <= p:
                continue
            for k in range(0, k_max + 1):
                if not threshold.dominance_check(k, float(q), float(p)):
                    return CheckResult(
                        "chain_dominance", False,
                        f"failed at k={k}, q={q:.1f}, p={p:.1f}")
    return CheckResult("chain_dominance", True, "all grid points dominated")


def check_threshold_cost_curve(cfg: SystemConfig, k_max: int = 60
                               ) -> CheckResult:
    """Optimal threshold cost: concave, non-decreasing, slope <= 1."""
    lams = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    for s in cfg.servers:
        beta = np.array([threshold.optimal_threshold_cost(
            float(l), s.cost_c, s.q, cfg.arrival_p, k_max)[0] for l in lams])
        d1 = np.diff(beta)
        d2 = np.diff(d1)
        unit = beta[4:] - beta[:-4]  # grid step is 0.25
        if np.min(d1) < -STRUCT_SLACK:
            return CheckResult("threshold_cost_curve", False,
                               f"decreasing at q={s.q}")
        if np.max(d2) > STRUCT_SLACK:
            return CheckResult("threshold_cost_curve", False,
                               f"convex kink at q={s.q}")
        if np.max(unit) > 1.0 + STRUCT_SLACK:
            return CheckResult("threshold_cost_curve", False,
                               f"unit increment above 1 at q={s.q}")
    return CheckResult("threshold_cost_curve", True,
                       f"{len(cfg.servers)} servers over {len(lams)} charges")


def check_value_solver_consistency(cfg: SystemConfig) -> CheckResult:
    """Fixed-threshold solve must reproduce the chain's average cost."""
    worst = 0.0
    for s in cfg.servers:
        for lam in (-5.0, 0.0, 2.5, 10.0):
            beta_min, k = threshold.optimal_threshold_cost(
                lam, s.cost_c, s.q, cfg.arrival_p, 60)
            sol = whittle.solve_value(lam, k, s, cfg.arrival_p, max(k + 1, 1))
            worst = max(worst, abs(sol.beta - beta_min))
    return CheckResult("value_solver_consistency", worst <= 1e-6,
                       f"max |beta gap| {worst:.3e}")


def check_single_queue_structure(cfg: SystemConfig, n: int = 120,
                                 lam_step: float = 0.5) -> CheckResult:
    """Threshold policies, indexability, monotone convex values.

    Sweeps the charge grid per server, asserting the greedy active set
    is a downward-closed interval, the threshold never decreases in
    lam, V is non-decreasing with non-decreasing increments on the
    recurrent range, and the admission gain is monotone.
    """
    lams = np.arange(-20.0, 20.0 + 1e-9, lam_step)
    half = n // 2
    for s in cfg.servers:
        v_warm = None
        prev_k = None
        for lam in lams:
            sol = dp.single_queue_rvi(float(lam), s, cfg.arrival_p, n,
                                      tol=1e-10, v_init=v_warm)
            v_warm = sol.v
            k, interval = dp.active_interval(sol.policy, upto=half)
            if not interval:
                return CheckResult("single_queue_structure", False,
                                   f"active set not an interval at q={s.q}, "
                                   f"lam={lam:g}")
            if prev_k is not None and k < prev_k:
                return CheckResult("single_queue_structure", False,
                                   f"threshold dropped at q={s.q}, "
                                   f"lam={lam:g}")
            prev_k = k
            top = max(k + 1, 1)
            dv = np.diff(sol.v[: top + 1])
            monotone = dv.size == 0 or np.min(dv) >= -STRUCT_SLACK
            convex = dv.size < 2 or np.min(np.diff(dv)) >= -STRUCT_SLACK
            if not (monotone and convex):
                return CheckResult("single_queue_structure", False,
                                   f"value structure broken at q={s.q}, "
                                   f"lam={lam:g}")
            gain = dp.admission_gain_profile(sol.v, s.q, cfg.arrival_p)
            if np.min(np.diff(gain[:half])) < -STRUCT_SLACK:
                return CheckResult("single_queue_structure", False,
                                   f"admission gain not monotone at q={s.q}, "
                                   f"lam={lam:g}")
    return CheckResult("single_queue_structure", True,
                       f"{len(cfg.servers)} servers, {len(lams)} charges")


def check_index_agreement(
        cfg: SystemConfig, x_max: int = 10,
        iter_cfg: whittle.IndexIterationConfig | None = None) -> CheckResult:
    """Incremental index iteration vs the bisection reference.

    iter_cfg sets gamma, tol and max_iter of the iteration; each state
    is warm-started at the previous state's index. Both solve state x on
    states 0..x+1, as the index table does.
    """
    base = iter_cfg or whittle.IndexIterationConfig()
    worst = 0.0
    for s in cfg.servers:
        warm = base.lambda0
        for x in range(0, x_max + 1):
            lam = whittle.compute_index(x, s, cfg.arrival_p, x + 1,
                                        replace(base, lambda0=warm))
            ref = whittle.bisect_index(x, s, cfg.arrival_p, x + 1)
            worst = max(worst, abs(lam - ref))
            warm = lam
    return CheckResult("index_agreement", worst <= 1e-4,
                       f"max |incremental - bisection| {worst:.3e}")


def run_property_suite(
        cfg: SystemConfig,
        iter_cfg: whittle.IndexIterationConfig | None = None
) -> list[CheckResult]:
    return [
        check_departure_law(),
        check_active_law_is_convolution(),
        check_passive_shift_monotone(),
        check_stationary_mass_monotone(),
        check_chain_dominance(),
        check_threshold_cost_curve(cfg),
        check_value_solver_consistency(cfg),
        check_single_queue_structure(cfg),
        check_index_agreement(cfg, iter_cfg=iter_cfg),
    ]
