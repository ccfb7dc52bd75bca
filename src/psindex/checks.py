"""Numerical certification of the model's structural properties.

Each check re-verifies one claim the index policy leans on: exactness
of the departure law and of the active law built on it (both read from
the transition kernel that the solvers and the simulator use),
stationary-mass monotonicity and stochastic dominance of threshold
chains, the shape of the optimal threshold cost curve, threshold
structure and indexability of the single-queue problem, monotone
convex relative values, and the index table's agreement with the
bisection reference, its roots checked at the one fixed tolerance that
`psindex indices` uses. A solver that stalls inside a check fails that
check with its message, so the CLI `properties` subcommand runs the
whole list and reports pass/fail per item.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dp, threshold, whittle
from .config import ConvergenceError, SystemConfig
from .model import passive_kernel, transition_kernel

STRUCT_SLACK = 1e-9

# The (q, p) tenths with q > p on which the threshold-chain checks run.
CHAIN_GRID = [(float(q), float(p)) for q in np.arange(0.1, 1.0, 0.1)
              for p in np.arange(0.1, 1.0, 0.1) if q > p]
CHAIN_K_MAX = 40  # the chains 0..40 of the chain checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fails_on_convergence(name: str):
    """Turn a ConvergenceError inside the check into its FAIL row.

    The row carries the solver's message, so one stalled solver fails
    its own check and the suite still reports every row. It wraps the
    three checks that run an iterative or guarded value solve; the
    others only slice kernels or read the threshold ladder, which
    raises ValueError.
    """
    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            try:
                return check(*args, **kwargs)
            except ConvergenceError as e:
                return CheckResult(name, False, str(e))
        return run
    return wrap


def check_departure_law() -> CheckResult:
    """Each passive row has mass 1, and x - y has mean q when x >= 1."""
    x_max = 200
    states = np.arange(x_max + 1)
    shift = np.subtract.outer(states, states)  # departures x - y
    worst = 0.0
    for q in np.arange(0.05, 1.0, 0.1):
        passive = passive_kernel(q, x_max)
        mass = passive.sum(axis=1)
        mean = (passive * shift).sum(axis=1)[1:]
        worst = max(worst, float(np.max(np.abs(mass - 1.0))),
                    float(np.max(np.abs(mean - q), initial=0.0)))
    return CheckResult("departure_law_mean_and_mass", worst <= 1e-12,
                       f"max deviation {worst:.3e}")


def check_active_law_is_convolution() -> CheckResult:
    """Active rows must be passive rows convolved with the arrival.

    The last row is the kernel's buffer, so it checks the clamp as
    well; the passive matrix must be lower-triangular, since a passive
    server only loses jobs.
    """
    n = 31
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


def check_passive_shift_monotone() -> CheckResult:
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
        cdf = np.cumsum(passive_kernel(q, 60), axis=1)
        worst = max(worst, float(np.max(np.diff(cdf, axis=0), initial=0.0)))
    return CheckResult("passive_shift_monotone", worst <= 1e-12,
                       f"max CDF increase {worst:.3e}")


def check_stationary_mass_monotone() -> CheckResult:
    """The active mass 1 - pi(k+1) must not fall as k grows.

    It reads the top masses of chains -1..CHAIN_K_MAX of each (q, p) in
    CHAIN_GRID from one threshold.threshold_chains record.
    """
    worst = 0.0
    for q, p in CHAIN_GRID:
        mass = 1.0 - threshold.threshold_chains(q, p, CHAIN_K_MAX).top
        worst = min(worst, float(np.min(np.diff(mass), initial=0.0)))
    return CheckResult("stationary_mass_monotone", worst >= -1e-12,
                       f"min mass increment {worst:.3e}")


def check_chain_dominance() -> CheckResult:
    """Chain k+1 dominates chain k on CHAIN_GRID, k = 0..CHAIN_K_MAX.

    threshold.tail_dominance gives every k of a (q, p) from one kernel.
    """
    for q, p in CHAIN_GRID:
        dominated = threshold.tail_dominance(
            *transition_kernel(q, p, CHAIN_K_MAX + 2))[1:]
        if not dominated.all():
            return CheckResult("chain_dominance", False,
                               f"failed at k={np.argmin(dominated)}, "
                               f"q={q:.1f}, p={p:.1f}")
    return CheckResult("chain_dominance", True, "all grid points dominated")


def check_threshold_cost_curve(cfg: SystemConfig) -> CheckResult:
    """Optimal threshold cost: concave, non-decreasing, slope <= 1."""
    lams = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    for s in cfg.servers:
        beta, _ = threshold.optimal_threshold_costs(
            lams, s.cost_c, s.q, cfg.arrival_p)
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


@_fails_on_convergence("value_solver_consistency")
def check_value_solver_consistency(cfg: SystemConfig) -> CheckResult:
    """Fixed-threshold solve must reproduce the chain's average cost."""
    worst = 0.0
    lams = [-5.0, 0.0, 2.5, 10.0]
    for s in cfg.servers:
        betas, args = threshold.optimal_threshold_costs(
            lams, s.cost_c, s.q, cfg.arrival_p)
        for lam, beta_min, k in zip(lams, betas.tolist(), args.tolist()):
            sol = whittle.solve_value(lam, k, s, cfg.arrival_p, max(k + 1, 1))
            worst = max(worst, abs(sol.beta - beta_min))
    return CheckResult("value_solver_consistency", worst <= 1e-6,
                       f"max |beta gap| {worst:.3e}")


@_fails_on_convergence("single_queue_structure")
def check_single_queue_structure(cfg: SystemConfig) -> CheckResult:
    """Threshold policies, indexability, monotone convex values.

    Sweeps the charge grid per server, asserting the greedy active set
    is a downward-closed interval, the threshold never decreases in
    lam, V is non-decreasing with non-decreasing increments on the
    recurrent range (a convexity the model can break: defect 9 in
    ROADMAP.md), and the admission gain is monotone. Each RVI starts
    at the previous charge's values; the first charge, -20, lies below
    every index (state 0's is c p / q > 0), so the first starts at the
    never-active rule's exact values, or at zeros where c x overflows.
    """
    lams = np.arange(-20.0, 20.0 + 1e-9, 0.5)
    n = 120
    half = n // 2
    for s in cfg.servers:
        v_warm = dp._never_active_values(s, n)
        prev_k = None
        for lam in lams:
            sol = dp.single_queue_rvi(float(lam), s, cfg.arrival_p, n, v_warm)
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
            dv = sol.v[1:top + 1] - sol.v[:top]
            monotone = dv.size == 0 or dv.min() >= -STRUCT_SLACK
            convex = dv.size < 2 or (dv[1:] - dv[:-1]).min() >= -STRUCT_SLACK
            if not (monotone and convex):
                return CheckResult("single_queue_structure", False,
                                   f"value structure broken at q={s.q}, "
                                   f"lam={lam:g}")
            gain = dp.admission_gain_profile(sol.v, s.q, cfg.arrival_p)
            if (gain[1:half] - gain[:half - 1]).min() < -STRUCT_SLACK:
                return CheckResult("single_queue_structure", False,
                                   f"admission gain not monotone at q={s.q}, "
                                   f"lam={lam:g}")
    return CheckResult("single_queue_structure", True,
                       f"{len(cfg.servers)} servers, {len(lams)} charges")


@_fails_on_convergence("index_agreement")
def check_index_agreement(cfg: SystemConfig) -> CheckResult:
    """The shipped index table vs the bisection reference.

    Builds the table as `psindex indices` does, each cell's gap checked
    at the fixed IndexIterationConfig.tol, and compares every cell
    x <= 10 with bisect_index on the same states 0..x+1. A solver
    that fails fails the check with its message, which names the server
    and state.
    """
    table = whittle.build_index_table(cfg, 10)
    worst = 0.0
    for i, s in enumerate(cfg.servers):
        for x in range(table.x_max + 1):
            try:
                ref = whittle.bisect_index(x, s, cfg.arrival_p, x + 1)
            except ConvergenceError as e:
                return CheckResult("index_agreement", False,
                                   f"server {i}, state {x}: {e}")
            worst = max(worst, abs(float(table.entries[i, x]) - ref))
    return CheckResult("index_agreement", worst <= 1e-4,
                       f"max |table - bisection| {worst:.3e}")


def run_property_suite(cfg: SystemConfig) -> list[CheckResult]:
    return [
        check_departure_law(),
        check_active_law_is_convolution(),
        check_passive_shift_monotone(),
        check_stationary_mass_monotone(),
        check_chain_dominance(),
        check_threshold_cost_curve(cfg),
        check_value_solver_consistency(cfg),
        check_single_queue_structure(cfg),
        check_index_agreement(cfg),
    ]
