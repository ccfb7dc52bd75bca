"""Acceptance suite: eleven numbered criteria, one verdict line each.

Each test prints (and records for the terminal summary) a single
criterion line before asserting, so a red run still shows every
verdict. Heavy artifacts (simulations, charge sweeps, index ladders)
live in session fixtures shared across criteria.
"""

import numpy as np
import pytest

import conftest
from psindex import (CmuPolicy, IndexIterationConfig, RandomPolicy,
                     ServerParams, SystemConfig, WhittlePolicy,
                     active_interval, admission_gain_profile, bisect_index,
                     brute_force_policy_search, build_index_table, compare,
                     compute_index, cumulative_active_mass,
                     DepartureSampler, dominance_check,
                     joint_policy_average_cost, joint_rvi,
                     optimal_threshold_cost, passive_kernel,
                     policy_reachable_states, simulate, single_queue_rvi,
                     solve_value, threshold_average_cost)

HORIZON = 1_000_000
BURN_IN = 10_000
SEEDS = range(10)

FIGS = {
    "fig3": SystemConfig(arrival_p=0.4, buffer=100, servers=(
        ServerParams(q=0.55, cost_c=30.0),
        ServerParams(q=0.50, cost_c=29.0),
        ServerParams(q=0.45, cost_c=28.0))),
    "fig4": SystemConfig(arrival_p=0.4, buffer=100, servers=(
        ServerParams(q=0.95, cost_c=30.0),
        ServerParams(q=0.50, cost_c=29.0),
        ServerParams(q=0.45, cost_c=28.0))),
    "fig5": SystemConfig(arrival_p=0.4, buffer=100, servers=(
        ServerParams(q=0.55, cost_c=40.0),
        ServerParams(q=0.50, cost_c=23.0),
        ServerParams(q=0.45, cost_c=16.0))),
}

GAP_CFG = SystemConfig(arrival_p=0.4, buffer=25, servers=(
    ServerParams(q=0.55, cost_c=100.0),
    ServerParams(q=0.50, cost_c=90.0)))

# (q, p, cost_c) with q > p: the reference servers plus varied corners.
TRIPLES = [
    (0.55, 0.40, 30.0), (0.50, 0.40, 29.0), (0.45, 0.40, 28.0),
    (0.95, 0.40, 30.0), (0.55, 0.40, 40.0), (0.50, 0.40, 23.0),
    (0.45, 0.40, 16.0), (0.55, 0.40, 100.0), (0.50, 0.40, 90.0),
    (0.45, 0.40, 80.0), (0.60, 0.30, 12.0), (0.45, 0.30, 11.0),
    (0.70, 0.20, 8.0), (0.90, 0.50, 15.0), (0.80, 0.60, 25.0),
    (0.35, 0.25, 20.0), (0.65, 0.45, 18.0), (0.85, 0.15, 6.0),
    (0.75, 0.35, 9.0), (0.60, 0.50, 35.0),
]

SWEEP_N = 120
SWEEP_UPTO = 60
LAM_GRID = np.arange(-20.0, 20.0 + 1e-9, 0.5)
STRUCT_SLACK = 1e-9

LADDER_SERVER = ServerParams(q=0.55, cost_c=30.0)
LADDER_N = 120
DP_GRID_STEP = 0.05


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    conftest.record_verdict(line)
    print(line)
    return ok


# ---------------------------------------------------------------- #
# session fixtures                                                 #
# ---------------------------------------------------------------- #


@pytest.fixture(scope="session")
def fig_comparisons():
    """Whittle vs Cmu vs Random on the three reference banks."""
    out = {}
    for label, cfg in FIGS.items():
        table = build_index_table(cfg, x_max=40)
        policies = [WhittlePolicy(table, max_state=cfg.buffer),
                    CmuPolicy(cfg.servers),
                    RandomPolicy(cfg.num_servers)]
        out[label] = compare(cfg, policies, horizon=HORIZON,
                             burn_in=BURN_IN, seeds=SEEDS)
    return out


@pytest.fixture(scope="session")
def structure_sweep():
    """Charge sweep shared by the four structural criteria.

    For each (q, p, C) triple and each lam on the grid, one relative
    value iteration at truncation 120 (tolerance 1e-10, warm-started
    along the grid), recording the greedy active set, the threshold,
    the value increments on the recurrent range, and the admission
    gain increments below the truncation's half.
    """
    records = []
    for q, p, c in TRIPLES:
        server = ServerParams(q=q, cost_c=c)
        v = None
        ks = []
        interval_bad = 0
        value_bad = 0
        gain_bad = 0
        for lam in LAM_GRID:
            sol = single_queue_rvi(float(lam), server, p, SWEEP_N,
                                   tol=1e-10, v_init=v)
            v = sol.v
            k, interval = active_interval(sol.policy, upto=SWEEP_UPTO)
            ks.append(k)
            if not interval:
                interval_bad += 1
            top = max(k + 1, 1)
            dv = np.diff(sol.v[: top + 1])
            if dv.size and float(np.min(dv)) < -STRUCT_SLACK:
                value_bad += 1
            if dv.size >= 2 and float(np.min(np.diff(dv))) < -STRUCT_SLACK:
                value_bad += 1
            gain = admission_gain_profile(sol.v, q, p)[:SWEEP_UPTO]
            if float(np.min(np.diff(gain))) < -STRUCT_SLACK:
                gain_bad += 1
        records.append({"triple": (q, p, c), "ks": ks,
                        "interval_bad": interval_bad,
                        "value_bad": value_bad, "gain_bad": gain_bad})
    return records


@pytest.fixture(scope="session")
def index_ladder():
    """Indices of states 0..40 by both routes, plus DP grid flips.

    The flip for state x is the smallest multiple of 0.05 at which the
    value-iteration greedy action at x turns active; activity in the
    charge is monotone, so probing the four grid points around the
    computed index brackets the flip.
    """
    inc = []
    warm = 0.0
    for x in range(41):
        lam = compute_index(x, LADDER_SERVER, 0.4, LADDER_N,
                            IndexIterationConfig(lambda0=warm))
        inc.append(lam)
        warm = lam
    bis = [bisect_index(x, LADDER_SERVER, 0.4, LADDER_N) for x in range(41)]

    flips = []
    v = None

    def active_at(lam, x):
        nonlocal v
        sol = single_queue_rvi(float(lam), LADDER_SERVER, 0.4, LADDER_N,
                               tol=1e-10, v_init=v)
        v = sol.v
        return bool(sol.policy[x])

    for x, lam in enumerate(inc):
        base = np.floor(lam / DP_GRID_STEP) * DP_GRID_STEP
        grid = [base + j * DP_GRID_STEP for j in (-1, 0, 1, 2)]
        activity = [active_at(g, x) for g in grid]
        if activity[0]:
            # Active across the whole window: the flip sits at or below
            # the left edge, still within one step of lam.
            flip = grid[0]
        else:
            flip = next((g for g, a in zip(grid, activity) if a), None)
        flips.append(flip)
    return {"inc": inc, "bis": bis, "flips": flips}


# ---------------------------------------------------------------- #
# criteria                                                         #
# ---------------------------------------------------------------- #


def test_criterion_01_policy_ordering(fig_comparisons):
    parts = []
    ok = True
    for label, table in fig_comparisons.items():
        w_mean, w_hw = table.aggregates["whittle"]
        c_mean, _ = table.aggregates["cmu"]
        r_mean, r_hw = table.aggregates["random"]
        ordered = w_mean <= c_mean <= r_mean
        separated = (r_mean - w_mean) > (w_hw + r_hw)
        ok = ok and ordered and separated
        parts.append(f"{label} whittle {w_mean:.2f} <= cmu {c_mean:.2f} "
                     f"<= random {r_mean:.2f}, gap {r_mean - w_mean:.2f} "
                     f"> hw {w_hw + r_hw:.2f}")
    assert verdict(1, "policy ordering", ok, "; ".join(parts))


def test_criterion_02_suboptimality_gap():
    beta_opt = joint_rvi(GAP_CFG).beta
    table = build_index_table(GAP_CFG, x_max=GAP_CFG.buffer)
    policy = WhittlePolicy(table, max_state=GAP_CFG.buffer)
    costs = np.array([simulate(GAP_CFG, policy, HORIZON, BURN_IN, seed).avg_cost
                      for seed in SEEDS])
    mean = float(costs.mean())
    hw = 1.96 * float(costs.std(ddof=1)) / np.sqrt(len(costs))
    gap_pct = 100.0 * (mean - beta_opt) / beta_opt
    ok = mean >= beta_opt - hw and mean <= 1.15 * beta_opt
    assert verdict(2, "suboptimality gap", ok,
                   f"whittle {mean:.3f} (hw {hw:.3f}) vs beta_opt "
                   f"{beta_opt:.3f}, gap {gap_pct:+.2f}% (limit 15%)")


def test_criterion_03_threshold_structure(structure_sweep):
    bad = sum(r["interval_bad"] for r in structure_sweep)
    checks = len(structure_sweep) * len(LAM_GRID)
    assert verdict(3, "threshold structure", bad == 0,
                   f"{checks} greedy policies on {len(structure_sweep)} "
                   f"triples, {bad} non-interval active sets")


def test_criterion_04_indexability(structure_sweep):
    bad = 0
    for r in structure_sweep:
        ks = r["ks"]
        bad += sum(1 for a, b in zip(ks, ks[1:]) if b < a)
    assert verdict(4, "indexability", bad == 0,
                   f"threshold path non-decreasing on all "
                   f"{len(structure_sweep)} triples, {bad} drops")


def test_criterion_05_value_structure(structure_sweep):
    bad = sum(r["value_bad"] for r in structure_sweep)
    assert verdict(5, "value structure", bad == 0,
                   f"V monotone with convex increments on the recurrent "
                   f"range, {bad} violations (slack {STRUCT_SLACK:g})")


def test_criterion_06_admission_gain(structure_sweep):
    bad = sum(r["gain_bad"] for r in structure_sweep)
    assert verdict(6, "admission gain monotone", bad == 0,
                   f"gain increments >= -{STRUCT_SLACK:g} at every solution, "
                   f"{bad} violations")


def test_criterion_07_mass_and_dominance():
    mass_bad = 0
    dom_bad = 0
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    for q in grid:
        for p in grid:
            if q <= p:
                continue
            prev = None
            for k in range(0, 41):
                mass = cumulative_active_mass(k, q, p)
                if prev is not None and mass < prev - 1e-12:
                    mass_bad += 1
                prev = mass
                if not dominance_check(k, q, p):
                    dom_bad += 1
    ok = mass_bad == 0 and dom_bad == 0
    assert verdict(7, "stationary mass and dominance", ok,
                   f"36 (q,p) pairs, k <= 40: {mass_bad} mass drops, "
                   f"{dom_bad} dominance failures")


def test_criterion_08_index_correctness(index_ladder):
    inc = index_ladder["inc"]
    bis = index_ladder["bis"]
    flips = index_ladder["flips"]
    worst_bis = max(abs(a - b) for a, b in zip(inc, bis))
    missing = sum(1 for f in flips if f is None)
    worst_dp = max(abs(a - f) for a, f in zip(inc, flips) if f is not None)
    drops = sum(1 for a, b in zip(inc, inc[1:]) if b < a - 1e-9)
    ok = (worst_bis <= 1e-4 and missing == 0
          and worst_dp <= DP_GRID_STEP + 1e-6 and drops == 0)
    assert verdict(8, "index correctness", ok,
                   f"x <= 40: |iter - bisect| {worst_bis:.2e} (<= 1e-4), "
                   f"|iter - dp grid| {worst_dp:.3f} (<= {DP_GRID_STEP}), "
                   f"{drops} monotonicity drops")


def test_criterion_09_solver_cross_consistency(two_server_tiny):
    worst = 0.0
    for server in (ServerParams(q=0.5, cost_c=1.0),
                   ServerParams(q=0.55, cost_c=30.0)):
        for k in (0, 1, 3, 7, 12):
            for lam in (-5.0, 0.0, 2.5, 10.0):
                want = threshold_average_cost(k, lam, server.cost_c,
                                              server.q, 0.4)
                for n in (k + 1, max(2 * k, 40)):
                    got = solve_value(lam, k, server, 0.4, n).beta
                    worst = max(worst, abs(got - want))
    beta_ok = worst <= 1e-8

    instances = [two_server_tiny,
                 SystemConfig(arrival_p=0.25, buffer=1, servers=(
                     ServerParams(q=0.70, cost_c=3.0),
                     ServerParams(q=0.45, cost_c=1.0)))]
    joint_ok = True
    worst_joint = 0.0
    for cfg in instances:
        js = joint_rvi(cfg)
        bf = brute_force_policy_search(cfg)
        worst_joint = max(worst_joint, abs(js.beta - bf.best_beta))
        dp_policy = {s: int(js.policy[s]) for s in bf.states}
        same_cost = abs(joint_policy_average_cost(cfg, dp_policy)
                        - bf.best_beta) <= 1e-10
        same_actions = all(dp_policy[s] == bf.best_policy[s]
                           for s in policy_reachable_states(cfg, dp_policy))
        joint_ok = joint_ok and same_cost and same_actions
    ok = beta_ok and joint_ok and worst_joint <= 1e-8
    assert verdict(9, "solver cross-consistency", ok,
                   f"|solve_value - chain| {worst:.2e} (<= 1e-8); joint vs "
                   f"brute force |beta gap| {worst_joint:.2e}, policies "
                   f"agree on recurrent states: {joint_ok}")


def test_criterion_10_departure_fidelity():
    worst = 0.0
    for q in np.linspace(0.05, 0.95, 20):
        passive = passive_kernel(float(q), 200)
        for x in range(1, 201):
            mean = passive[x, x::-1] @ np.arange(x + 1)
            worst = max(worst, abs(mean - float(q)))
    analytic_ok = worst <= 1e-12

    rng = np.random.default_rng(1234)
    sampler = DepartureSampler(0.55, 12)
    n = 100_000
    worst_z = 0.0
    for x in (1, 5, 12):
        draws = np.array([sampler.sample(x, u) for u in rng.random(n)])
        se = draws.std(ddof=1) / np.sqrt(n)
        worst_z = max(worst_z, abs(draws.mean() - 0.55) / se)
    sim_ok = worst_z <= 3.0
    ok = analytic_ok and sim_ok
    assert verdict(10, "departure-law fidelity", ok,
                   f"analytic |mean - q| {worst:.2e} (<= 1e-12); sampled "
                   f"mean within {worst_z:.2f} standard errors (<= 3)")


def test_criterion_11_cost_curve_shape():
    lams = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    servers = sorted({(s.cost_c, s.q) for cfg in FIGS.values()
                      for s in cfg.servers})
    worst_d1 = np.inf
    worst_d2 = -np.inf
    worst_unit = -np.inf
    for cost_c, q in servers:
        beta = np.array([optimal_threshold_cost(float(l), cost_c, q, 0.4)[0]
                         for l in lams])
        d1 = np.diff(beta)
        worst_d1 = min(worst_d1, float(np.min(d1)))
        worst_d2 = max(worst_d2, float(np.max(np.diff(d1))))
        worst_unit = max(worst_unit, float(np.max(beta[4:] - beta[:-4])))
    ok = (worst_d1 >= -1e-9 and worst_d2 <= 1e-9
          and worst_unit <= 1.0 + 1e-9)
    assert verdict(11, "cost curve shape", ok,
                   f"{len(servers)} servers: min slope {worst_d1:.1e}, max "
                   f"2nd diff {worst_d2:.1e}, max unit step {worst_unit:.6f}")
