"""The three benchmark workloads and the correctness gate they share.

Every workload runs the same stages, each only as far as its spec asks,
in the order the CLI subcommands run them: load and validate the
config, build the index table, solve the exact joint problem, simulate
the policies, run the property checks. The stage that gives `solve_s`
differs per workload (the index table on paper-fig3, joint RVI on
heavy-traffic, the nine checks on certify); every workload simulates
Cmu and random so that the simulator rate exists on all of them.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from psindex import checks, cli, dp, sim, whittle
from psindex.model import validate_config
from psindex.policies import CmuPolicy, ExactPolicy, RandomPolicy, \
    WhittlePolicy

from harness import OP_ERRORS, Run, TimedPolicy, duration, slowness

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Shortened from the CLI's 10^6-slot horizon so that a run holds many
# simulations; the burn-in is the CLI's.
SIM_HORIZON = 50_000
SIM_BURN_IN = 10_000
# Simulation seeds come from this pool, in an order drawn from the
# benchmark seed; every pool seed has a recorded reference report.
SIM_SEED_POOL = 64

# Index cells re-derived by bisect_index after the table is built.
SAMPLE_STATES = (0, 10, 40)
BISECT_TOL = 1e-4
BETA_TOL = 1e-6
# joint_rvi keeps no state between calls, so each repeat is a whole
# solve; exact_s is the median, since single calls read up to 25% apart.
EXACT_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # path relative to the checkout root
    stages: tuple[str, ...]  # the last one's time is solve_s
    policies: tuple[str, ...]

    @property
    def solve(self) -> str:
        return self.stages[-1]


WORKLOADS = {
    "paper-fig3": Workload("paper-fig3", "configs/fig3.yaml", ("indices",),
                           ("whittle", "cmu", "random")),
    "heavy-traffic": Workload("heavy-traffic",
                              "perfbench/heavy-traffic.yaml",
                              ("indices", "exact"),
                              ("whittle", "cmu", "random", "exact")),
    "certify": Workload("certify", "configs/fig3.yaml", ("properties",),
                        ("cmu", "random")),
}

# Per solve stage: the spans its time is read from, and the calibration
# kind its code follows (joint RVI is dense products; the table and the
# checks mix interpreted loops with small LAPACK calls).
STAGE_SPANS = {"indices": ("whittle.build_index_table", "mixed"),
               "exact": ("dp.joint_rvi", "numpy"),
               "properties": ("checks.", "mixed")}

# run_property_suite's checks in its order, called one at a time.
CHECKS = (
    ("departure_law_mean_and_mass", checks.check_departure_law, False),
    ("active_law_convolution", checks.check_active_law_is_convolution,
     False),
    ("passive_shift_monotone", checks.check_passive_shift_monotone, False),
    ("stationary_mass_monotone", checks.check_stationary_mass_monotone,
     False),
    ("chain_dominance", checks.check_chain_dominance, False),
    ("threshold_cost_curve", checks.check_threshold_cost_curve, True),
    ("value_solver_consistency", checks.check_value_solver_consistency,
     True),
    ("single_queue_structure", checks.check_single_queue_structure, True),
    ("index_agreement", checks.check_index_agreement, True),
)

# The psindex layer each check mostly exercises.
CHECK_LAYERS = {
    "departure_law_mean_and_mass": "model",
    "active_law_convolution": "model",
    "passive_shift_monotone": "model",
    "stationary_mass_monotone": "threshold",
    "chain_dominance": "threshold",
    "threshold_cost_curve": "threshold",
    "single_queue_structure": "dp",
    "index_agreement": "whittle",
    "value_solver_consistency": "whittle",
}


def report_key(report: sim.SimReport) -> list:
    """The SimReport fields the common-random-numbers contract pins."""
    return [report.avg_cost, list(report.mean_lengths), report.drop_count]


def make_policy(name: str, system, table, solution):
    """The policy `psindex compare` builds under this name.

    None when its input, the index table or the joint solution, is
    missing.
    """
    if name == "cmu":
        return CmuPolicy(system.servers)
    if name == "random":
        return RandomPolicy(system.num_servers)
    if name == "whittle":
        return (None if table is None
                else WhittlePolicy(table, max_state=system.buffer))
    return None if solution is None else ExactPolicy(solution)


def build_table(loaded: cli.LoadedConfig) -> whittle.IndexTable:
    """The index table with the config's options, as `psindex indices`."""
    w = loaded.whittle
    iter_cfg = whittle.IndexIterationConfig(gamma=w.gamma, tol=w.tol,
                                            max_iter=w.max_iter)
    return whittle.build_index_table(loaded.system, w.x_max, iter_cfg,
                                     w.truncation_n)


def round_rate(wall_lists) -> float:
    """Slots per second of a round run at each policy's median speed.

    Σ horizon ÷ Σ per-policy median wall time, over the policies that
    ran. The host's speed drifts by up to a half within seconds, and
    the median keeps the slow spells out of the figure better than a
    plain total does.
    """
    medians = [statistics.median(w) for w in wall_lists if w]
    return SIM_HORIZON * len(medians) / sum(medians) if medians else 0.0


class PolicyStats:
    """Per-policy simulation times and counters of one run."""

    def __init__(self):
        self.walls: list[float] = []
        self.ref_walls: list[float] = []  # wall time / slowness just before
        self.traced_walls: list[float] = []
        self.drops = 0
        self.timer: TimedPolicy | None = None


class WorkloadRun:
    """One workload in one process: stages, gate and raw measurements."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 traced: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run = Run()
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self.table = None
        self.table_error = "index table not attempted"
        self.solution = None
        self.sampler_s = 0.0
        self.system = None
        self.policies: dict = {}
        self.sim_refs: dict = {}
        self.order = None
        self.stats: dict[str, PolicyStats] = {}
        self.sim_slowness: list[float] = []
        self.unreferenced = 0
        self.rounds = 0
        self.check_s: dict[str, float] = {}

    # ------------------------------------------------------------ stages

    def load(self) -> cli.LoadedConfig:
        run = self.run
        with run.span("cli.load_config"):
            loaded = cli.load_config(ROOT / self.w.config)
        with run.span("model.validate_config"):
            report = validate_config(loaded.system)
        if not report.ok:
            raise SystemExit(f"{self.w.config}: "
                             + "; ".join(report.violations))
        return loaded

    def _solve_call(self, stage: str, name: str, fn, *args):
        """One solve-stage operation, calibrated on both sides.

        The span keeps the mean slowness before and after the call,
        which stage_seconds divides by to state the time at the
        reference speed.
        """
        kind = STAGE_SPANS[stage][1]
        before = slowness(kind)
        result, span = self.run.attempt(name, fn, *args)
        span["slowness"] = 0.5 * (before + slowness(kind))
        return result, span

    def indices(self, loaded: cli.LoadedConfig) -> None:
        """The index table, built one server at a time.

        build_index_table solves each server's cells on their own, so a
        one-server copy of the config does exactly that server's share
        of the full call, and the stacked rows are the full table. Each
        share, about 3 s on fig3, is calibrated on both sides: a single
        10 s call is too long for the host's speed to hold still. Like
        the full call, the build stops at the first server that fails.
        """
        rows = []
        for server in loaded.system.servers:
            one = replace(loaded, system=replace(loaded.system,
                                                 servers=(server,)))
            part, span = self._solve_call("indices",
                                          "whittle.build_index_table",
                                          build_table, one)
            if part is None:
                self.table_error = span["error"]
                return
            rows.append(part.entries)
        table = whittle.IndexTable(entries=np.vstack(rows),
                                   x_max=loaded.whittle.x_max)
        self.table = table
        # Outside the timed span: sampled cells against the bisection oracle.
        system = loaded.system
        n = loaded.whittle.truncation_n
        if n is None:
            n = whittle.default_truncation(table.x_max, system.buffer)
        bad = []
        for i, server in enumerate(system.servers):
            for x in SAMPLE_STATES:
                ref = whittle.bisect_index(x, server, system.arrival_p, n)
                if abs(table.entries[i, x] - ref) > BISECT_TOL:
                    bad.append(f"cell ({i}, {x}) = {table.entries[i, x]!r}, "
                               f"bisect_index gives {ref!r}")
        if bad:
            self.run.fail("whittle.build_index_table", "; ".join(bad),
                          mismatch=True)

    def exact(self, loaded: cli.LoadedConfig) -> None:
        """One joint RVI solve, checked against the reference beta."""
        solution, _ = self._solve_call("exact", "dp.joint_rvi",
                                       dp.joint_rvi, loaded.system)
        if solution is None:
            return
        self.solution = solution
        ref = self.reference["joint_rvi_beta"][self.w.config]
        if abs(solution.beta - ref) > BETA_TOL:
            self.run.fail("dp.joint_rvi", f"beta {solution.beta!r}, "
                          f"reference {ref!r}", mismatch=True)

    def check(self, loaded: cli.LoadedConfig, name: str, fn,
              takes_cfg: bool) -> None:
        """One property check, which must pass under its own name."""
        args = (loaded.system,) if takes_cfg else ()
        result, span = self._solve_call("properties", f"checks.{name}",
                                        fn, *args)
        if result is None:
            return
        self.check_s[name] = duration(span)
        if result.name != name or not result.passed:
            self.run.fail(f"checks.{name}", f"{result.name}: passed="
                          f"{result.passed} ({result.detail})",
                          mismatch=True)

    def prepare_sims(self, loaded: cli.LoadedConfig) -> None:
        """Build the policies, time the departure samplers, load references."""
        run, system = self.run, loaded.system
        self.system = system
        self.policies = {}
        for name in self.w.policies:
            with run.span(f"policies.{name}.build"):
                self.policies[name] = make_policy(name, system, self.table,
                                                  self.solution)
        with run.span("sim.DepartureSampler") as span:
            for s in system.servers:
                sim.DepartureSampler(s.q, system.buffer)
        self.sampler_s = duration(span)
        refs = self.reference["sim"][self.w.config]
        if (refs["horizon"], refs["burn_in"]) != (SIM_HORIZON, SIM_BURN_IN):
            raise SystemExit("reference reports were recorded at another "
                             "horizon")
        self.sim_refs = refs["reports"]
        self.stats = {name: PolicyStats() for name in self.w.policies}
        self.order = np.random.default_rng(self.seed).permutation(
            SIM_SEED_POOL)

    def sim_slice(self, seconds: float) -> None:
        """Rounds of one simulation per policy, for `seconds` (one at least).

        Round r uses the r-th seed of the pool order drawn from the
        benchmark seed. In a traced run every simulation runs a second
        time through TimedPolicy, and both reports must be identical.
        """
        deadline = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            sim_seed = int(self.order[self.rounds % SIM_SEED_POOL])
            for name in self.w.policies:
                self._simulate_one(self.system, name, self.policies[name],
                                   sim_seed, self.sim_refs.get(name, {}))
            self.rounds += 1

    def _simulate_one(self, system, name, policy, sim_seed, refs) -> None:
        run, stats = self.run, self.stats[name]
        if policy is None:
            run.fail("sim.simulate", f"no {name} policy: {self.table_error}")
            return
        slow = slowness("python", repeats=1)
        self.sim_slowness.append(slow)
        report, span = run.attempt("sim.simulate", sim.simulate, system,
                                   policy, SIM_HORIZON, SIM_BURN_IN, sim_seed)
        span.update(policy=name, seed=sim_seed)
        if report is None:
            return
        stats.walls.append(duration(span))
        stats.ref_walls.append(duration(span) / slow)
        stats.drops += report.drop_count
        ref = refs.get(str(sim_seed))
        if ref is None:
            self.unreferenced += 1
        elif report_key(report) != ref:
            run.fail("sim.simulate", f"{name} seed {sim_seed}: "
                     f"{report_key(report)} != reference {ref}",
                     mismatch=True)
        if not self.traced:
            return
        if stats.timer is None:
            stats.timer = TimedPolicy(policy)
        with run.span("sim.simulate.traced", policy=name,
                      seed=sim_seed) as tspan:
            try:
                traced = sim.simulate(system, stats.timer, SIM_HORIZON,
                                      SIM_BURN_IN, sim_seed)
            except OP_ERRORS as e:
                traced = f"{type(e).__name__}: {e}"
        tspan["inner_s"] = stats.timer.harvest()[1] / 1e9
        stats.traced_walls.append(duration(tspan))
        if traced != report:
            run.fail("sim.simulate", f"{name} seed {sim_seed}: traced "
                     "report differs from the untraced one", mismatch=True)

    def execute(self) -> None:
        """The stages, with the simulation time spread between solve calls.

        The host's speed drifts by up to a half over spells of seconds,
        so a figure measured in one contiguous block depends on the
        spell it fell in. Slicing the simulation time between the
        repeated joint RVI solves and between the checks spreads both
        over the whole run.
        """
        with self.run.span("run", workload=self.w.name, seed=self.seed):
            loaded = self.load()
            steps = []
            if "indices" in self.w.stages:
                self.indices(loaded)
            if "exact" in self.w.stages:
                self.exact(loaded)
                steps += [lambda: self.exact(loaded)] * (EXACT_REPEATS - 1)
            self.prepare_sims(loaded)
            if "properties" in self.w.stages:
                steps += [lambda c=c: self.check(loaded, *c) for c in CHECKS]
            share = self.seconds / (len(steps) + 1)
            for step in steps:
                self.sim_slice(share)
                step()
            self.sim_slice(share)

    # ----------------------------------------------------------- metrics

    def stage_seconds(self, stage: str, at_ref: bool = False) -> float:
        """A solve stage's time, raw or at the reference interpreter speed.

        The table's time, the median joint RVI time or the sum of the
        check times. Successful calls only; when every call failed, the
        time they took to fail, so that the metric still exists (the
        failure itself shows in ops_ok_share and the failed count).
        """
        prefix = STAGE_SPANS[stage][0]
        spans = [s for s in self.run.spans if s["name"].startswith(prefix)]
        spans = [s for s in spans if "error" not in s] or spans
        times = [duration(s) / (s["slowness"] if at_ref else 1.0)
                 for s in spans]
        return statistics.median(times) if stage == "exact" else sum(times)

    def solve_units(self) -> int:
        """Index cells, joint sweeps or checks done by the solve stage."""
        if self.w.solve == "indices":
            return self.table.entries.size if self.table is not None else 0
        if self.w.solve == "exact":
            return self.solution.sweeps if self.solution is not None else 0
        return len(self.check_s)

    def sim_rate(self) -> float:
        return round_rate(s.walls for s in self.stats.values())

    def sim_ref_rate(self) -> float:
        """sim_rate at the reference speed.

        Each simulation's wall time is divided by the slowness measured
        just before it; the rate comes from the per-policy medians.
        """
        return round_rate(s.ref_walls for s in self.stats.values())

    def end_to_end(self, setup: list[dict], peak_rss_mb: float) -> dict:
        """The result-line metrics; times at the reference speed."""
        run = self.run
        setup_ref = [s["setup_s"] / s["slowness"] for s in setup]
        return {
            "setup_s": (statistics.median(setup_ref), "s"),
            "solve_s": (self.stage_seconds(self.w.solve, at_ref=True), "s"),
            "sim_slots_per_s": (self.sim_ref_rate(), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_ok_share": ((run.attempted - run.failed) / run.attempted,
                             "share"),
        }

    def stage_figures(self, setup: list[dict]) -> dict:
        """Stage figures under their own names, and the raw wall times."""
        run = self.run
        done = {"indices": self.table is not None,
                "exact": self.solution is not None,
                "properties": bool(self.check_s)}
        out = {}
        for stage in self.w.stages:
            if done[stage]:
                out[f"{stage}_s"] = (self.stage_seconds(stage, True), "s")
        out["ops_failed_share"] = (run.failed / run.attempted, "share")
        out["ops_attempted"] = (run.attempted, "count")
        out["ops_failed"] = (run.failed, "count")
        out["raw.setup_s"] = (statistics.median(s["setup_s"] for s in setup),
                              "s")
        for stage in self.w.stages:
            if done[stage]:
                out[f"raw.{stage}_s"] = (self.stage_seconds(stage), "s")
        out["raw.sim_slots_per_s"] = (self.sim_rate(), "1/s")
        out["sim_slowness"] = (statistics.median(self.sim_slowness), "ratio")
        return out

    def per_layer(self, setup: list[dict]) -> tuple[dict, dict]:
        """(universal, workload-specific) per-layer metrics.

        The universal ones exist on every workload and go into the
        result line; the rest name layers only some workloads reach.
        """
        med = lambda key: statistics.median(s[key] for s in setup)
        timed = {n: s for n, s in self.stats.items() if s.timer is not None}
        calls = sum(s.timer.calls for s in timed.values())
        select_s = sum(s.timer.select_ns for s in timed.values()) / 1e9
        untraced_s = sum(sum(s.walls) for s in timed.values())
        n_sims = sum(len(s.walls) for s in timed.values())
        traced_rate = round_rate(s.traced_walls for s in timed.values())
        rate = self.sim_rate()
        units = self.solve_units()
        uni = {
            "cli.load_config_s": (med("load_config_s"), "s"),
            "model.validate_config_s": (med("validate_s"), "s"),
            "setup.import_s": (med("import_s"), "s"),
            "solve.units": (units, "count"),
            "solve.unit_ms": (1e3 * self.stage_seconds(self.w.solve)
                              / max(units, 1), "ms"),
            "sim.slots_per_s": (traced_rate, "1/s"),
            "sim.self_s": ((untraced_s - select_s) / max(n_sims, 1), "s"),
            "sim.sampler_build_s": (self.sampler_s, "s"),
            "sim.empty_slot_share": (
                sum(s.timer.empty_slots for s in timed.values())
                / max(calls, 1), "share"),
            "sim.max_queue": (max((s.timer.max_queue
                                   for s in timed.values()), default=0),
                              "count"),
            "policies.select_calls": (calls, "count"),
            "trace.overhead_share": ((rate - traced_rate) / rate
                                     if rate else 0.0, "share"),
        }
        extra = {"trace.overhead_slots_per_s": (traced_rate - rate, "1/s"),
                 "trace.spans": (len(self.run.spans), "count"),
                 "sim.drops": (sum(s.drops for s in self.stats.values()),
                               "count"),
                 "sim.rounds": (self.rounds, "count"),
                 "sim.unreferenced": (self.unreferenced, "count")}
        for name, s in self.stats.items():
            target = uni if name in ("cmu", "random") else extra
            if s.walls:
                target[f"sim.{name}.simulate_s"] = (
                    statistics.median(s.walls), "s")
                target[f"sim.{name}.slots_per_s"] = (round_rate([s.walls]),
                                                      "1/s")
            if s.timer is not None and s.timer.calls:
                target[f"policies.{name}.select_ns"] = (
                    s.timer.select_ns / s.timer.calls, "ns")
        spans = {sp["name"]: sp for sp in self.run.spans}
        if "indices" in self.w.stages:
            table_s = self.stage_seconds("indices")
            extra["whittle.build_index_table_s"] = (table_s, "s")
            cells = self.table.entries.size if self.table is not None else 0
            extra["whittle.cells"] = (cells, "count")
            if cells:
                extra["whittle.cell_ms"] = (1e3 * table_s / cells, "ms")
            extra["whittle.tables_failed"] = (int(self.table is None),
                                              "count")
        if self.table is not None:
            extra["policies.whittle.build_s"] = (
                duration(spans["policies.whittle.build"]), "s")
        if self.solution is not None:
            sweeps = self.solution.sweeps
            rvi_s = self.stage_seconds("exact")
            extra["dp.joint_rvi_s"] = (rvi_s, "s")
            extra["dp.joint_states"] = (self.solution.v.size, "count")
            extra["dp.joint_rvi_sweeps"] = (sweeps, "count")
            extra["dp.joint_sweep_ms"] = (1e3 * rvi_s / sweeps, "ms")
            extra["policies.exact.build_s"] = (
                duration(spans["policies.exact.build"]), "s")
        if "properties" in self.w.stages:
            for name, secs in self.check_s.items():
                extra[f"checks.{name}_s"] = (secs, "s")
            layer_s: dict[str, float] = {}
            for name, secs in self.check_s.items():
                layer = CHECK_LAYERS[name]
                layer_s[layer] = layer_s.get(layer, 0.0) + secs
            for layer, secs in sorted(layer_s.items()):
                extra[f"checks.via_{layer}_s"] = (secs, "s")
            extra["checks.failed"] = (
                sum(1 for n, _ in self.run.failures
                    if n.startswith("checks.")), "count")
        for name, secs in sorted(self.run.self_times().items()):
            extra[f"self.{name}_s"] = (secs, "s")
        return uni, extra
