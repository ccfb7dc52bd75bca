"""Command-line front end.

Subcommands: validate a configuration, compute index tables, simulate
one policy, compare all policies (exact included when the joint state
space is small enough), solve the exact joint problem, and run the
structural property suite. The index table's roots are checked at
one fixed tolerance, which no option changes. All artifacts are
comma-delimited text with a header row; floats carry 12 significant
digits, which makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import checks, dp, sim, whittle
from .model import ConvergenceError, ServerParams, SystemConfig, \
    validate_config
from .policies import CmuPolicy, ExactPolicy, RandomPolicy, WhittlePolicy

EXACT_STATE_LIMIT = 2500

USAGE_ERROR = 2


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class WhittleOptions:
    x_max: int = 40
    # Not options: read by perfbench/workloads.py, always these values.
    truncation_n = None
    tol = whittle.IndexIterationConfig.tol
    gamma = whittle.IndexIterationConfig.gamma
    max_iter = whittle.IndexIterationConfig.max_iter

    def __post_init__(self):
        if self.x_max < 1:
            raise ConfigError("whittle.x_max must be >= 1")


@dataclass(frozen=True)
class SimOptions:
    horizon: int = 1_000_000
    burn_in: int = 10_000
    seeds: int = 10

    def __post_init__(self):
        if not 0 <= self.burn_in < self.horizon:
            raise ConfigError("need 0 <= sim.burn_in < sim.horizon")
        if self.seeds < 2:  # compare's confidence intervals need two
            raise ConfigError("sim.seeds must be >= 2")


@dataclass(frozen=True)
class LoadedConfig:
    system: SystemConfig
    whittle: WhittleOptions
    sim: SimOptions


def _section(raw: dict, key: str, options: type):
    """An optional section read into its option class.

    Each key is a field, converted to the field's type. Only YAML null
    (no section, or a bare `whittle:` line) means no keys.
    """
    got = {} if raw.get(key) is None else raw[key]
    if not isinstance(got, dict):
        raise ConfigError(f"section '{key}' must be a mapping")
    if key == "whittle" and "truncation_n" in got:
        raise ConfigError("whittle.truncation_n is retired: every index "
                          "cell is solved exactly on states 0..x+1")
    kinds = typing.get_type_hints(options)
    unknown = sorted(set(got) - set(kinds), key=str)  # YAML keys mix types
    if unknown:
        raise ConfigError(f"unknown keys in '{key}': {unknown}")
    return options(**{k: _number(kinds[k], v, f"{key}.{k}")
                      for k, v in got.items()})


def _number(kind, value, key: str):
    """Convert a config value with float or int; ConfigError if it fails.

    Booleans are refused for every key, and an int key refuses a float
    with a fractional part instead of truncating it.
    """
    what = "an integer" if kind is int else "a number"
    fractional = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or (kind is int and fractional)):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"'{key}' must be {what}, got {value!r}")


class _ConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key written twice in one mapping.

    Only the keys written in the mapping are compared, so a key that a
    << merge brings in may be written once more. They are compared as
    the mapping is composed: by the time the constructor reaches a
    mapping it may already have flattened the mapping's merges into it.
    """

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise ConfigError(f"repeated key {key!r} at line "
                                      f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return node


def load_config(path: str | Path) -> LoadedConfig:
    """Parse a YAML configuration file into typed options.

    PyYAML decodes the bytes itself, so a file that is not UTF-8 (or
    UTF-16 with a byte-order mark) is a parse error, and so is a value
    that its constructor refuses with ValueError (2001-02-30, a
    timestamp past the month's end).
    """
    try:
        raw = yaml.load(Path(path).read_bytes(), _ConfigLoader)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (yaml.YAMLError, ValueError) as e:
        raise ConfigError(f"cannot parse config: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {f.name for f in fields(SystemConfig)} | {"whittle", "sim"}
    unknown = sorted(set(raw) - known, key=str)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {unknown}")
    for key in ("arrival_p", "buffer", "servers"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
    if not isinstance(raw["servers"], list) or not raw["servers"]:
        raise ConfigError("'servers' must be a non-empty list")
    servers = []
    for i, entry in enumerate(raw["servers"]):
        if not isinstance(entry, dict) or set(entry) != {"q", "cost_c"}:
            raise ConfigError(f"servers[{i}] must have exactly keys q, cost_c")
        servers.append(ServerParams(
            q=_number(float, entry["q"], f"servers[{i}].q"),
            cost_c=_number(float, entry["cost_c"], f"servers[{i}].cost_c")))
    strict = raw.get("strict_stability_mode", False)
    if not isinstance(strict, bool):
        raise ConfigError("'strict_stability_mode' must be true or false, "
                          f"got {strict!r}")
    system = SystemConfig(
        arrival_p=_number(float, raw["arrival_p"], "arrival_p"),
        servers=tuple(servers),
        buffer=_number(int, raw["buffer"], "buffer"),
        strict_stability_mode=strict)
    return LoadedConfig(system=system,
                        whittle=_section(raw, "whittle", WhittleOptions),
                        sim=_section(raw, "sim", SimOptions))


# ---------------------------------------------------------------- #
# artifact files                                                   #
# ---------------------------------------------------------------- #


def fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_index_table(table: whittle.IndexTable, path: str | Path) -> None:
    _write_csv(path, ["server", "x", "index"],
               ([i, x, fmt(table.entries[i, x])]
                for i in range(table.num_servers)
                for x in range(table.x_max + 1)))


def _report_header(num_servers: int) -> list[str]:
    return (["policy", "seed", "horizon", "burn_in", "avg_cost"]
            + [f"mean_len_{i + 1}" for i in range(num_servers)]
            + ["drops"])


def _report_row(r: sim.SimReport) -> list[str]:
    return ([r.policy, str(r.seed), str(r.horizon), str(r.burn_in),
             fmt(r.avg_cost)]
            + [fmt(v) for v in r.mean_lengths]
            + [str(r.drop_count)])


def write_reports(reports, num_servers: int, path: str | Path) -> None:
    _write_csv(path, _report_header(num_servers), map(_report_row, reports))


def write_comparison(table: sim.ComparisonTable, num_servers: int,
                     path: str | Path) -> None:
    """Per-run rows followed by per-policy mean and half-width rows."""
    blank = [""] * num_servers
    rows = [_report_row(r) for r in table.reports]
    for name, (mean, hw) in table.aggregates.items():
        rows.append([name, "mean", "", "", fmt(mean)] + blank + [""])
        rows.append([name, "ci95_halfwidth", "", "", fmt(hw)] + blank + [""])
    _write_csv(path, _report_header(num_servers), rows)


def write_series(report: sim.SimReport, path: str | Path) -> None:
    _write_csv(path, ["slots_elapsed", "running_avg_cost"],
               ([str(slot), fmt(value)]
                for slot, value in report.cost_checkpoints))


def write_exact(solution: dp.JointSolution, cfg: SystemConfig,
                policy_path: str | Path, summary_path: str | Path) -> None:
    _write_csv(policy_path,
               [f"x_{i + 1}" for i in range(cfg.num_servers)] + ["server"],
               ([str(v) for v in state] + [str(int(solution.policy[state]))]
                for state in np.ndindex(*solution.policy.shape)))
    _write_csv(summary_path, ["beta", "sweeps", "span", "reference"],
               [[fmt(solution.beta), str(solution.sweeps), fmt(solution.span),
                 " ".join(str(v) for v in solution.reference)]])


def write_properties(results, path: str | Path) -> None:
    _write_csv(path, ["check", "passed", "detail"],
               ([r.name, "pass" if r.passed else "FAIL", r.detail]
                for r in results))


# ---------------------------------------------------------------- #
# subcommands                                                      #
# ---------------------------------------------------------------- #


def _build_table(loaded: LoadedConfig) -> whittle.IndexTable:
    return whittle.build_index_table(loaded.system, loaded.whittle.x_max)


def cmd_validate(loaded: LoadedConfig, args, out_dir: Path) -> int:
    report = validate_config(loaded.system)
    if report.ok:
        print("configuration ok")
        return 0
    for item in report.violations:
        print(f"violation: {item}")
    return 1


def cmd_indices(loaded: LoadedConfig, args, out_dir: Path) -> int:
    table = _build_table(loaded)
    path = out_dir / "indices.csv"
    write_index_table(table, path)
    print(f"wrote {path} ({table.num_servers} servers, "
          f"states 0..{table.x_max})")
    return 0


def cmd_simulate(loaded: LoadedConfig, args, out_dir: Path) -> int:
    system = loaded.system
    if args.policy == "whittle":
        policy = WhittlePolicy(_build_table(loaded),
                               max_state=system.buffer)
    elif args.policy == "cmu":
        policy = CmuPolicy(system.servers)
    else:
        policy = RandomPolicy(system.num_servers)
    report = sim.simulate(system, policy, horizon=loaded.sim.horizon,
                          burn_in=loaded.sim.burn_in, seed=args.seed,
                          checkpoints=100)
    report_path = out_dir / "report.csv"
    write_reports([report], system.num_servers, report_path)
    series_path = out_dir / "series.csv"
    write_series(report, series_path)
    print(f"avg_cost {fmt(report.avg_cost)}, drops {report.drop_count}; "
          f"wrote {report_path} and {series_path}")
    return 0


def cmd_compare(loaded: LoadedConfig, args, out_dir: Path) -> int:
    system = loaded.system
    policies = [WhittlePolicy(_build_table(loaded),
                              max_state=system.buffer),
                CmuPolicy(system.servers),
                RandomPolicy(system.num_servers)]
    states = (system.buffer + 1) ** system.num_servers
    if states <= EXACT_STATE_LIMIT:
        policies.append(ExactPolicy(dp.joint_rvi(system)))
    else:
        print(f"exact policy skipped: {states} joint states exceed "
              f"{EXACT_STATE_LIMIT}")
    table = sim.compare(system, policies, horizon=loaded.sim.horizon,
                        burn_in=loaded.sim.burn_in,
                        seeds=range(loaded.sim.seeds))
    path = out_dir / "comparison.csv"
    write_comparison(table, system.num_servers, path)
    for name, (mean, hw) in table.aggregates.items():
        print(f"{name}: {fmt(mean)} +- {fmt(hw)}")
    print(f"wrote {path}")
    return 0


def cmd_exact(loaded: LoadedConfig, args, out_dir: Path) -> int:
    system = loaded.system
    states = (system.buffer + 1) ** system.num_servers
    if states > EXACT_STATE_LIMIT:
        print(f"refusing exact solve: {states} joint states exceed "
              f"{EXACT_STATE_LIMIT}", file=sys.stderr)
        return 1
    solution = dp.joint_rvi(system)
    policy_path = out_dir / "exact_policy.csv"
    summary_path = out_dir / "exact_summary.csv"
    write_exact(solution, system, policy_path, summary_path)
    print(f"beta {fmt(solution.beta)} after {solution.sweeps} sweeps; "
          f"wrote {policy_path} and {summary_path}")
    return 0


def cmd_properties(loaded: LoadedConfig, args, out_dir: Path) -> int:
    results = checks.run_property_suite(loaded.system)
    path = out_dir / "properties.csv"
    write_properties(results, path)
    failed = 0
    for r in results:
        tag = "pass" if r.passed else "FAIL"
        print(f"{tag}  {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"wrote {path}")
    return 0 if failed == 0 else 1


COMMANDS = {
    "validate": cmd_validate,
    "indices": cmd_indices,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "exact": cmd_exact,
    "properties": cmd_properties,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psindex",
        description="Index policies for processor-sharing server banks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="YAML system configuration")
        cmd.add_argument("--out", default=".",
                         help="directory for output files")
        if name in ("indices", "simulate", "compare"):
            cmd.add_argument("--x-max", dest="x_max", type=int, default=None)
        if name in ("simulate", "compare"):
            cmd.add_argument("--horizon", type=int, default=None)
        if name == "compare":
            cmd.add_argument("--seeds", type=int, default=None)
        if name == "simulate":
            cmd.add_argument("--policy", default="whittle",
                             choices=["whittle", "cmu", "random"])
            cmd.add_argument("--seed", type=int, default=0)
    return parser


def run_command(args: argparse.Namespace) -> int:
    try:
        loaded = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    if args.command != "validate":
        violations = validate_config(loaded.system).violations
        if violations:
            for item in violations:
                print(f"violation: {item}", file=sys.stderr)
            return 1
    # Every override gets its range check before any work: --x-max
    # through WhittleOptions, --horizon and --seeds through SimOptions,
    # --seed here.
    def given(*keys):
        return {key: getattr(args, key) for key in keys
                if getattr(args, key, None) is not None}
    try:
        loaded = replace(
            loaded, whittle=replace(loaded.whittle, **given("x_max")),
            sim=replace(loaded.sim, **given("horizon", "seeds")))
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # The solvers' guards report non-finite values as error or FAIL lines.
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](loaded, args, out_dir)
    except (ConfigError, ConvergenceError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.policy != "whittle":
        # Only the Whittle policy builds an index table.
        if args.x_max is not None:
            parser.error("simulate: --x-max applies to --policy "
                         f"whittle only, not {args.policy}")
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
