"""Command-line surface: config parsing, artifact files, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psindex import (CmuPolicy, ComparisonTable, IndexTable, JointSolution,
                     ServerParams, SimReport, SystemConfig, simulate)
from psindex import whittle
from psindex.checks import CheckResult
from psindex.cli import (ConfigError, fmt, load_config, main,
                         write_comparison, write_exact, write_index_table,
                         write_properties, write_reports, write_series)

SRC = Path(__file__).resolve().parent.parent / "src"

GOOD = """\
arrival_p: 0.4
buffer: 8
servers:
  - {q: 0.55, cost_c: 30.0}
  - {q: 0.50, cost_c: 29.0}
whittle:
  x_max: 4
  tol: 1.0e-6
sim:
  horizon: 4000
  burn_in: 200
  seeds: 2
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "bank.yaml"
    path.write_text(GOOD)
    return path


# ---------------------------------------------------------------- #
# configuration files                                              #
# ---------------------------------------------------------------- #


def test_load_config_reads_all_sections(config_path):
    loaded = load_config(config_path)
    assert loaded.system.arrival_p == 0.4
    assert loaded.system.buffer == 8
    assert loaded.system.servers == (ServerParams(q=0.55, cost_c=30.0),
                                     ServerParams(q=0.50, cost_c=29.0))
    assert loaded.whittle.x_max == 4
    assert loaded.whittle.gamma == 0.1
    assert loaded.sim.horizon == 4000
    assert loaded.sim.seeds == 2


def test_load_config_defaults_optional_sections(tmp_path):
    path = tmp_path / "min.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n")
    loaded = load_config(path)
    assert loaded.whittle.x_max == 40
    assert loaded.sim.horizon == 1_000_000
    assert loaded.sim.burn_in == 10_000


@pytest.mark.parametrize("text,phrase", [
    ("buffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "missing required key 'arrival_p'"),
    ("arrival_p: 0.4\nbuffer: 5\nservers: []\n", "non-empty list"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5}\n",
     "exactly keys q, cost_c"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "extra: 1\n", "unknown top-level keys"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "whittle: {bad_knob: 1}\n", "unknown keys in 'whittle'"),
    ("- just\n- a\n- list\n", "root must be a mapping"),
])
def test_load_config_rejects_malformed_files(tmp_path, text, phrase):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=phrase):
        load_config(path)


@pytest.mark.parametrize("text,phrase", [
    ("arrival_p: abc\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "'arrival_p' must be a number"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: [0.5], cost_c: 1.0}\n",
     r"'servers\[0\].q' must be a number"),
    ("arrival_p: 0.4\nbuffer: ten\nservers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "'buffer' must be an integer"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "sim: {horizon: .inf}\n", "'sim.horizon' must be an integer"),
    ("arrival_p: 0.4\nbuffer: 2.7\nservers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "'buffer' must be an integer, got 2.7"),
    ("arrival_p: 0.4\nbuffer: true\nservers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "'buffer' must be an integer, got True"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: true}\n",
     r"'servers\[0\].cost_c' must be a number, got True"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "sim: {seeds: 2.9}\n", "'sim.seeds' must be an integer, got 2.9"),
])
def test_load_config_rejects_malformed_values(tmp_path, capsys, text, phrase):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=phrase):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_load_config_reads_numbers_written_as_strings(tmp_path):
    # PyYAML reads an unquoted 1e-6 as the string '1e-6' (YAML 1.1 wants
    # a dot in the mantissa), so strings that parse as numbers load.
    import yaml
    assert yaml.safe_load("tol: 1e-6") == {"tol": "1e-6"}
    path = tmp_path / "strings.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: \"2\"\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n"
                    "whittle: {x_max: 2, tol: 1e-6}\n")
    loaded = load_config(path)
    assert loaded.whittle.tol == 1e-6
    assert loaded.system.buffer == 2
    assert type(loaded.system.buffer) is int


@pytest.mark.parametrize("line,phrase", [
    ("buffer: \"two\"", "'buffer' must be an integer, got 'two'"),
    ("arrival_p: \"0.3x\"", "'arrival_p' must be a number, got '0.3x'"),
])
def test_load_config_rejects_strings_that_are_not_numbers(tmp_path, capsys,
                                                          line, phrase):
    keys = {"arrival_p": "arrival_p: 0.4", "buffer": "buffer: 5"}
    keys[line.split(":")[0]] = line
    path = tmp_path / "bad.yaml"
    path.write_text("\n".join(keys.values())
                    + "\nservers:\n  - {q: 0.5, cost_c: 1.0}\n")
    with pytest.raises(ConfigError, match=phrase):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_load_config_rejects_a_non_bool_strict_mode(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\nstrict_stability_mode: "
                    "\"false\"\nservers:\n  - {q: 0.5, cost_c: 1.0}\n")
    with pytest.raises(ConfigError, match="strict_stability_mode"):
        load_config(path)
    path.write_text("arrival_p: 0.4\nbuffer: 5\nstrict_stability_mode: "
                    "false\nservers:\n  - {q: 0.5, cost_c: 1.0}\n")
    assert load_config(path).system.strict_stability_mode is False


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.yaml")


def test_fmt_keeps_twelve_significant_digits():
    assert fmt(4.0 / 9.0) == "0.444444444444"
    assert float(fmt(123456.789012345)) == pytest.approx(123456.789012345,
                                                         rel=1e-11)


# ---------------------------------------------------------------- #
# artifact files                                                   #
# ---------------------------------------------------------------- #


def _bytes_written(tmp_path, write, *args) -> bytes:
    path = tmp_path / "artifact.csv"
    write(*args, path)
    return path.read_bytes()


def test_artifact_writers_pin_their_bytes(tmp_path):
    table = IndexTable(entries=np.array([[1e-13, 4.0 / 9.0], [0.5, 0.8]]),
                       x_max=1)
    assert _bytes_written(tmp_path, write_index_table, table) == (
        b"server,x,index\r\n0,0,1e-13\r\n0,1,0.444444444444\r\n"
        b"1,0,0.5\r\n1,1,0.8\r\n")

    a = SimReport(policy="cmu", seed=3, horizon=10, burn_in=2,
                  avg_cost=2.0 / 3.0, mean_lengths=(0.25, 1.5), drop_count=1,
                  cost_checkpoints=((6, 1.0 / 7.0), (10, 2.0 / 3.0)))
    b = SimReport(policy="random", seed=3, horizon=10, burn_in=2,
                  avg_cost=12.5, mean_lengths=(3.0, 0.0), drop_count=0)
    header = b"policy,seed,horizon,burn_in,avg_cost,mean_len_1,mean_len_2,drops"
    row_a = b"cmu,3,10,2,0.666666666667,0.25,1.5,1\r\n"
    row_b = b"random,3,10,2,12.5,3,0,0\r\n"
    assert _bytes_written(tmp_path, write_reports, [a, b], 2) == (
        header + b"\r\n" + row_a + row_b)

    comparison = ComparisonTable(reports=(a, b), aggregates={
        "cmu": (2.0 / 3.0, 0.0), "random": (12.5, 1.0 / 3.0)})
    assert _bytes_written(tmp_path, write_comparison, comparison, 2) == (
        header + b"\r\n" + row_a + row_b
        + b"cmu,mean,,,0.666666666667,,,\r\n"
        b"cmu,ci95_halfwidth,,,0,,,\r\n"
        b"random,mean,,,12.5,,,\r\n"
        b"random,ci95_halfwidth,,,0.333333333333,,,\r\n")

    assert _bytes_written(tmp_path, write_series, a) == (
        b"slots_elapsed,running_avg_cost\r\n6,0.142857142857\r\n"
        b"10,0.666666666667\r\n")

    solution = JointSolution(v=np.zeros((2, 2)), beta=1.0 / 3.0,
                             policy=np.array([[0, 1], [0, 0]]),
                             reference=(0, 1), sweeps=7, span=2.5e-10)
    cfg = SystemConfig(arrival_p=0.3, buffer=1,
                       servers=(ServerParams(q=0.6, cost_c=2.0),
                                ServerParams(q=0.5, cost_c=1.0)))
    policy_path = tmp_path / "exact_policy.csv"
    summary_path = tmp_path / "exact_summary.csv"
    write_exact(solution, cfg, policy_path, summary_path)
    assert policy_path.read_bytes() == (
        b"x_1,x_2,server\r\n0,0,0\r\n0,1,1\r\n1,0,0\r\n1,1,0\r\n")
    assert summary_path.read_bytes() == (
        b"beta,sweeps,span,reference\r\n0.333333333333,7,2.5e-10,0 1\r\n")

    results = [CheckResult("departure_law", True, "max error 1e-16"),
               CheckResult("chain_dominance", False, "k=3, gap -0.5")]
    assert _bytes_written(tmp_path, write_properties, results) == (
        b"check,passed,detail\r\ndeparture_law,pass,max error 1e-16\r\n"
        b'chain_dominance,FAIL,"k=3, gap -0.5"\r\n')


# ---------------------------------------------------------------- #
# subcommands end to end                                           #
# ---------------------------------------------------------------- #


def test_validate_command_ok(config_path, capsys):
    code = main(["validate", "--config", str(config_path)])
    assert code == 0
    assert "configuration ok" in capsys.readouterr().out


def test_validate_command_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("arrival_p: 1.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n")
    code = main(["validate", "--config", str(path)])
    assert code == 1
    assert "violation: arrival_p outside (0,1)" in capsys.readouterr().out


def test_config_errors_use_the_usage_exit_code(tmp_path, capsys):
    code = main(["indices", "--config", str(tmp_path / "none.yaml")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "indices"])
@pytest.mark.parametrize("section,phrase", [
    ("whittle: {gamma: 5}", r"whittle.gamma must lie in \(0, 1\]"),
    ("whittle: {tol: -1}", "whittle.tol must be positive"),
    ("whittle: {max_iter: 0}", "whittle.max_iter must be >= 1"),
    ("whittle: {x_max: 0}", "whittle.x_max must be >= 1"),
    ("whittle: {truncation_n: 50}", r"whittle.truncation_n is retired: "
     r"every index cell is solved exactly on states 0\.\.x\+1"),
    ("sim: {horizon: 100, burn_in: 200}", "0 <= sim.burn_in < sim.horizon"),
])
def test_option_values_no_command_accepts_are_config_errors(
        tmp_path, capsys, command, section, phrase):
    path = tmp_path / "bad.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    f"servers:\n  - {{q: 0.5, cost_c: 1.0}}\n{section}\n")
    with pytest.raises(ConfigError, match=phrase):
        load_config(path)
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_invalid_system_blocks_other_commands(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("arrival_p: 1.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n")
    code = main(["indices", "--config", str(path)])
    assert code == 1
    assert "violation" in capsys.readouterr().err


def test_indices_command_writes_monotone_table(config_path, tmp_path):
    out = tmp_path / "artifacts"
    code = main(["indices", "--config", str(config_path),
                 "--out", str(out), "--x-max", "3"])
    assert code == 0
    with open(out / "indices.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["server"], r["x"]) for r in rows] == [
        (str(i), str(x)) for i in range(2) for x in range(4)]
    entries = np.array([float(r["index"]) for r in rows]).reshape(2, 4)
    assert np.all(np.diff(entries, axis=1) >= -1e-7)


def test_indices_command_writes_the_same_table_at_any_buffer(tmp_path):
    text = (SRC.parent / "configs" / "fig3.yaml").read_text()
    assert "\nbuffer: 100\n" in text
    written = []
    for buffer in (100, 800):
        path = tmp_path / f"fig3-{buffer}.yaml"
        path.write_text(text.replace("\nbuffer: 100\n",
                                     f"\nbuffer: {buffer}\n"))
        out = tmp_path / str(buffer)
        assert main(["indices", "--config", str(path),
                     "--out", str(out)]) == 0
        written.append((out / "indices.csv").read_bytes())
    assert written[0] == written[1]


def test_indices_command_reports_a_failed_cell_without_traceback(
        config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", -1.0)
    code = main(["indices", "--config", str(config_path),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: index table aborted at server 0, state 0")
    assert "Traceback" not in err


def test_indices_command_lets_a_plain_runtime_error_through(
        config_path, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a solver failure")
    monkeypatch.setattr(whittle, "build_index_table", broken)
    with pytest.raises(RuntimeError, match="not a solver failure"):
        main(["indices", "--config", str(config_path),
              "--out", str(tmp_path)])


def test_properties_command_reports_a_failed_value_guard_without_traceback(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "one.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.55, cost_c: 30.0}\n")
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", -1.0)
    code = main(["properties", "--config", str(path),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: value system residual")
    assert "Traceback" not in err


def test_cold_import_of_the_cli_leaves_scipy_stats_out():
    """scipy.stats takes most of a cold start; the kernel calls the
    binomial ufunc directly, so no psindex module may import it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, psindex.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# The top-level modules psindex's own code asks for while psindex.cli
# loads, and the modules that import adds beyond those already loaded at
# start-up or by psindex's dependencies.
_IMPORT_PROBE = """
import builtins, json, sys
real = builtins.__import__
asked = set()

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    if level == 0 and (globals or {}).get("__name__", "").startswith(
            "psindex"):
        asked.add(name.partition(".")[0])
    return real(name, globals, locals, fromlist, level)

builtins.__import__ = spy
import numpy, scipy.linalg, scipy.special, yaml
deps = set(sys.modules)
import psindex.cli
print(json.dumps({"asked": sorted(asked),
                  "added": sorted(set(sys.modules) - deps)}))
"""


def test_cold_import_of_the_cli_leaves_the_slot_loop_builder_out():
    """ctypes, subprocess and tempfile serve only the compiled slot
    loop's builder, which imports them on the first simulation, so
    `import psindex.cli` asks for none of them. numpy itself loads
    ctypes and subprocess, so sys.modules alone cannot show this."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    builder = {"ctypes", "subprocess", "tempfile"}
    assert "numpy" in seen["asked"]  # the spy sees psindex's imports
    assert builder.isdisjoint(seen["asked"])
    assert builder.isdisjoint(seen["added"])


def test_simulate_command_writes_report_and_series(config_path, tmp_path,
                                                   capsys):
    out = tmp_path / "artifacts"
    code = main(["simulate", "--config", str(config_path),
                 "--out", str(out), "--policy", "cmu",
                 "--horizon", "3000", "--seed", "4"])
    assert code == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["policy"] == "cmu"
    assert rows[0]["seed"] == "4"
    assert int(rows[0]["horizon"]) == 3000
    with open(out / "series.csv", newline="") as fh:
        series = list(csv.DictReader(fh))
    assert series
    assert int(series[-1]["slots_elapsed"]) == 3000
    # The file must agree with an in-process rerun of the same seed.
    cfg = SystemConfig(arrival_p=0.4,
                       servers=(ServerParams(q=0.55, cost_c=30.0),
                                ServerParams(q=0.50, cost_c=29.0)),
                       buffer=8)
    rerun = simulate(cfg, CmuPolicy(cfg.servers), horizon=3000, burn_in=200,
                     seed=4)
    assert float(rows[0]["avg_cost"]) == pytest.approx(rerun.avg_cost,
                                                       rel=1e-11)


def test_exact_command_writes_policy_and_summary(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text("arrival_p: 0.3\nbuffer: 2\n"
                    "servers:\n  - {q: 0.6, cost_c: 2.0}\n"
                    "  - {q: 0.5, cost_c: 1.0}\n")
    out = tmp_path / "artifacts"
    code = main(["exact", "--config", str(path), "--out", str(out)])
    assert code == 0
    with open(out / "exact_policy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert set(rows[0]) == {"x_1", "x_2", "server"}
    assert all(r["server"] in {"0", "1"} for r in rows)
    with open(out / "exact_summary.csv", newline="") as fh:
        summary = next(csv.DictReader(fh))
    assert float(summary["beta"]) > 0.0
    assert int(summary["sweeps"]) > 0


def test_exact_command_refuses_large_state_spaces(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 100\n"
                    "servers:\n  - {q: 0.55, cost_c: 30.0}\n"
                    "  - {q: 0.50, cost_c: 29.0}\n")
    code = main(["exact", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "refusing exact solve" in capsys.readouterr().err


def test_compare_command_runs_all_policies(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text("arrival_p: 0.3\nbuffer: 2\n"
                    "servers:\n  - {q: 0.6, cost_c: 2.0}\n"
                    "  - {q: 0.5, cost_c: 1.0}\n"
                    "whittle: {x_max: 3}\n"
                    "sim: {horizon: 2000, burn_in: 100}\n")
    out = tmp_path / "artifacts"
    code = main(["compare", "--config", str(path), "--out", str(out),
                 "--seeds", "2"])
    assert code == 0
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    run_rows = [r for r in body if r[1] not in ("mean", "ci95_halfwidth")]
    agg_rows = [r for r in body if r[1] in ("mean", "ci95_halfwidth")]
    assert len(run_rows) == 4 * 2
    assert len(agg_rows) == 4 * 2
    names = {r[0] for r in run_rows}
    assert names == {"whittle", "cmu", "random", "exact"}


def test_properties_command_runs_the_iteration_with_the_config_knobs(
        tmp_path, capsys):
    path = tmp_path / "one.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.55, cost_c: 30.0}\n"
                    "whittle: {max_iter: 1}\n")
    code = main(["properties", "--config", str(path),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: index iteration for state 0")
    code = main(["properties", "--config", str(path), "--gamma", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_gamma_is_a_properties_option_only(config_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--config", str(config_path), "--gamma", "0.2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag", [
    ("validate", "--x-max"), ("validate", "--tol"), ("validate", "--horizon"),
    ("exact", "--x-max"), ("exact", "--tol"), ("exact", "--horizon"),
    ("indices", "--horizon"),
    ("properties", "--x-max"), ("properties", "--horizon"),
])
def test_overrides_are_options_only_of_the_commands_that_read_them(
        config_path, tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_path), flag, "3",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("policy", ["cmu", "random"])
@pytest.mark.parametrize("flag", ["--x-max", "--tol"])
def test_simulate_refuses_table_options_without_a_table(
        config_path, tmp_path, capsys, policy, flag):
    """Only the Whittle policy builds an index table."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config_path), "--policy", policy,
              flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_simulate_whittle_reads_the_table_options(config_path, tmp_path):
    assert main(["simulate", "--config", str(config_path), "--policy",
                 "whittle", "--x-max", "3", "--tol", "1e-5",
                 "--horizon", "1000", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.csv").exists()


def test_properties_command_reports_each_check(tmp_path, capsys):
    path = tmp_path / "one.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.55, cost_c: 30.0}\n")
    out = tmp_path / "artifacts"
    code = main(["properties", "--config", str(path), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "single_queue_structure" in text
    with open(out / "properties.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "pass" for r in rows)
    assert len(rows) >= 8
