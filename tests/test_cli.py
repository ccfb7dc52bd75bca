"""Command-line surface: config parsing, artifact files, exit codes."""

import csv
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import psindex
from psindex import (CmuPolicy, ComparisonTable, IndexTable, JointSolution,
                     ServerParams, SimReport, SystemConfig, simulate)
from psindex import checks, sim, whittle
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
    assert loaded.whittle.tol == 1e-6  # fixed, not a config key
    assert loaded.sim.horizon == 4000
    assert loaded.sim.seeds == 2


@pytest.mark.parametrize("sections", ["", "whittle:\nsim:\n"],
                         ids=["absent", "null"])
def test_load_config_defaults_optional_sections(tmp_path, sections):
    path = tmp_path / "min.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n" + sections)
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
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "whittle: false\n", "section 'whittle' must be a mapping"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "whittle: 0\n", "section 'whittle' must be a mapping"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "whittle: []\n", "section 'whittle' must be a mapping"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "sim: ''\n", "section 'sim' must be a mapping"),
    ("arrival_p: 0.4\nbuffer: 2\nbuffer: 3\n"
     "servers:\n  - {q: 0.5, cost_c: 1.0}\n",
     "repeated key 'buffer' at line 3"),
    ("arrival_p: 0.4\nbuffer: 5\nservers:\n  - {q: 0.5, cost_c: 1.0}\n"
     "whittle:\n  x_max: 5\n  x_max: 6\n", "repeated key 'x_max' at line 7"),
    ("arrival_p: 0.4\nbuffer: 5\n"
     "servers:\n  - {q: 0.6, cost_c: 2.0, q: 0.7}\n",
     "repeated key 'q' at line 4"),
])
def test_load_config_rejects_malformed_files(tmp_path, text, phrase):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=phrase):
        load_config(path)


def test_load_config_lets_a_written_key_override_a_merged_one(tmp_path):
    # Only the keys written in one mapping are compared, so a key that
    # a << merge brings in may be written once more.
    import yaml
    from psindex.cli import _ConfigLoader
    path = tmp_path / "merged.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - &a {q: 0.5, cost_c: 1.0}\n"
                    "  - {<<: *a, q: 0.6}\n")
    servers = load_config(path).system.servers
    assert [(s.q, s.cost_c) for s in servers] == [(0.5, 1.0), (0.6, 1.0)]
    # n merges x and is merged by m, which the constructor reaches
    # first (n is nested deeper) and so flattens n in place before
    # constructing n itself.
    text = "x: &x {k: 1}\na: {b: &n {<<: *x, k: 2}}\nm: {<<: *n, j: 3}\n"
    assert yaml.load(text, _ConfigLoader) == {
        "x": {"k": 1}, "a": {"b": {"k": 2}}, "m": {"k": 2, "j": 3}}


@pytest.mark.parametrize("data,phrase", [
    (b"\xff\xfe: 1", "unacceptable character"),
    (b"arrival_p: 0.4  # caf\xe9\n", "unacceptable character"),
    (b"arrival_p: 0.4\nbuffer: 2001-02-30\n", "day is out of range"),
], ids=["utf16-bom", "latin-1", "impossible-date"])
def test_a_config_pyyaml_cannot_load_exits_2_without_traceback(
        tmp_path, capsys, data, phrase):
    path = tmp_path / "bad.yaml"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="cannot parse config: " + phrase):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config: ")
    assert "Traceback" not in err


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
    # PyYAML reads an unquoted 4e-1 as the string '4e-1' (YAML 1.1 wants
    # a dot in the mantissa), so strings that parse as numbers load.
    import yaml
    assert yaml.safe_load("arrival_p: 4e-1") == {"arrival_p": "4e-1"}
    path = tmp_path / "strings.yaml"
    path.write_text("arrival_p: 4e-1\nbuffer: \"2\"\n"
                    "servers:\n  - {q: 0.5, cost_c: 1.0}\n"
                    "whittle: {x_max: 2}\n")
    loaded = load_config(path)
    assert loaded.system.arrival_p == 0.4
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
    ("whittle: {tol: 1.0e-6}", r"unknown keys in 'whittle': \['tol'\]"),
    ("whittle: {tol: -1}", r"unknown keys in 'whittle': \['tol'\]"),
    ("whittle: {tol: .nan}", r"unknown keys in 'whittle': \['tol'\]"),
    ("whittle: {tol: .inf}", r"unknown keys in 'whittle': \['tol'\]"),
    ("whittle: {x_max: 0}", "whittle.x_max must be >= 1"),
    ("whittle: false", "section 'whittle' must be a mapping"),
    ("whittle: {gamma: 0.2}", r"unknown keys in 'whittle': \['gamma'\]"),
    ("whittle: {max_iter: 1000}",
     r"unknown keys in 'whittle': \['max_iter'\]"),
    ("whittle: {truncation_n: 50}", r"whittle.truncation_n is retired: "
     r"every index cell is solved exactly on states 0\.\.x\+1"),
    ("sim: {horizon: 100, burn_in: 200}", "0 <= sim.burn_in < sim.horizon"),
    ("sim: {seeds: -3}", "sim.seeds must be >= 2"),
    ("sim: {seeds: 1}", "sim.seeds must be >= 2"),
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


@pytest.mark.parametrize("extra,message", [
    ("1: 2\nfoo: 3\n", "unknown top-level keys: [1, 'foo']"),
    ("whittle: {1: 2, foo: 3}\n", "unknown keys in 'whittle': [1, 'foo']"),
], ids=["top_level", "section"])
def test_unknown_keys_of_mixed_types_are_a_config_error(tmp_path, capsys,
                                                        extra, message):
    """YAML keys may be ints beside strings: the report sorts them as
    text instead of raising TypeError."""
    path = tmp_path / "mixed.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    f"servers:\n  - {{q: 0.5, cost_c: 1.0}}\n{extra}")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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
    """Every value solve fails its residual guard: the two checks that
    solve value systems fail with the guard's message, the other seven
    still run, and all nine rows reach the CSV."""
    path = tmp_path / "one.yaml"
    path.write_text("arrival_p: 0.4\nbuffer: 5\n"
                    "servers:\n  - {q: 0.55, cost_c: 30.0}\n")
    monkeypatch.setattr(whittle, "VALUE_RESIDUAL_TOL", -1.0)
    code = main(["properties", "--config", str(path),
                 "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("FAIL  value_solver_consistency: value system residual"
            in captured.out)
    with open(tmp_path / "properties.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    failed = {r["check"]: r["detail"] for r in rows if r["passed"] == "FAIL"}
    assert sorted(failed) == ["index_agreement", "value_solver_consistency"]
    assert all("value system residual" in d for d in failed.values())


# Two validated banks whose costs leave the float range: every solver
# guard reports the non-finite values, and numpy must not warn first.
HUGE_COSTS = {
    "one": ("arrival_p: 0.3\nbuffer: 30\nservers:\n"
            "  - {q: 0.6, cost_c: 1.0e+308}\n  - {q: 0.5, cost_c: 2.0}\n"),
    "both": ("arrival_p: 0.45\nbuffer: 20\nservers:\n"
             "  - {q: 0.5, cost_c: 1.0e+308}\n  - {q: 0.9, cost_c: 1.0e+300}\n"),
}
NAN_GUARD = "value system residual nan exceeds 1e-09; max |v| nan, ulp nan"
TABLE_ABORT = {
    "one": "error: index table aborted at server 0, state 0: closed-form "
           "index 5e+307 leaves gap 1.996e+292 above tol 1e-06",
    "both": f"error: index table aborted at server 0, state 0: {NAN_GUARD}",
}
RVI_INF = "relative value iteration span is inf at sweep 1: the values are " \
          "no longer finite"


@pytest.mark.parametrize("bank", sorted(HUGE_COSTS))
@pytest.mark.parametrize("command", [
    "validate", "indices", "exact", "properties", "compare",
    "simulate --policy whittle", "simulate --policy cmu",
    "simulate --policy random"])
def test_huge_costs_fail_cleanly_without_numpy_warnings(tmp_path, capsys,
                                                        bank, command):
    path = tmp_path / "huge.yaml"
    path.write_text(HUGE_COSTS[bank])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*command.split(), "--config", str(path),
                     "--out", str(tmp_path)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    name = command.split()[-1]
    if name == "validate":
        assert (code, out, err) == (0, "configuration ok\n", "")
    elif name in ("cmu", "random"):
        assert code == 0 and err == ""
        assert out.startswith("avg_cost inf, drops 0; wrote ")
    elif name == "exact":
        assert code == 1 and out == ""
        assert err == f"error: joint {RVI_INF}\n"
    elif name == "properties":
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines()
                  if line.startswith("FAIL")]
        consistency = [f"FAIL  value_solver_consistency: {NAN_GUARD}"
                       ] if bank == "both" else []
        assert failed == [*consistency,
                          f"FAIL  single_queue_structure: {RVI_INF}",
                          "FAIL  index_agreement: " + TABLE_ABORT[bank][7:]]
    else:
        assert code == 1 and out == ""
        assert err == TABLE_ABORT[bank] + "\n"


def test_simulate_reports_running_out_of_memory_without_traceback(
        config_path, tmp_path, capsys, monkeypatch):
    def exhausted(q, buffer):
        raise MemoryError("Unable to allocate 1.49 GiB")
    monkeypatch.setattr(sim, "_departure_cdfs", exhausted)
    # A bank built earlier in this process would read no CDF row.
    sim._bank.cache_clear()
    code = main(["simulate", "--config", str(config_path), "--policy", "cmu",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flag,value,message", [
    ("indices", "--x-max", "0", "whittle.x_max must be >= 1"),
    ("compare", "--x-max", "-3", "whittle.x_max must be >= 1"),
    ("simulate", "--x-max", "0", "whittle.x_max must be >= 1"),
])
def test_an_out_of_range_index_override_is_refused_before_any_work(
        config_path, tmp_path, capsys, monkeypatch, command, flag, value,
        message):
    work = []
    monkeypatch.setattr(checks, "run_property_suite",
                        lambda *args, **kw: work.append("suite"))
    monkeypatch.setattr(whittle, "build_index_table",
                        lambda *args, **kw: work.append("table"))
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), flag, value,
                 "--out", str(out)])
    assert (code, work) == (1, [])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,value", [
    ("properties", "nan"), ("properties", "-1"), ("indices", "0"),
    ("indices", "nan"), ("indices", "inf"), ("simulate", "inf"),
])
def test_a_retired_tol_override_is_refused_before_any_work(
        config_path, tmp_path, capsys, monkeypatch, command, value):
    """--tol is a usage error whatever its value: the index root is
    checked at one fixed tolerance."""
    work = []
    monkeypatch.setattr(checks, "run_property_suite",
                        lambda *args, **kw: work.append("suite"))
    monkeypatch.setattr(whittle, "build_index_table",
                        lambda *args, **kw: work.append("table"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_path), "--tol", value,
              "--out", str(out)])
    assert (exc.value.code, work) == (2, [])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


def test_cold_import_of_the_cli_leaves_scipy_stats_out():
    """scipy.stats takes most of a cold start; the kernel calls the
    binomial ufunc directly, so no psindex module may import it. The
    CLI loads the solvers only for a command, so the probe imports
    them all itself."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, psindex.checks, psindex.cli, psindex.sim; "
             "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# The top-level modules psindex's own code asks for while psindex.cli
# and every solver module load, and the modules those imports add
# beyond those already loaded at start-up or by psindex's dependencies.
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
import psindex.cli, psindex.checks, psindex.sim
print(json.dumps({"asked": sorted(asked),
                  "added": sorted(set(sys.modules) - deps)}))
"""


def test_cold_import_of_the_cli_leaves_the_slot_loop_builder_out():
    """ctypes, subprocess and tempfile serve only the compiled slot
    loop's builder, which imports them on the first simulation, so
    importing psindex.cli and the solver modules asks for none of them.
    numpy itself loads ctypes and subprocess, so sys.modules alone
    cannot show this."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    builder = {"ctypes", "subprocess", "tempfile"}
    assert "yaml" in seen["asked"]  # the spy sees psindex's imports
    assert builder.isdisjoint(seen["asked"])
    assert builder.isdisjoint(seen["added"])


# Each probe runs in a fresh interpreter with argv [work directory,
# every shipped config...]; after it, no numpy or scipy module may be
# loaded.
_CONFIG_PATH_PROBES = {
    "import-psindex": "import psindex",
    "import-cli": "import psindex.cli",
    "load-and-validate": """
from psindex import cli, validate_config
for path in sys.argv[2:]:
    assert validate_config(cli.load_config(path).system).ok, path
""",
    "validate-command": """
from psindex import cli
for path in sys.argv[2:]:
    assert cli.main(["validate", "--config", path]) == 0, path
""",
    "refused-config": """
from pathlib import Path
from psindex import cli
bad = Path(sys.argv[1], "bad.yaml")
bad.write_text("arrival_p: [\\n")
violating = Path(sys.argv[1], "violating.yaml")
violating.write_text("arrival_p: 1.5\\nbuffer: 3\\nservers:\\n"
                     "  - {q: 0.5, cost_c: 1.0}\\n")
for command in cli.COMMANDS:
    assert cli.main([command, "--config", str(bad)]) == 2, command
    assert cli.main([command, "--config", str(violating)]) == 1, command
assert cli.main(["indices", "--config", sys.argv[2], "--x-max", "0"]) == 1
""",
}
_SHIPPED_CONFIGS = [str(p) for p in sorted(SRC.parent.glob("configs/*.yaml"))
                    + [SRC.parent / "perfbench" / "heavy-traffic.yaml"]]


@pytest.mark.parametrize("probe", list(_CONFIG_PATH_PROBES.values()),
                         ids=list(_CONFIG_PATH_PROBES))
def test_the_config_path_imports_no_numerical_stack(probe, tmp_path):
    """Loading and validating a config, and refusing a bad one, need the
    stdlib and PyYAML alone; numpy and scipy would take most of the cold
    start, so nothing on that path may import them."""
    script = (f"import json, sys\n{probe}\nprint(json.dumps(sorted("
              "m for m in sys.modules "
              "if m.partition('.')[0] in ('numpy', 'scipy'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *_SHIPPED_CONFIGS],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_every_export_is_the_object_its_module_defines():
    """The package imports the config layer eagerly and every other
    name in __all__ on first access, keeping it; model and whittle
    re-export the config layer's names as the same objects."""
    from psindex import config, model

    for name in psindex.__all__:
        value = getattr(psindex, name)
        assert getattr(importlib.import_module(value.__module__),
                       name) is value
        assert vars(psindex)[name] is value
    assert set(psindex.__all__) | {"__all__"} <= set(dir(psindex))
    for name in ("ConvergenceError", "ServerParams", "SystemConfig",
                 "ValidationReport", "validate_config"):
        assert getattr(model, name) is getattr(config, name)
    assert whittle.IndexIterationConfig is config.IndexIterationConfig
    with pytest.raises(AttributeError, match="no_such_name"):
        psindex.no_such_name


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


def test_simulate_command_refuses_a_negative_seed(config_path, tmp_path,
                                                  capsys, monkeypatch):
    # Refused before the Whittle policy's index table is built.
    builds = []
    monkeypatch.setattr(whittle, "build_index_table",
                        lambda *args, **kw: builds.append(args))
    code = main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path), "--seed", "-1"])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "report.csv").exists()


def test_compare_refuses_a_single_seed_with_exit_1(config_path, tmp_path,
                                                   capsys):
    code = main(["compare", "--config", str(config_path), "--seeds", "1",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: sim.seeds must be >= 2\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_horizon_inside_the_burn_in_is_refused_before_any_solve(
        config_path, tmp_path, capsys, monkeypatch, command):
    def never(*args, **kw):
        raise AssertionError("the index table was built")
    monkeypatch.setattr(whittle, "build_index_table", never)
    code = main([command, "--config", str(config_path), "--horizon", "200",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == ("error: need 0 <= sim.burn_in "
                                       "< sim.horizon\n")


@pytest.mark.parametrize("where", ["a file", "under a file", "csv taken"])
def test_an_out_that_cannot_be_written_exits_1_with_an_error(
        config_path, tmp_path, capsys, where):
    """--out names a file, or a path under one, or indices.csv is taken
    by a directory: one `error: ...` line naming the path, no traceback."""
    taken = tmp_path / "taken"
    if where == "csv taken":
        out, named = taken, taken / "indices.csv"
        named.mkdir(parents=True)
    else:
        taken.write_text("")
        out = named = taken if where == "a file" else taken / "sub"
    code = main(["indices", "--config", str(config_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command,flag", [
    ("validate", "--x-max"), ("validate", "--tol"), ("validate", "--horizon"),
    ("exact", "--x-max"), ("exact", "--tol"), ("exact", "--horizon"),
    ("indices", "--horizon"),
    ("properties", "--x-max"), ("properties", "--horizon"),
    ("indices", "--gamma"), ("properties", "--gamma"),
    # The index root is checked at one fixed tolerance.
    ("indices", "--tol"), ("simulate", "--tol"), ("compare", "--tol"),
    ("properties", "--tol"),
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
    """Only the Whittle policy builds an index table, and no policy
    takes the retired --tol."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config_path), "--policy", policy,
              flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_simulate_whittle_reads_the_table_options(config_path, tmp_path):
    assert main(["simulate", "--config", str(config_path), "--policy",
                 "whittle", "--x-max", "3", "--horizon", "1000",
                 "--out", str(tmp_path)]) == 0
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
