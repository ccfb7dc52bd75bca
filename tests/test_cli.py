"""Command-line surface: config parsing, artifact files, exit codes."""

import csv

import numpy as np
import pytest

from psindex import IndexTable, ServerParams, SystemConfig, simulate, CmuPolicy
from psindex import whittle
from psindex.cli import (ConfigError, fmt, load_config, main,
                         read_index_table, write_index_table)

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
# artifact round trips                                             #
# ---------------------------------------------------------------- #


def test_index_table_file_round_trip(tmp_path):
    entries = np.array([[0.8, 1.622857, 3.9697],
                        [0.5, 1.1, 2.2]])
    table = IndexTable(entries=entries, x_max=2)
    path = tmp_path / "indices.csv"
    write_index_table(table, path)
    back = read_index_table(path)
    assert back.x_max == 2
    assert back.num_servers == 2
    assert np.allclose(back.entries, entries, rtol=1e-11, atol=1e-12)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["server", "x", "index"]


def test_read_index_table_rejects_gaps(tmp_path):
    path = tmp_path / "holey.csv"
    path.write_text("server,x,index\n0,0,1.0\n0,2,2.0\n")
    with pytest.raises(ValueError, match="missing cells"):
        read_index_table(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("server,x,index\n")
    with pytest.raises(ValueError, match="no rows"):
        read_index_table(empty)


def test_read_index_table_names_missing_columns(tmp_path):
    # A header without the index column used to raise KeyError: 'index'.
    path = tmp_path / "no_index.csv"
    path.write_text("server,x\n0,0\n0,1\n")
    with pytest.raises(ValueError, match="lacks column.*index"):
        read_index_table(path)
    path.write_text("srv,state,index\n0,0,1.0\n")
    with pytest.raises(ValueError, match="server, x$"):
        read_index_table(path)
    path.write_text("")
    with pytest.raises(ValueError, match="server, x, index"):
        read_index_table(path)


def test_read_index_table_rejects_negative_cells(tmp_path):
    # A server of -1 used to wrap onto the last row.
    path = tmp_path / "negative.csv"
    path.write_text("server,x,index\n0,0,1.0\n0,1,2.0\n"
                    "-1,0,0.5\n-1,1,0.7\n")
    with pytest.raises(ValueError, match="negative server or state"):
        read_index_table(path)
    path.write_text("server,x,index\n0,-1,1.0\n0,0,1.0\n0,1,2.0\n")
    with pytest.raises(ValueError, match="negative server or state"):
        read_index_table(path)


def test_read_index_table_rejects_repeated_cells(tmp_path):
    # A later duplicate used to overwrite the earlier cell.
    path = tmp_path / "repeated.csv"
    path.write_text("server,x,index\n0,0,1.0\n0,1,2.0\n0,1,3.0\n")
    with pytest.raises(ValueError, match="repeats a"):
        read_index_table(path)


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
    table = read_index_table(out / "indices.csv")
    assert table.entries.shape == (2, 4)
    assert np.all(np.diff(table.entries, axis=1) >= -1e-7)


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
