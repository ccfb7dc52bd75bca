"""A seeded sweep over the config space, through the command line.

Every bank that `validate` accepts must either get an answer or fail
with exit code 1 and an `error: ` line, never a traceback, and every
artifact of a successful command must have its expected row count. The
banks are drawn from a fixed seed: 1-3 servers, the arrival rate and
each capacity uniform on (0.02, 0.98), each cost log-uniform on
[0.01, 100], small buffers. The tier-1 grid is small; the larger one
runs with `-m slow` and also runs `properties` on every bank, which
must exit 0, or 1 with a `FAIL  ` line, and write all nine rows.

Known defect: the index table aborts on some banks with a server whose
capacity q does not exceed the arrival rate p (the closed-form gap line
loses its slope there). Such a bank may fail `indices`, `compare` and
`simulate --policy whittle`, and only with `error: index table aborted
at server i`, where server i has p >= q; a bank whose every server has
q > p must build its table.
"""

import csv
import time
import warnings

import numpy as np
import pytest
import yaml

from psindex.cli import EXACT_STATE_LIMIT, main

SEED = 2026
HORIZON, BURN_IN, SEEDS = 3000, 500, 2  # 100 checkpoints of 25 slots
X_MAX = 40  # the CLI's default, written out so the row counts can use it
EXACT_STATES = 400  # exact runs only where the joint grid is this small
POLICIES = ("cmu", "whittle", "random")


def _banks(count: int, max_buffer: int) -> list[dict]:
    rng = np.random.default_rng(SEED)
    banks = []
    for _ in range(count):
        num = int(rng.integers(1, 4))
        p = float(rng.uniform(0.02, 0.98))
        servers = [{"q": float(rng.uniform(0.02, 0.98)),
                    "cost_c": float(10.0 ** rng.uniform(-2.0, 2.0))}
                   for _ in range(num)]
        buffer = int(rng.integers(1, max_buffer + 1))
        banks.append({"arrival_p": p, "buffer": buffer, "servers": servers,
                      "whittle": {"x_max": X_MAX},
                      "sim": {"burn_in": BURN_IN}})
    return banks


def _run(capsys, *argv) -> tuple[int, str]:
    """Exit code and captured output of one in-process command."""
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse's usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out + out.err


def _rows(path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _check_bank(bank: dict, tmp_path, capsys) -> None:
    cfg = tmp_path / "bank.yaml"
    cfg.write_text(yaml.safe_dump(bank))
    num, buffer = len(bank["servers"]), bank["buffer"]
    states = (buffer + 1) ** num
    heavy = [s["q"] <= bank["arrival_p"] for s in bank["servers"]]
    runs = {"validate": ("validate",), "indices": ("indices",),
            **{policy: ("simulate", "--policy", policy,
                        "--horizon", str(HORIZON)) for policy in POLICIES},
            "compare": ("compare", "--horizon", str(HORIZON),
                        "--seeds", str(SEEDS))}
    if states <= EXACT_STATES:
        runs["exact"] = ("exact",)
    results = {}
    for name, (command, *extra) in runs.items():
        code, text = _run(capsys, command, "--config", str(cfg),
                          "--out", str(tmp_path / name), *extra)
        assert code in (0, 1), (name, code, text)
        assert "Traceback" not in text, (name, text)
        errors = [line for line in text.splitlines()
                  if line.startswith("error: ")]
        if code == 1:
            assert errors, (name, text)
        results[name] = code, errors

    assert results["validate"][0] == 0
    assert results["cmu"][0] == results["random"][0] == 0
    for policy in POLICIES:
        if results[policy][0] == 0:
            assert _rows(tmp_path / policy / "report.csv") == 1
            assert _rows(tmp_path / policy / "series.csv") == 100

    code, errors = results["indices"]
    if code == 0:
        assert _rows(tmp_path / "indices" / "indices.csv") == num * (X_MAX + 1)
    else:  # the known defect, and only where it applies
        assert any(heavy), errors
        assert len(errors) == 1, errors
        head = "error: index table aborted at server "
        assert errors[0].startswith(head), errors
        server = int(errors[0][len(head):].split(",")[0])
        assert heavy[server], errors
    # compare and the Whittle simulation build the same table first, so
    # they fail exactly as indices.
    assert results["compare"] == results["indices"]
    assert results["whittle"] == results["indices"]
    if code == 0:
        policies = 3 + (states <= EXACT_STATE_LIMIT)
        assert _rows(tmp_path / "compare" / "comparison.csv") == \
            policies * SEEDS + 2 * policies

    if "exact" in results:
        assert results["exact"][0] == 0
        assert _rows(tmp_path / "exact" / "exact_policy.csv") == states
        assert _rows(tmp_path / "exact" / "exact_summary.csv") == 1


BANKS = _banks(24, max_buffer=12)


@pytest.mark.parametrize("bank", BANKS, ids=[f"bank{i:02d}"
                                             for i in range(len(BANKS))])
def test_every_valid_bank_gets_an_answer_or_a_clean_error(bank, tmp_path,
                                                          capsys):
    _check_bank(bank, tmp_path, capsys)


def test_the_grid_covers_both_regimes_and_every_bank_size():
    """The sweep must reach the p >= q defect and banks of 1-3 servers."""
    sizes = {len(b["servers"]) for b in BANKS}
    heavy = [any(s["q"] <= b["arrival_p"] for s in b["servers"])
             for b in BANKS]
    assert sizes == {1, 2, 3}
    assert any(heavy) and not all(heavy)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(160))
def test_the_larger_grid(index, tmp_path, capsys):
    """The commands of the tier-1 grid, then `properties`, which FAILs a
    check and goes on, so it writes all nine rows either way."""
    _check_bank(_banks(160, max_buffer=30)[index], tmp_path, capsys)
    code, text = _run(capsys, "properties", "--config",
                      str(tmp_path / "bank.yaml"),
                      "--out", str(tmp_path / "properties"))
    assert code in (0, 1), (code, text)
    assert "Traceback" not in text, text
    if code == 1:
        assert any(line.startswith("FAIL  ")
                   for line in text.splitlines()), text
    assert _rows(tmp_path / "properties" / "properties.csv") == 9


# Banks at the edges of the accepted range: costs up to 1e300, index
# tables to x_max 300, q > p and q <= p servers. fig3's servers abort
# their table at state 216 at the float floor of the residual guard.
EXTREME_BANKS = {
    "fig3_x300": ([(0.55, 30.0), (0.5, 29.0), (0.45, 28.0)], 0.4, 10, 300),
    "light_x200": ([(0.9, 5.0)], 0.1, 15, 200),
    "one_1e300": ([(0.6, 1e300)], 0.3, 20, 300),
    "two_1e300": ([(0.6, 1e300), (0.5, 1e300)], 0.3, 20, 300),
    "mixed_1e300": ([(0.3, 1e300), (0.9, 0.01)], 0.7, 8, 300),
    "mixed_1e150": ([(0.9, 1e150), (0.5, 0.01)], 0.6, 12, 120),
}
EXTREME_BUDGET_S = 30.0  # all four commands of one bank; about 1 s today
# At costs of 1e300 the values stall: each relative value iteration
# stops when they repeat an earlier sweep bit for bit, and says so.
REPEATS = {
    ("one_1e300", "properties"): "FAIL  single_queue_structure: relative "
                                 "value iteration repeats the values of sweep ",
    ("two_1e300", "exact"): "error: joint relative value iteration repeats "
                            "the values of sweep ",
}


@pytest.mark.parametrize("name", sorted(EXTREME_BANKS))
def test_extreme_banks_get_an_answer_or_a_clean_failure(name, tmp_path,
                                                        capsys):
    """Exit 0 or 1, an `error:` or `FAIL` line whenever the exit is 1,
    no traceback or numpy warning, all nine property rows, within a
    generous time budget."""
    servers, p, buffer, x_max = EXTREME_BANKS[name]
    cfg = tmp_path / "bank.yaml"
    cfg.write_text(yaml.safe_dump({
        "arrival_p": p, "buffer": buffer,
        "servers": [{"q": q, "cost_c": c} for q, c in servers],
        "whittle": {"x_max": x_max}, "sim": {"burn_in": BURN_IN}}))
    start = time.perf_counter()
    for command, extra in (
            ("indices", ()),
            ("simulate", ("--policy", "cmu", "--horizon", str(HORIZON))),
            ("exact", ()), ("properties", ())):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = _run(capsys, command, "--config", str(cfg),
                              "--out", str(tmp_path / command), *extra)
        assert code in (0, 1), (command, code, text)
        assert "Traceback" not in text, (command, text)
        assert "RuntimeWarning" not in text, (command, text)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], command
        if code == 1:
            assert any(line.startswith(("error: ", "FAIL  "))
                       for line in text.splitlines()), (command, text)
        if (name, command) in REPEATS:
            assert code == 1 and any(
                line.startswith(REPEATS[name, command])
                for line in text.splitlines()), (command, text)
    assert time.perf_counter() - start < EXTREME_BUDGET_S
    assert _rows(tmp_path / "properties" / "properties.csv") == 9
