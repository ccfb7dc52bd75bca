"""A seeded sweep over the config space, through the command line.

Every bank that `validate` accepts must either get an answer or fail
with exit code 1 and an `error: ` line, never a traceback, and every
artifact of a successful command must have its expected row count. The
banks are drawn from a fixed seed: 1-3 servers, the arrival rate and
each capacity uniform on (0.02, 0.98), each cost log-uniform on
[0.01, 100], small buffers. The tier-1 grid is small; the larger one
runs with `-m slow`.

Known defect: the index table aborts on some banks with a server whose
capacity q does not exceed the arrival rate p (the closed-form gap line
loses its slope there). Such a bank may fail `indices` and `compare`,
and only with `error: index table aborted at server i`, where server i
has p >= q; a bank whose every server has q > p must build its table.
"""

import csv

import numpy as np
import pytest
import yaml

from psindex.cli import EXACT_STATE_LIMIT, main

SEED = 2026
HORIZON, BURN_IN, SEEDS = 3000, 500, 2  # 100 checkpoints of 25 slots
X_MAX = 40  # the CLI's default, written out so the row counts can use it
EXACT_STATES = 400  # exact runs only where the joint grid is this small


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
    runs = {"validate": (), "indices": (),
            "simulate": ("--policy", "cmu", "--horizon", str(HORIZON)),
            "compare": ("--horizon", str(HORIZON), "--seeds", str(SEEDS))}
    if states <= EXACT_STATES:
        runs["exact"] = ()
    results = {}
    for command, extra in runs.items():
        out = tmp_path / command
        code, text = _run(capsys, command, "--config", str(cfg),
                          "--out", str(out), *extra)
        assert code in (0, 1), (command, code, text)
        assert "Traceback" not in text, (command, text)
        errors = [line for line in text.splitlines()
                  if line.startswith("error: ")]
        if code == 1:
            assert errors, (command, text)
        results[command] = code, errors

    assert results["validate"][0] == 0
    assert results["simulate"][0] == 0
    assert _rows(tmp_path / "simulate" / "report.csv") == 1
    assert _rows(tmp_path / "simulate" / "series.csv") == 100

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
    # compare builds the same table first, so it fails exactly as indices.
    assert results["compare"] == results["indices"]
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
    _check_bank(_banks(160, max_buffer=30)[index], tmp_path, capsys)
