"""Every CLI command on the shipped configs, against recorded outputs.

One file under tests/golden/ per (config, command) holds the exit
code, stdout and stderr with the output directory written as <out>,
and the SHA-256 of each CSV the command wrote. The commands are
`validate`, `indices`, `simulate` with each policy, `compare`, `exact`
and `properties` at the configs' defaults, on configs/*.yaml and
perfbench/heavy-traffic.yaml: 48 runs, in-process through cli.main.
A change that means to alter an output regenerates the files with
`python tests/golden/regenerate.py` and says which changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from psindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(ROOT.glob("configs/*.yaml")) + [
    ROOT / "perfbench" / "heavy-traffic.yaml"]
COMMANDS = {
    "validate": ["validate"],
    "indices": ["indices"],
    "simulate-whittle": ["simulate", "--policy", "whittle"],
    "simulate-cmu": ["simulate", "--policy", "cmu"],
    "simulate-random": ["simulate", "--policy", "random"],
    "compare": ["compare"],
    "exact": ["exact"],
    "properties": ["properties"],
}
CASES = [(config, command) for config in CONFIGS for command in COMMANDS]


def case_name(config: Path, command: str) -> str:
    return f"{config.stem}-{command}"


def run_case(config: Path, command: str, out_dir: Path) -> dict:
    """One command in-process, as its golden file records it."""
    argv = COMMANDS[command] + ["--config", str(config.relative_to(ROOT))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out_dir)])

    def lines(text):
        return text.replace(str(out_dir), "<out>").splitlines(keepends=True)
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": lines(stdout.getvalue()),
        "stderr": lines(stderr.getvalue()),
        "csv_sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out_dir.glob("*.csv"))},
    }


@pytest.mark.slow
@pytest.mark.parametrize("config,command", CASES,
                         ids=[case_name(*case) for case in CASES])
def test_cli_output_matches_its_golden_file(config, command, tmp_path):
    want = json.loads(
        (GOLDEN / f"{case_name(config, command)}.json").read_text())
    assert run_case(config, command, tmp_path / "out") == want


def test_every_golden_file_belongs_to_a_case():
    names = {f"{case_name(*case)}.json" for case in CASES}
    assert {path.name for path in GOLDEN.glob("*.json")} == names
