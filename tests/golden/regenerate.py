"""Rewrite every golden file of tests/test_golden.py from this checkout.

Run from anywhere as `python tests/golden/regenerate.py`, with the
package importable (installed, or PYTHONPATH=src). Each file is
rewritten whole; `git diff tests/golden` then shows what changed.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, GOLDEN, case_name, run_case  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for config, command in CASES:
            name = case_name(config, command)
            entry = run_case(config, command, Path(tmp) / name)
            path = GOLDEN / f"{name}.json"
            path.write_text(json.dumps(entry, indent=1) + "\n")
            print(f"{path.name}: exit {entry['exit_code']}")


if __name__ == "__main__":
    main()
