"""The README's quick start runs as written, at a shorter horizon."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    start = text.index("## Quick start")
    code = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    assert "horizon=200_000" in code
    scope: dict = {}
    exec(code.replace("horizon=200_000", "horizon=20_000"), scope)
    assert scope["report"].horizon == 20_000
    assert set(scope["runs"].aggregates) == {"whittle", "cmu"}
    assert len(scope["runs"].reports) == 10
