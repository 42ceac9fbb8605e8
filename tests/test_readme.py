"""The README's "Library" example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments(monkeypatch):
    code = library_block()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    expected = [line.rsplit("  # ", 1)[1] for line in prints]
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
