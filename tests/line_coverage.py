"""Line coverage of the package under the test suite, from the standard library.

Runs pytest in this process under a `sys.settrace` tracer that follows only the
code objects of files in `src/seqelicit`, lists every executable line of those
files from the `co_lines()` of their compiled code objects, and exits 1 naming
each line that no test reached. Arguments go to pytest. From the root of a
checkout, with pytest installed:

    PYTHONPATH=src python tests/line_coverage.py -q

Subprocesses are not traced, so the lines only `python -m seqelicit` runs are
allowed to stay unreached: the two `raise SystemExit(main())` guards.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqelicit"
ALLOWED = {("__main__.py", "raise SystemExit(main())"), ("cli.py", "raise SystemExit(main())")}


def _tracer(reached: dict[str, set[int]]):
    """A trace function that adds each line run in the package file `name`
    to `reached[name]` and traces no code object of any other file."""
    files: dict[str, set[int] | None] = {}  # co_filename -> its reached set, None outside

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            lines = files[filename]
        except KeyError:
            path = Path(filename).resolve()
            lines = files[filename] = reached.setdefault(path.name, set()) if path.parent == PACKAGE else None
        if lines is None:
            return None

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line(frame, event, arg)

    return trace


def _executable(code: CodeType) -> set[int]:
    lines = {line for start, end, line in code.co_lines() if line and start < end}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable(const)
    return lines


def main(args: list[str]) -> int:
    reached: dict[str, set[int]] = {}
    trace = _tracer(reached)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = _executable(compile("\n".join(source), str(path), "exec")) - reached.get(path.name, set())
        missed += [f"{path.name}:{n}: {source[n - 1].strip()}" for n in sorted(lines)
                   if (path.name, source[n - 1].strip()) not in ALLOWED]
    print("\n".join(missed) or f"every executable line of {PACKAGE.name} was reached")
    return int(status) or int(bool(missed))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
