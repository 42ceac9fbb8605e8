"""Line coverage of the package under the test suite, from the standard library.

Runs pytest in this process under a `sys.settrace` tracer that follows only the
code objects of files in `src/seqelicit`, lists every executable line of those
files from the `co_lines()` of their compiled code objects, and exits 1 naming
each line that no test reached and each branch arm that no test took.
Arguments go to pytest. From the root of a checkout, with pytest installed:

    PYTHONPATH=src python tests/line_coverage.py -q

Subprocesses are not traced, so the lines only `python -m seqelicit` runs are
allowed to stay unreached: the two `raise SystemExit(main())` guards.

The tracer also records each step from one line to the next in a frame, and
the script then names every branch arm that no test takes, as
`file:line->line`: each conditional jump and `for` loop of the compiled code
leads on to two lines, read from its bytecode with `dis`, and an arm is taken
when a test stepped from the one line to the other. Arms that stay within one
line (a conditional expression, a comprehension's filter), arms that return
or raise before another line starts, and arms into the two allowed guards
are left out. An untaken arm fails the run as an unreached line does: each
is a test to add or code to delete.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqelicit"
ALLOWED = {("__main__.py", "raise SystemExit(main())"), ("cli.py", "raise SystemExit(main())")}


def _tracer(reached: dict[str, set[int]], steps: dict[str, set[tuple[int | None, int]]]):
    """A trace function that adds each line run in the package file `name`
    to `reached[name]`, and each step from one line to the next in a frame
    to `steps[name]`, and traces no code object of any other file."""
    files: dict[str, tuple[set[int], set[tuple[int | None, int]]] | None] = {}  # co_filename -> its sets, None outside

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            found = files[filename]
        except KeyError:
            path = Path(filename).resolve()
            found = files[filename] = (
                (reached.setdefault(path.name, set()), steps.setdefault(path.name, set())) if path.parent == PACKAGE else None
            )
        if found is None:
            return None
        lines, taken = found
        last = None

        def line(frame, event, arg):
            nonlocal last
            lines.add(frame.f_lineno)
            if event == "line":
                taken.add((last, frame.f_lineno))
                last = frame.f_lineno
            return line

        return line(frame, event, arg)

    return trace


def _executable(code: CodeType) -> set[int]:
    lines = {line for start, end, line in code.co_lines() if line and start < end}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable(const)
    return lines


_JUMPS = {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_BACKWARD_NO_INTERRUPT", "JUMP_ABSOLUTE"}  # unconditional


def _arms(code: CodeType) -> set[tuple[int, int]]:
    """The (line, next line) arms of each conditional jump and `for` loop in
    `code` and the code nested in it. From a jump's target and from the
    instruction after it, the next line is the first line other than the
    jump's own that the frame reaches, through unconditional jumps; an arm
    that returns, raises or meets another branch first has none."""
    line_of = {}
    for start, end, line in code.co_lines():
        line_of.update(dict.fromkeys(range(start, end, 2), line))
    instructions = list(dis.get_instructions(code))
    by_offset = {ins.offset: ins for ins in instructions}
    after = {ins.offset: nxt.offset for ins, nxt in zip(instructions, instructions[1:])}

    def branches(ins: dis.Instruction) -> bool:
        return ins.opname == "FOR_ITER" or "_IF_" in ins.opname

    def next_line(offset: int | None, source: int) -> int | None:
        for _ in instructions:
            ins = by_offset.get(offset)
            if ins is None:
                return None
            if line_of.get(offset) not in (None, source):
                return line_of[offset]
            if branches(ins) or ins.opname.startswith(("RETURN", "RAISE", "RERAISE")):
                return None
            offset = ins.argval if ins.opname in _JUMPS else after.get(offset)
        return None

    arms = set()
    for ins in filter(branches, instructions):
        source = line_of.get(ins.offset)
        for line in (next_line(after.get(ins.offset), source), next_line(ins.argval, source)):
            if source and line:
                arms.add((source, line))
    for const in code.co_consts:
        if isinstance(const, CodeType):
            arms |= _arms(const)
    return arms


def main(args: list[str]) -> int:
    # Read and compiled before the tests run, as the tests import them, so an
    # edit made to a source during the run cannot shift its line numbers.
    sources = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    codes = {path: compile("\n".join(source), str(path), "exec") for path, source in sources.items()}
    reached: dict[str, set[int]] = {}
    steps: dict[str, set[tuple[int | None, int]]] = {}
    trace = _tracer(reached, steps)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, untaken = [], []
    for path, source in sources.items():
        code = codes[path]
        lines = _executable(code) - reached.get(path.name, set())
        missed += [f"{path.name}:{n}: {source[n - 1].strip()}" for n in sorted(lines)
                   if (path.name, source[n - 1].strip()) not in ALLOWED]
        arms = _arms(code) - steps.get(path.name, set())
        untaken += [f"{path.name}:{a}->{b}: {source[a - 1].strip()}" for a, b in sorted(arms)
                    if (path.name, source[b - 1].strip()) not in ALLOWED]
    print("\n".join(missed) or f"every executable line of {PACKAGE.name} was reached")
    print("\n".join(["branch arms no test takes:", *untaken]) if untaken
          else f"every branch arm of {PACKAGE.name} was taken")
    return int(status) or int(bool(missed or untaken))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
