"""CLI output pinned across versions: exit code and stdout digest of a fixed sweep.

Criterion 9 only compares a run with itself; this table was written from an
earlier version of the package, so any change to the bytes a subcommand
prints (or to its exit code) shows up here. Every call runs in-process
through `main()`.

Regenerate the table (only when an output change is intended) with
`PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from seqelicit.cli import main

HERE = Path(__file__).resolve().parent
INSTANCES_DIR = HERE.parent / "instances"
TABLE = HERE / "cli_golden.json"

COMMANDS = (
    ("verify",),
    ("verify", "--witness"),
    ("pivotal",),
    ("graph",),
    ("hcf", "--seed", "7"),
    ("audit",),
    ("audit", "--policy", "fixed"),
    ("oracle", "--mode", "pivotal"),
    ("oracle", "--mode", "mechanisms"),
    ("oracle", "--mode", "hcf-tree"),
)
SMALL_N_COMMANDS = tuple(("deviate", "--agent", "1", "--action", action) for action in ("truthful", "guess-1"))
# Calls for one file. The file's agents sit at cost ranks 3, 4, 1, 2, 5, and
# `11000` is not a fixed point of that permutation (the sweep's `10101` is),
# so reading the string in rank order instead of file order changes the bytes.
FILE_COMMANDS = {"rational_forms.json": (("hcf", "--secrets", "11000"),)}


def sweep() -> list[tuple[str, ...]]:
    """Every call of the sweep, as argv with the instance given by file name."""
    calls = []
    for path in sorted(INSTANCES_DIR.glob("*.json")):
        n = json.loads(path.read_text())["n"]
        commands = COMMANDS + (("hcf", "--secrets", ("10" * n)[:n]),)
        if n <= 4:
            commands += SMALL_N_COMMANDS
        commands += FILE_COMMANDS.get(path.name, ())
        for command, *flags in commands:
            for mode in ((), ("--json",)):
                calls.append((command, path.name, *flags, *mode))
    return calls


def outcome(call: tuple[str, ...]) -> list:
    """[exit code, sha256 of stdout] of one in-process call."""
    command, name, *rest = call
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(INSTANCES_DIR / name), *rest])
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def test_cli_output_matches_pinned_table():
    expected = json.loads(TABLE.read_text())
    calls = sweep()
    assert len(calls) == 194
    assert sorted(expected) == sorted(" ".join(call) for call in calls)
    mismatches = [" ".join(call) for call in calls if outcome(call) != expected[" ".join(call)]]
    assert mismatches == []


if __name__ == "__main__":
    rows = sorted((" ".join(call), outcome(call)) for call in sweep())
    sys.stdout.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
