"""Process start-up: what `import seqelicit.cli` loads, and the root's exports.

Each check runs a fresh interpreter, since the test process has long since
imported everything. The module lists are compared with a bare interpreter's
on the same host, so whatever its site hooks preload cancels out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import seqelicit
from conftest import INSTANCES_DIR

SRC = Path(seqelicit.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
# Loaded only by the `oracle` subcommand, or by nothing at all.
HEAVY = {"dataclasses", "inspect", "seqelicit.oracle"}
EXPORTS = (
    "BadFunctionTable", "CapExceeded", "CostOutOfRange", "ElicitError", "FixedOrderPolicy", "HcfPolicy",
    "InfoState", "MalformedDocument", "PolicyFailed", "QOutOfRange", "StateExhausted", "TRUTHFUL_COMPUTE",
    "audit_full_tree", "deviation_profile", "draw_secrets", "exists_appropriate", "ingest", "run",
)
LIST_MODULES = "sys.stdout.write('\\n'.join(sys.modules))"


def _child(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, check=False, timeout=60)


def _modules_after(code: str) -> set[str]:
    child = _child("-c", f"{code}; {LIST_MODULES}")
    assert child.returncode == 0, child.stderr
    return set(child.stdout.decode().split("\n"))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_oracle():
    bare = _modules_after("import sys")
    loaded = _modules_after("import seqelicit.cli, sys")
    assert "seqelicit.cli" in loaded
    assert (loaded - bare) & HEAVY == set()


def test_the_oracle_subcommand_loads_the_oracle_and_prints_todays_bytes():
    example2 = str(INSTANCES_DIR / "example2.json")
    child = _child("-m", "seqelicit", "oracle", example2, "--mode", "mechanisms", "--json")
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == (
        b'{\n  "mode": "mechanisms",\n  "verify_exists": true,\n  "oracle_exists": true,\n'
        b'  "mechanisms_checked": 1,\n  "agree": true\n}\n'
    )


def test_every_exported_name_resolves_in_a_fresh_process():
    # Every exported name resolves by a star import and by attribute, without
    # loading the oracle; an unknown name raises.
    assert seqelicit.__all__ == sorted(EXPORTS)
    code = (
        "import sys\n"
        "from seqelicit import *\n"
        "import seqelicit\n"
        "missing = [name for name in seqelicit.__all__ if name not in globals()]\n"
        "assert not missing, missing\n"
        "assert all(getattr(seqelicit, name) is globals()[name] for name in seqelicit.__all__)\n"
        "assert 'seqelicit.oracle' not in sys.modules\n"
        "try:\n"
        "    seqelicit.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('seqelicit.no_such_name resolved')\n"
    )
    child = _child("-c", code)
    assert child.returncode == 0, child.stderr.decode()
