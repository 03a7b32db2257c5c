"""Import-time guard: loading seeksim, or running a command that prints no
table, must not pull in the slow stdlib modules that value types, JSON output
and table rendering once needed at import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"dataclasses", "inspect", "json", "decimal"}


def _modules_added(statement: str) -> set[str]:
    """Module names that ``statement`` adds to a fresh interpreter's
    ``sys.modules``; whatever ``site`` preloads is already there before it."""
    program = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "sys.stderr.write('\\nMODULES ' + ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("\nMODULES ", 1)[1].split())


@pytest.mark.parametrize("statement", ["import seeksim.cli", "import seeksim"])
def test_import_loads_no_heavy_module(statement):
    added = _modules_added(statement)
    assert "seeksim.model" in added  # the import ran
    assert not added & HEAVY


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "3", "--algo", "odsa", "--path"],
        ["gen", "--count", "5", "--seed", "1", "--head", "4"],
        ["verify", "--trials", "5"],
    ],
)
def test_commands_without_tables_load_no_heavy_module(argv):
    added = _modules_added(f"from seeksim.cli import main\nassert main({argv!r}) == 0")
    assert not added & HEAVY


def test_table_output_loads_only_what_it_uses():
    run = "from seeksim.cli import main\nmain(['run', '--case', '1'{}])"
    assert "decimal" in _modules_added(run.format(""))
    assert "json" in _modules_added(run.format(", '--path', '--format', 'json'"))
