"""Import-time guards: loading seeksim, or running a command that prints no
table, must not pull in the slow stdlib modules that value types, JSON output
and table rendering once needed at import; no command loads ``typing``
(annotations are never evaluated); and ``import seeksim`` exports
exactly the public names pinned here, so any change to them is a test edit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import seeksim

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


@pytest.mark.parametrize(
    "statement",
    [
        "import seeksim.cli",
        "from seeksim.cli import main\nassert main(['run', '--case', '1', '--format', 'json']) == 0",
    ],
)
def test_seeksim_loads_no_typing(statement):
    # Without -S, site may import typing before seeksim does (some
    # interpreters' .pth files do), which would hide a seeksim import.
    program = f"import sys\n{statement}\nassert 'typing' not in sys.modules, 'typing loaded'\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


def test_table_output_loads_only_what_it_uses():
    run = "from seeksim.cli import main\nmain(['run', '--case', '1'{}])"
    assert "decimal" in _modules_added(run.format(""))
    assert "json" in _modules_added(run.format(", '--path', '--format', 'json'"))


PUBLIC_NAMES = [
    "ALGORITHM_ORDER", "BENCHMARK_CASES", "CampaignSummary", "ComparisonReport", "DiskGeometry",
    "Instance", "OutOfRangeError", "PUBLISHED_TABLES", "ParseError", "Schedule", "SchedulingError",
    "TransferModel", "average_seek", "brute_force_optimal", "display", "emit", "generate",
    "parse_requests", "reference_case", "render_requests", "rotational_overhead", "run_comparison",
    "run_property_campaign", "run_schedule", "schedule_cscan", "schedule_fifo", "schedule_look",
    "schedule_odsa", "schedule_scan", "schedule_sstf", "transfer_time", "validate_instance",
]


def test_public_names_are_pinned():
    assert sorted(seeksim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(seeksim, name) is not None


@pytest.mark.parametrize(
    "name",
    [
        "HeadPathSeries", "OdsaPlan", "plan_odsa", "MetricRow", "WorkloadSpec", "CampaignFailure",
        "head_path_series", "EmptyGeometryError", "InvalidModelError", "EmptyScheduleError",
        "MetricOverflowError", "QueueTooLargeError", "UnknownCaseError", "NegativeTrackError",
    ],
)
def test_removed_names_stay_gone(name):
    for module in (seeksim, seeksim.model, seeksim.report, seeksim.schedulers, seeksim.workload):
        assert not hasattr(module, name)


def test_removed_modules_stay_gone():
    with pytest.raises(ModuleNotFoundError):
        import seeksim.metrics  # noqa: F401
