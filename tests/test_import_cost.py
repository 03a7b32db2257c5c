"""Import-time guards: loading seeksim, or running a command that prints no
table, must not pull in the slow stdlib modules that value types, JSON output
and table rendering once needed at import; no command loads ``typing``
(annotations are never evaluated); and ``import seeksim`` exports
exactly the public names pinned here, so any change to them is a test edit."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
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


def _run_without_site(program: str) -> None:
    """Run ``program`` under ``python -S``, so that nothing ``site`` imports
    hides a module that seeksim loads, and require it to pass."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


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
    _run_without_site(f"import sys\n{statement}\nassert 'typing' not in sys.modules")


@pytest.mark.parametrize(
    "argv, loads_random",
    [(["run", "--case", "1"], False), (["gen", "--count", "3"], True)],
)
def test_only_seeded_commands_load_random(argv, loads_random):
    # Under -S too, since site may import random before seeksim does.
    _run_without_site(
        f"import sys\nfrom seeksim.cli import main\nassert main({argv!r}) == 0\n"
        f"assert ('random' in sys.modules) is {loads_random}"
    )


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


def _defined_functions():
    """Every function and method defined in seeksim's modules, with the
    function behind each value derived on first read."""
    for info in pkgutil.iter_modules(seeksim.__path__, "seeksim."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                fn = getattr(member, "_compute", getattr(member, "__func__", member))
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield fn


def test_every_annotation_resolves():
    # Annotations are never evaluated at run time, so a name that is not
    # imported only breaks tools that do evaluate them.
    unresolved = []
    for fn in _defined_functions():
        try:
            typing.get_type_hints(fn)
        except NameError:
            unresolved.append(f"{fn.__module__}.{fn.__qualname__}")
    assert unresolved == []
