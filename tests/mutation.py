"""Mutation runner: make one-change mutants of a module and count how many
the named test files kill.

    python3 tests/mutation.py src/seeksim/report.py \\
        tests/test_report.py tests/test_golden.py tests/test_cli.py

Each mutant changes one site of the module's syntax tree:

- a comparison flipped (< and <=, > and >=, == and !=, in and not in,
  is and is not);
- + and - swapped;
- an int constant 0, 1 or 2 raised by one;
- bisect_left and bisect_right swapped, and min and max.

The repository's ``src/`` and ``tests/``, and the frozen
``perfbench/baseline/`` that the differential test reads, are copied to a
temporary directory once; each mutant is written over the module there,
and the test files run with ``pytest -x`` under a timeout and an
address-space limit (``_MEMORY_LIMIT``), set with ``setrlimit`` in that run's
process only, so a mutant that loops while it allocates fails fast. A
failing run (a failed test, a test file that no longer imports, a pytest
internal error, or a run that dies on a signal, which the line names) or a
timeout kills the mutant; a passing run lets it survive. A timing test that
flakes under load counts as a kill too, so a high rate is an upper bound.
One line per mutant goes to stdout, then the kill rate. The file has no
``test_`` prefix, so pytest does not collect it, and it needs only the
stdlib and the test dependencies.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}
# Address space of one mutant run: the unmutated suite needs far less, and a
# mutant that appends in a loop hits it within seconds.
_MEMORY_LIMIT = 2 << 30
_NAMES = {"bisect_left": "bisect_right", "bisect_right": "bisect_left", "min": "max", "max": "min"}


def _sites(tree: ast.AST) -> Iterator[tuple[int, str, Callable[[], None]]]:
    """Each mutation site of ``tree`` as (line, description, apply), where
    apply() makes that one change to the tree in place."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = _FLIPS.get(type(op))
                if new is not None:
                    yield (node.lineno, f"{type(op).__name__} -> {new.__name__}",
                           lambda ops=node.ops, i=i, new=new: ops.__setitem__(i, new()))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
            new = _ARITH[type(node.op)]
            yield (node.lineno, f"{type(node.op).__name__} -> {new.__name__}",
                   lambda node=node, new=new: setattr(node, "op", new()))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            yield (node.lineno, f"{node.value} -> {node.value + 1}",
                   lambda node=node: setattr(node, "value", node.value + 1))
        elif isinstance(node, ast.Name) and node.id in _NAMES:
            yield (node.lineno, f"{node.id} -> {_NAMES[node.id]}",
                   lambda node=node: setattr(node, "id", _NAMES[node.id]))


def mutants(source: str) -> Iterator[tuple[int, str, str]]:
    """Each mutant of ``source`` as (line, description, mutated source)."""
    lines = [line for line, _, _ in _sites(ast.parse(source))]
    for k in sorted(range(len(lines)), key=lines.__getitem__):
        tree = ast.parse(source)
        line, what, apply = next(itertools.islice(_sites(tree), k, None))
        apply()
        yield line, what, ast.unparse(tree)


def _outcome(copy: Path, tests: list[str], timeout: float) -> tuple[str, str]:
    """The run's outcome, and what ended it when a signal did."""
    # No bytecode cache: two mutants of one size written within a second
    # would otherwise share a stale .pyc. Temporary files go to a directory
    # of the run's own inside the copy, removed after it: a run killed at the
    # timeout never runs its own clean-up.
    run_tmp = tempfile.mkdtemp(dir=copy)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "TMPDIR": run_tmp}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT,) * 2),
        )
    except subprocess.TimeoutExpired:
        return "timeout", ""
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
    # pytest exits 1 when a test fails, 2 when a test file fails to import and
    # 3 on an internal error, such as a mutant that runs main() on import. The
    # unmutated run must pass first, so any of these comes from the mutant, as
    # does a signal: an abort when the address-space limit is hit in C code.
    if proc.returncode < 0:
        number = -proc.returncode
        try:
            return "killed", signal.Signals(number).name
        except ValueError:  # a real-time signal, which the enum does not name
            return "killed", f"signal {number}"
    outcomes = {0: "survived", 1: "killed", 2: "killed", 3: "killed"}
    return outcomes.get(proc.returncode, f"error {proc.returncode}"), ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="test files to run, relative to the root")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per mutant run")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "perfbench/baseline"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        target = copy / args.module
        baseline, ended_by = _outcome(copy, args.tests, args.timeout)
        if baseline != "survived":
            detail = f"{baseline} {ended_by}".rstrip()
            print(f"the unmutated tests do not pass ({detail})", file=sys.stderr)
            return 2
        counts: dict[str, int] = {}
        for line, what, text in mutants(source):
            target.write_text(text)
            outcome, ended_by = _outcome(copy, args.tests, args.timeout)
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{outcome:8} {args.module}:{line} {what} {ended_by}".rstrip(), flush=True)
        total = sum(counts.values())
        dead = counts.get("killed", 0) + counts.get("timeout", 0)
        print(f"{dead} of {total} mutants killed ({100 * dead / max(total, 1):.0f} %): "
              + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
