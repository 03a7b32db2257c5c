"""Golden CLI output: stdout and exit code of fixed ``seeksim run`` commands.

``tests/golden/manifest.json`` lists every command with its exit code and
either a file holding its full stdout or, for the mid-size inputs, the
sha256 of its stdout. The mid-size request files are drawn here from a
seeded ``random.Random`` in the benchmark's layout (a ``#`` line, a ``head``
line, then ten comma-separated tracks per line), and their own digests are
pinned too. A change to any output must change a golden file visibly:
rerun ``PYTHONPATH=src python tests/test_golden.py`` to rewrite them.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from seeksim.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

MID_COUNT = 3000
# name -> (seed, max track, head)
MID_INPUTS = {"sparse": (11, 10**6, 500_000), "dense": (12, 180, 90)}


def mid_input_text(name):
    seed, top, head = MID_INPUTS[name]
    rng = random.Random(seed)
    tracks = [rng.randint(0, top) for _ in range(MID_COUNT)]
    lines = [f"# {MID_COUNT} seeded uniform requests", f"head {head}"]
    lines += [", ".join(map(str, tracks[i : i + 10])) for i in range(0, MID_COUNT, 10)]
    return "\n".join(lines) + "\n"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _commands():
    """(name, argv, full) for every golden command; ``full`` stores stdout
    in full, otherwise as a digest. ``{sparse}``/``{dense}`` stand for the
    mid-size input files."""
    formats = {"csv": [], "json": ["--format", "json"]}
    variants = {"": [], "-paper": ["--paper-table"], "-path": ["--path"], "-optimal": ["--algo", "optimal"]}
    for case in (1, 2, 3):
        for variant, extra in variants.items():
            for fmt, flag in formats.items():
                yield f"case{case}{variant}-{fmt}", ["run", "--case", str(case), *extra, *flag], True
    for variant, extra in (("", []), ("-path", ["--path"])):
        for fmt, flag in formats.items():
            yield f"empty{variant}-{fmt}", ["run", "--head", "5", "--requests", "", *extra, *flag], True
    for name, (_, top, _) in MID_INPUTS.items():
        for variant, extra in (("", []), ("-path", ["--path"])):
            for fmt, flag in formats.items():
                argv = ["run", "--input", f"{{{name}}}", "--max-track", str(top), *extra, *flag]
                yield f"mid-{name}{variant}-{fmt}", argv, False


def _run(argv, inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([inputs.get(arg, arg) for arg in argv])
    return code, out.getvalue()


def _write_inputs(directory):
    inputs = {}
    for name in MID_INPUTS:
        path = Path(directory) / f"{name}.txt"
        path.write_text(mid_input_text(name), encoding="utf-8")
        inputs[f"{{{name}}}"] = str(path)
    return inputs


def record(directory):
    """Rewrite ``tests/golden`` from the current code."""
    inputs = _write_inputs(directory)
    manifest = {"inputs": {name: _sha256(mid_input_text(name)) for name in MID_INPUTS}, "commands": {}}
    for name, argv, full in _commands():
        code, out = _run(argv, inputs)
        entry = {"argv": argv, "exit": code}
        if full:
            entry["stdout"] = f"{name}.out"
            (GOLDEN / entry["stdout"]).write_bytes(out.encode("utf-8"))
        else:
            entry["sha256"] = _sha256(out)
        manifest["commands"][name] = entry
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize("name", sorted(MID_INPUTS))
def test_mid_size_input_is_pinned(name):
    assert _sha256(mid_input_text(name)) == _manifest()["inputs"][name]


def test_manifest_lists_every_command():
    assert sorted(_manifest()["commands"]) == sorted(name for name, _, _ in _commands())


@pytest.mark.parametrize("name", [name for name, _, _ in _commands()])
def test_cli_output_matches_golden(name, inputs):
    entry = _manifest()["commands"][name]
    code, out = _run(entry["argv"], inputs)
    assert code == entry["exit"]
    if "stdout" in entry:
        assert out.encode("utf-8") == (GOLDEN / entry["stdout"]).read_bytes()
    else:
        assert _sha256(out) == entry["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
