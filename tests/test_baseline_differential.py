"""Differential test of the CLI against the frozen copy of seeksim that the
benchmark measures, ``perfbench/baseline/seeksim``.

Both trees run the same drawn argv in-process. When both exit 0 their stdout
must match byte for byte; when both fail, their exit codes must match.
Stderr is not compared: its wording changed on purpose. Where only one tree
exits 0, the argv must fall in one of the named divergence classes below,
each a deliberate change of behaviour. A new deliberate change adds its class
here, where a reviewer sees it. The baseline directory is only read.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from seeksim.cli import main

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline" / "seeksim"

# Divergence classes: (the one tree that may exit 0, why).
ORACLE_BOUND = ("src", "the oracle takes up to 2000 requests; the baseline 9 (8 in verify)")
BAD_TRANSFER = ("baseline", "a non-finite --rps, or any bad constant with --path, exits 2")
NEGATIVE_GEN = ("baseline", "gen refuses a negative --head and a drawn negative track")
SEED_RANGE = ("baseline", "verify refuses a seed outside [0, 2**64)")
GLUED_HEAD = ("baseline", "'head,5 6' is a line of tokens, not the directive head 6")


def _load_baseline_main():
    spec = importlib.util.spec_from_file_location(
        "seeksim_baseline", BASELINE / "__init__.py", submodule_search_locations=[str(BASELINE)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(package)
        return importlib.import_module("seeksim_baseline.cli").main
    finally:
        sys.dont_write_bytecode = writes_bytecode


baseline_main = _load_baseline_main()


def _run(entry, argv):
    """(exit code, stdout) of one in-process CLI call; an uncaught exception
    is exit 1, as it would be for the interpreter."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
    return code, out.getvalue()


@st.composite
def _request_text(draw, with_head):
    """A request body over tracks 0..180 with comments anywhere, and the
    number of requests it holds when it parses."""
    tracks = draw(st.lists(st.integers(0, 180), max_size=12))
    lines = [draw(st.sampled_from(["", "# batch", "   "])) for _ in range(draw(st.integers(0, 2)))]
    if with_head:
        head = draw(st.sampled_from(["head {}", "  head\t{}", "head,5 {}", "head {} # start"]))
        lines.append(head.format(draw(st.integers(0, 180))))
    cuts = sorted(draw(st.lists(st.integers(0, len(tracks)), max_size=4)))
    for lo, hi in zip([0, *cuts], [*cuts, len(tracks)]):
        line = draw(st.sampled_from([",", ", ", " ", "\t"])).join(map(str, tracks[lo:hi]))
        lines.append(line + draw(st.sampled_from(["", "", " # note", "#"])))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["# between", "", " , ", "\t# x", "x", "-1"])))
    lines.append(draw(st.sampled_from(["", "# end"])))
    return "\n".join(lines), len(tracks)


def _pick(draw, *values):
    return draw(st.sampled_from(values))


@st.composite
def _argv(draw):
    """argv for both CLIs, the text of an ``--input`` file (or None), and
    the divergence classes the argv falls in."""
    classes = set()
    command = _pick(draw, "run", "gen", "verify", "run")
    if command == "gen":
        argv = ["gen", "--count", _pick(draw, "1", "5", "40", "17", "0")]
        argv += ["--seed", _pick(draw, "0", "7", "99", "12345", "-1")]
        if draw(st.booleans()):
            argv += ["--head", _pick(draw, "0", "90", "170", "-2")]
        if draw(st.booleans()):
            argv += ["--min-track", _pick(draw, "0", "20", "-5")]
        if draw(st.booleans()):
            argv += ["--max-track", _pick(draw, "3", "60", "180")]
        if "-2" in argv or "-5" in argv:
            classes.add(NEGATIVE_GEN)
        return argv, None, classes
    if command == "verify":
        argv = ["verify", "--trials", _pick(draw, "1", "3", "2", "0")]
        argv += ["--seed", _pick(draw, "0", "5", "42", "-1", str(2**64))]
        argv += ["--max-n", _pick(draw, "0", "1", "4", "8", "9", "12")]
        if argv[4] in ("-1", str(2**64)):
            classes.add(SEED_RANGE)
        if 9 <= int(argv[6]) <= 2000:
            classes.add(ORACLE_BOUND)
        return argv, None, classes
    argv, text, n = ["run"], None, 8
    source = _pick(draw, "case", "inline", "file")
    if source == "case":
        argv += ["--case", _pick(draw, "1", "2", "3")]
    else:
        with_head = draw(st.booleans())
        text, n = draw(_request_text(with_head))
        if not with_head:
            argv += ["--head", str(draw(st.integers(0, 180)))]
        if source == "inline":
            argv += ["--requests", text]
        if "head," in text:
            classes.add(GLUED_HEAD)
    algo = _pick(draw, "all", "fifo", "sstf", "scan", "cscan", "look", "odsa", "optimal")
    argv += ["--algo", algo, "--format", _pick(draw, "csv", "json")]
    if algo == "optimal" and 10 <= n <= 2000:
        classes.add(ORACLE_BOUND)
    path = draw(st.booleans())
    for flag, good, bad in (("--rps", ("120", "7200.5", "60"), ("nan", "inf", "0")),
                            ("--bytes", ("30000", "1", "65536"), ("0", "-4"))):
        if draw(st.integers(0, 2)) == 0:
            value = _pick(draw, *good, *bad)
            argv += [flag, value]
            if value in bad and (path or value in ("nan", "inf")):
                classes.add(BAD_TRANSFER)
    argv += ["--path"] if path else []
    argv += ["--paper-table"] if draw(st.integers(0, 1 if source == "case" else 5)) == 0 else []
    return argv, text if source == "file" else None, classes


@settings(max_examples=150, deadline=None)
@given(_argv())
@example((["run", "--case", "2", "--format", "json", "--paper-table"], None, set()))
@example((["run", "--algo", "odsa", "--format", "csv", "--path"], "head 45\n25 # a\n151\n", set()))
@example((["run", "--algo", "sstf", "--format", "csv"], "head,5 9\n1\n", {GLUED_HEAD}))
def test_stdout_matches_the_frozen_baseline(drawn):
    argv, text, classes = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            (Path(tmp) / "requests.txt").write_text(text, encoding="utf-8")
            argv = [*argv, "--input", str(Path(tmp) / "requests.txt")]
        (code, out), (base_code, base_out) = _run(main, argv), _run(baseline_main, argv)
    event(f"{argv[0]} exit {code} / baseline {base_code}")
    if code == 0 and base_code == 0:
        assert out == base_out, argv
    elif code != 0 and base_code != 0:
        assert code == base_code, argv
    else:
        succeeded = "src" if code == 0 else "baseline"
        assert succeeded in {tree for tree, _ in classes}, (argv, text, code, base_code)
