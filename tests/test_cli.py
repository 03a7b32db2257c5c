import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from seeksim import report
from seeksim.cli import _ALGO_TOKENS, main
from seeksim.model import DiskGeometry, validate_instance
from seeksim.report import emit, run_comparison
from seeksim.schedulers import ORACLE_MAX_REQUESTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_case1_csv(capsys):
    code, out, err = run_cli(capsys, "run", "--case", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("algorithm,total_seek,average_seek,transfer_time,service_order")
    assert any(l.startswith("ODSA,195,24.375,") for l in lines)


def test_run_case2_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    odsa = [r for r in doc["rows"] if r["algorithm"] == "ODSA"][0]
    assert odsa["total_seek"] == 150
    assert odsa["transfer_time_display"] == "18.76191"


def test_run_single_algorithm(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "3", "--algo", "cscan")
    assert code == 0
    assert out.splitlines()[1].startswith("C-SCAN,325,")


def test_run_inline_requests(capsys):
    code, out, _ = run_cli(capsys, "run", "--head", "50", "--requests", "40,60", "--algo", "sstf")
    assert code == 0
    assert out.splitlines()[1].startswith("SSTF,30,")


def test_run_input_file_with_head_directive(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_text("head 45\n25 10 151 170 62 46 74 111\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--input", str(path), "--algo", "odsa")
    assert code == 0
    assert out.splitlines()[1].startswith("ODSA,195,")


def test_run_head_path_series(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--algo", "odsa", "--path")
    assert code == 0
    assert out.splitlines()[1] == "ODSA,0,45"
    assert out.splitlines()[2] == "ODSA,1,10"


def test_run_paper_table_flags_look_divergence(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "2", "--paper-table")
    assert code == 0
    look = [l for l in out.splitlines() if l.startswith("LOOK,")][0]
    assert "23.875" in look and "differs from published table" in look


def test_run_optimal_oracle(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--algo", "optimal")
    assert code == 0
    assert out.splitlines()[1].startswith("OPTIMAL,195,")


def test_custom_geometry_changes_cscan_wrap(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--head", "50", "--requests", "40,60,80", "--algo", "cscan",
        "--max-track", "100",
    )
    assert code == 0
    # up sweep 50->100 plus wrap 100 plus 0->40
    assert out.splitlines()[1].startswith("C-SCAN,190,")


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--case", "1", "--head", "45"),
        ("run", "--case", "1", "--requests", "1,2"),
        ("run", "--case", "1", "--min-track", "0"),
        ("run", "--head", "45"),
        ("run", "--requests", "1,2"),
        ("run", "--head", "45", "--requests", "1,2", "--input", "nope.txt"),
        ("run", "--head", "45", "--requests", "25,x"),
        ("run", "--head", "45", "--requests", "999"),
        ("run", "--head", "45", "--requests", "1,2", "--paper-table"),
        ("run", "--case", "1", "--path", "--paper-table"),
        (
            "run", "--head", "45", "--requests", ",".join(["5"] * (ORACLE_MAX_REQUESTS + 1)),
            "--algo", "optimal",
        ),
        ("gen", "--count", "0"),
        ("gen", "--count", "3", "--head", "300"),
        ("verify", "--trials", "0"),
        ("verify", "--max-n", str(ORACLE_MAX_REQUESTS + 1)),
        ("run", "--case", "1", "--rps", "nan"),
        ("run", "--case", "1", "--rps", "inf"),
        ("run", "--case", "1", "--algo", "odsa", "--rps", "1e-320"),
        ("run", "--case", "1", "--bytes", "9" * 400),
        ("run", "--head", str(2**1100), "--requests", f"1,{2**1100}", "--max-track", str(2**1100)),
        ("run", "--case", "1", "--path", "--rps", "nan"),
        ("run", "--case", "1", "--path", "--bytes", "0"),
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_oversized_token_error_is_one_short_line(capsys):
    code, out, err = run_cli(capsys, "run", "--head", "5", "--requests", "1," + "7" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "5000 characters" in err


@pytest.mark.parametrize(
    "requests",
    [",".join(["999"] * 2000), "1," + "7" * 4000],
    ids=["2000-tracks", "4000-digit-track"],
)
def test_out_of_range_error_is_one_short_line(capsys, requests):
    code, out, err = run_cli(capsys, "run", "--head", "5", "--requests", requests)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "flag", ["--head", "--min-track", "--max-track", "--bytes", "--track-bytes"]
)
def test_oversized_integer_flag_is_echoed_short(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--head", "5", "--requests", "1", flag, "7" * 5000])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert len(err.encode()) < 1024 and "5000 characters" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("run", "--case", "1", "--rps", "x" * 5000), ("run", "--case", "7" * 4000)],
    ids=["rps", "case"],
)
def test_oversized_float_and_case_flags_are_echoed_short(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert len(err.encode()) < 1024 and "characters" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "error: the following arguments are required: command"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        (["run", "--algo", "x"], "error: argument --algo: invalid choice: 'x'"),
        (["gen"], "error: the following arguments are required: --count"),
        (["run", "--case", "1", "a\nb"], "error: unrecognized arguments: a\\nb"),
    ],
)
def test_usage_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["verify", "-h"]])
def test_help_still_prints_usage(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and err == ""
    assert out.startswith("usage: seeksim") and "options:" in out


@pytest.mark.parametrize("case", ["0", "4", "-1"])
def test_case_outside_1_to_3_exits_2(capsys, case):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--case", case])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds",
    [("--min-track", "10", "--max-track", "7" * 4000), ("--min-track", "7" * 4000, "--max-track", "5")],
    ids=["out-of-range", "empty-geometry"],
)
def test_geometry_bound_error_is_one_short_line(capsys, bounds):
    code, out, err = run_cli(capsys, "run", "--head", "5", "--requests", "1", *bounds)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "4000 characters" in err


def test_run_input_with_utf8_bom(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_bytes(b"\xef\xbb\xbfhead 45\n25 10 151\n")
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "run", "--head", "45", "--requests", "25,10,151")[1]


@pytest.mark.parametrize("n", [10, ORACLE_MAX_REQUESTS])
def test_run_optimal_accepts_queue_up_to_bound(capsys, n):
    code, out, _ = run_cli(
        capsys, "run", "--head", "45", "--requests", ",".join(["5"] * n), "--algo", "optimal"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("OPTIMAL,40,")


def test_verify_accepts_max_n_above_old_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "3", "--max-n", "10")
    assert code == 0
    assert out == "trials=20 seed=3 max_n=10\npasses=20 failures=0\n"


def test_run_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_bytes(b"head 45\n25 \xff 10\n")
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_run_head_conflict_between_flag_and_file(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_text("head 10\n5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--head", "45", "--input", str(path))
    assert code == 2 and "head" in err


def test_gen_is_deterministic_and_parseable(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "gen", "--count", "8", "--seed", "3", "--head", "45")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--count", "8", "--seed", "3", "--head", "45")
    assert out1 == out2

    path = tmp_path / "w.txt"
    path.write_text(out1, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--input", str(path), "--algo", "odsa")
    assert code == 0


def test_gen_writes_output_file(capsys, tmp_path):
    path = tmp_path / "w.txt"
    code, out, _ = run_cli(capsys, "gen", "--count", "4", "--seed", "9", "-o", str(path))
    assert code == 0 and out == ""
    body = path.read_text(encoding="utf-8")
    assert body.startswith("# uniform workload:")
    assert len(body.splitlines()) == 5


def test_gen_and_verify_default_to_seed_0(capsys):
    code, out, _ = run_cli(capsys, "gen", "--count", "6")
    assert code == 0 and "seed=0 " in out.splitlines()[0]
    assert out == run_cli(capsys, "gen", "--count", "6", "--seed", "0")[1]
    code, out, _ = run_cli(capsys, "verify", "--trials", "3")
    assert code == 0 and out.startswith("trials=3 seed=0 ")


@pytest.mark.parametrize("head", ["0", "-3"])
def test_gen_refuses_a_negative_track_before_writing(capsys, tmp_path, head):
    # run could not read the file back, since request files hold no negative
    # track; so gen exits 2 with one error line and creates no file.
    path = tmp_path / "w.txt"
    code, out, err = run_cli(
        capsys, "gen", "--count", "5", "--seed", "1", "--min-track", "-10", "--max-track", "10",
        "--head", head, "-o", str(path),
    )
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: a request file holds no negative track, got '-")
    assert err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_refuses_a_seed_beyond_64_unsigned_bits(capsys, seed):
    # random.Random(-1) would draw exactly the trials of seed 1.
    code, out, err = run_cli(capsys, "verify", "--trials", "3", "--seed", seed)
    assert code == 2 and out == ""
    assert err == "error: seed must fit in 64 unsigned bits\n"


def test_verify_success(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "40", "--seed", "11")
    assert code == 0
    assert "passes=40 failures=0" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    # no real counterexample exists, so fake a failing campaign to pin the
    # exit-code contract
    from seeksim import cli
    from seeksim.report import CampaignSummary

    failing = CampaignSummary(
        trials=2,
        seed=0,
        max_n=8,
        passes=1,
        failures=1,
        check_failures={"dominance:FIFO": 1},
        first_counterexample={"queue": [3], "head": 0, "checks": ["dominance:FIFO"]},
    )
    monkeypatch.setattr(cli, "run_property_campaign", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "verify", "--trials", "2")
    assert code == 1
    assert "failures=1" in out
    assert "first counterexample" in out


def test_verify_prints_each_failed_check(capsys, monkeypatch):
    # A wrong scheduler makes real counterexamples: this SSTF drops the first
    # request it serves, so every trial fails its permutation check.
    from seeksim import report
    from seeksim.model import Schedule

    sstf = report._BUILDERS["SSTF"]
    monkeypatch.setitem(
        report._BUILDERS, "SSTF", lambda inst: Schedule("SSTF", inst.head, sstf(inst).stops[1:])
    )
    code, out, err = run_cli(capsys, "verify", "--trials", "5", "--seed", "4")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["trials=5 seed=4 max_n=8", "passes=0 failures=5"]
    checks = lines[2:-1]
    assert "failed check permutation:SSTF: 5" in checks
    assert checks == sorted(checks) and all(line.startswith("failed check ") for line in checks)
    assert lines[-1].startswith("first counterexample: {'queue': [")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_metric_prints_nothing(capsys, fmt):
    # Every row's average seek overflows a float, so the table fails before
    # its first piece: no header is written ahead of the error.
    nines = "9" * 400
    code, out, err = run_cli(capsys, "run", "--head", "0", "--max-track", nines,
                             "--requests", f"0,{nines}", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_reader_that_closes_early_gets_exit_141(tmp_path):
    # A dense --path output far larger than a pipe's buffer, so the reader
    # closes while the writes go on. Default buffering, whatever the caller's.
    path = tmp_path / "dense.txt"
    path.write_text("head 90\n" + "\n".join(str(i * 7 % 181) for i in range(20000)) + "\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "seeksim", "run", "--input", str(path), "--path"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


class _Pieces(io.StringIO):
    """A stdout that keeps every piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 60), max_size=40),
    st.integers(0, 60),
    st.sampled_from(["all", "fifo", "scan", "optimal"]),
    st.sampled_from(["csv", "json"]),
    st.booleans(),
    st.integers(1, 4),
)
def test_streamed_pieces_join_to_emit(queue, head, algo, fmt, path, chunk):
    argv = ["run", "--head", str(head), "--requests", ",".join(map(str, queue)),
            "--max-track", "60", "--algo", algo, "--format", fmt, *(["--path"] if path else [])]
    out = _Pieces()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_SERIES_CHUNK", chunk)
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    instance = validate_instance(queue, head, DiskGeometry(0, 60))
    table = run_comparison(instance, algorithms=_ALGO_TOKENS[algo])
    assert "".join(out.pieces) == emit(table.rows if path else table, fmt)
    if path:
        # No piece holds more than a chunk of points, however long the path.
        point = "\n" if fmt == "csv" else "[\n          "
        assert max(piece.count(point) for piece in out.pieces) <= chunk


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seeksim", "run", "--case", "1", "--algo", "odsa"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("ODSA,195,")


# The CLI guarantee: exit 0 or 2 (verify may also exit 1), never a
# traceback, and only finite numbers in the output of a successful run.
_INTS = st.one_of(
    st.integers(-5, 400).map(str),
    st.sampled_from(["0", "180", "-0", "1_000", "x", "", "1.5", "9" * 400, str(2**70)]),
)
# Transfer constants: three draws in four are plausible, the rest edge cases.
_SIZES = st.integers(0, 3).flatmap(
    lambda k: st.integers(1, 10**6).map(str) if k else _INTS
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-320", "1e308", "0", "-1", "x", "nan", "inf", "120"]),
)
_QUEUES = st.lists(st.integers(0, 200), max_size=30)
_REQUESTS = st.one_of(
    _QUEUES.map(lambda q: ",".join(map(str, q))),
    st.text(alphabet="0123456789,- x#\n\t", max_size=40),
)
_FILES = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.integers(0, 200), _QUEUES).map(
        lambda hq: f"head {hq[0]}\n{' '.join(map(str, hq[1]))}\n".encode()
    ),
)
# Flags a run may add to its instance source, each drawn with probability 1/2.
_RUN_FLAGS = {
    "--bytes": _SIZES,
    "--track-bytes": _SIZES,
    "--rps": _FLOATS,
    "--algo": st.sampled_from(["all", "fifo", "sstf", "scan", "cscan", "look", "odsa", "optimal"]),
    "--format": st.sampled_from(["csv", "json"]),
}
# Flags that often contradict the instance source; at most one is added.
_CONFLICTING_FLAGS = {
    "--case": st.sampled_from(["1", "2", "3", "4", "x"]),
    "--head": _INTS,
    "--requests": _REQUESTS,
    "--min-track": _INTS,
    "--max-track": _INTS,
}


@st.composite
def _argv(draw):
    """argv for ``main`` and the bytes of an ``--input`` file (or None).
    Most ``run`` draws start from a valid instance, so that exit 0 is common."""
    command = draw(st.sampled_from(["run", "run", "gen", "verify"]))
    if command == "gen":
        argv = ["gen", "--count", draw(st.integers(-2, 1000).map(str))]
        for flag, values in (("--seed", _INTS), ("--head", _INTS), ("--min-track", _INTS),
                             ("--max-track", _INTS)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        return argv, None
    if command == "verify":
        argv = ["verify", "--trials", draw(st.integers(-1, 20).map(str))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_INTS)]
        argv += ["--max-n", draw(st.sampled_from(["0", "1", "8", "30", "x", "2001"]))]
        return argv, None
    argv, data = ["run"], None
    source = draw(st.sampled_from(["case", "inline", "file", "none"]))
    if source == "case":
        argv += ["--case", draw(st.sampled_from(["1", "2", "3"]))]
    elif source == "inline":
        argv += ["--head", draw(st.integers(0, 180).map(str)), "--requests", draw(_REQUESTS)]
    elif source == "file":
        data = draw(_FILES)
    for flag, values in _RUN_FLAGS.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.integers(0, 3)) == 0:
        flag = draw(st.sampled_from(sorted(_CONFLICTING_FLAGS)))
        argv += [flag, draw(_CONFLICTING_FLAGS[flag])]
    argv += draw(st.sampled_from([[], [], ["--path"], ["--paper-table"], ["--path", "--paper-table"]]))
    return argv, data


def _numbers_are_finite(text):
    """No token of ``text`` reads as nan or infinity; integers of any size
    are finite."""
    for token in re.split(r"[\s,;:\[\]{}\"=]+", text):
        if re.fullmatch(r"-?\d+", token):
            continue
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(_argv())
@example((["run", "--algo", "x"], None))
@example((["run", "--case", "1", "x\ny"], None))
def test_cli_guarantee(drawn):
    argv, data = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            path = f"{tmp}/requests.txt"
            with open(path, "wb") as f:
                f.write(data)
            argv = [*argv, "--input", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    event(f"{argv[0]} exit {code}")
    allowed = {0, 1, 2} if argv[0] == "verify" else {0, 2}
    assert code in allowed, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert _numbers_are_finite(out.getvalue()), out.getvalue()
    else:
        assert out.getvalue() == "" or argv[0] == "verify"
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
