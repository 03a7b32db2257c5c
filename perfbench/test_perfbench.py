"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checker
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeksim_output(op: workloads.Op) -> bytes:
    sys.path.insert(0, str(run.SRC))
    from seeksim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(op.argv)) == 0
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def cli_mix(tmp_path_factory):
    wl = workloads.build("cli-mix", 3, str(tmp_path_factory.mktemp("cli-mix")))
    return {op.name: (op, seeksim_output(op)) for op in wl.ops}


def test_checker_accepts_every_cli_mix_output(cli_mix):
    for op, out in cli_mix.values():
        written = Path(op.output).read_bytes() if op.output else None
        assert checker.check(op, out, written) == [], op.name


def corrupt(text: str, old: str, new: str) -> bytes:
    assert old in text
    return text.replace(old, new, 1).encode()


def test_checker_rejects_altered_total_seek(cli_mix):
    op, out = cli_mix["case1-csv"]
    assert checker.check(op, corrupt(out.decode(), "ODSA,195,", "ODSA,196,"))
    op, out = cli_mix["case2-json"]
    assert checker.check(op, corrupt(out.decode(), '"total_seek": 150', '"total_seek": 151'))


def test_checker_rejects_dropped_request(cli_mix):
    op, out = cli_mix["case1-csv"]
    assert checker.check(op, corrupt(out.decode(), ";10;", ";"))
    op, out = cli_mix["case3-odsa-path"]
    lines = out.decode().splitlines(keepends=True)
    assert checker.check(op, "".join(lines[:-1]).encode())


def test_checker_rejects_changed_display_digit(cli_mix):
    op, out = cli_mix["case3-paper"]
    assert checker.check(op, corrupt(out.decode(), ",21.26191,", ",21.26192,"))
    op, out = cli_mix["inline"]
    row = next(r for r in out.decode().splitlines() if r.startswith("FIFO,"))
    digits = row.split(",")[5]
    assert checker.check(op, corrupt(out.decode(), f",{digits},",
                                     f",{digits[:-1]}{(int(digits[-1]) + 1) % 10},"))


def test_checker_rejects_wrong_published_row_and_failed_campaign(cli_mix):
    op, out = cli_mix["case3-paper"]
    assert checker.check(op, corrupt(out.decode(), "29.375,29.38691,", "29.5,29.38691,"))
    verify = workloads.build("verify-campaign", 1, "").ops[0]  # writes no files
    good = f"trials=1000 seed={verify.seed} max_n=8\npasses=1000 failures=0\n".encode()
    assert checker.check(verify, good) == []
    assert checker.check(verify, good.replace(b"passes=1000 failures=0",
                                              b"passes=999 failures=1"))


def test_checker_judges_bulk_table_from_inputs(tmp_path):
    op = workloads.build("bulk-sparse", 1, str(tmp_path)).ops[0]
    inst = replace(op.instance, queue=(7, 3, 900, 3))
    op = replace(op, instance=inst, argv=("run", "--head", str(inst.head), "--requests",
                                          "7,3,900,3", "--max-track", str(inst.max_track)))
    out = seeksim_output(op)
    assert checker.check(op, out) == []
    assert checker.check(op, out.replace(b";900;", b";901;"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    built = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        wl = workloads.build(name, seed, str(workdir))
        argvs = [tuple(a.replace(str(workdir), "") for a in op.argv) for op in wl.ops]
        built[label] = (wl.inputs, argvs)
    assert built["a"] == built["b"]
    assert built["a"] != built["c"]


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1, "op"), ("inner", 2.0, 5.0, 0, "op"),
                    ("inner", 6.0, 7.0, 0, "op"), ("leaf", 3.0, 4.0, 1, "op")]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_baseline_copy_runs_on_its_own(tmp_path):
    runner = run.Runner(tmp_path)
    probe = ("-c", "import seeksim, sys; sys.stdout.write(seeksim.__file__)")
    _, _, _, code, out, err = runner.spawn(probe, runner.baseline_env)
    assert (code, err) == (0, b"")
    assert Path(out.decode()).is_relative_to(run.BASELINE)
    op = workloads.build("cli-mix", 1, str(tmp_path)).ops[0]
    runner.sample("baseline", ("-m", "seeksim", *op.argv), baseline=True)
    assert runner.failed == 0, runner.problems


def test_calibration_divides_by_the_mean_of_the_two_baseline_runs():
    samples = [((2.0, 3.0), (1.0, 1.0), (1.0, 2.0)), ((4.0, 4.0), (2.0, 4.0), (2.0, 4.0))]
    assert run.calibrated(samples, 1, 10.0) == [20.0, 10.0]
    assert run.calibrated(samples, 0, 1.0) == [2.0, 2.0]
