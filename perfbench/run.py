"""seeksim benchmark: drives the real CLI and reports host-time metrics.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 32 --trace 0

Run from the repository root; seeksim is taken from ``src/``. The loop is
closed: one child process at a time, and the next op starts after the last
one exits. Every op's output is checked (see checker.py). With ``--trace 0``
the run times child processes and prints the end-to-end metrics; with
``--trace 1`` it also runs each op in-process, untraced and traced, and
prints per-layer metrics instead. The gated times are taken relative to the
same op run by the frozen copy of seeksim in ``baseline/``, which takes host
load out of them (see NOTES.md). The last stdout line is the result object;
the line before it is a report with the environment, the input hashes, the
raw times and the workload-specific figures (tail latency, throughput, error
rate). Both are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checker
import workloads
from tracer import SCHEDULERS, Tracer, peak_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = Path(__file__).resolve().parent / "baseline"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 7
SETUP_ARGV = ("-c", "import seeksim.cli")
# Raw CPU seconds of each workload's op (and of the set-up sample) run by the
# baseline copy on a quiet 2-vCPU Intel Xeon VM with CPython 3.11.7. They only
# set the unit of the gated times: a change that runs an op as fast as the
# baseline reads these values.
NOMINAL_S = {"setup": 0.09, "cli-mix": 0.075, "bulk-sparse": 2.7, "bulk-dense-path": 2.9,
             "verify-campaign": 2.3}

END_TO_END = {"setup_s": "s", "cpu_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "workload.parse_requests.s": "s",
    "workload.parse_requests.n": "count",
    "workload.generate.s": "s",
    "workload.render_requests.s": "s",
    "model.validate_instance.s": "s",
    **{f"schedulers.{fn}.s": "s" for fn in SCHEDULERS},
    "schedulers.brute_force_optimal.s": "s",
    "schedulers.brute_force_optimal.n": "count",
    "report.run_comparison.s": "s",
    "report.run_comparison.peak_mb": "MB",
    "report.emit.s": "s",
    "report.emit.bytes": "bytes",
    "report.head_path_series.s": "s",
    "report.emit_series.s": "s",
    "report.emit_series.bytes": "bytes",
    "report.run_property_campaign.s": "s",
    "metrics.transfer_time.s": "s",
    "metrics.display.s": "s",
    "cli.build_parser.s": "s",
    "cli.main.s": "s",
    "process.overhead.s": "s",
    **{f"sim.total_seek.{algo}": "tracks" for algo in workloads.ALGORITHMS},
    "trace.overhead_ratio": "ratio",
    "trace.gap.s": "s",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs ops as child processes or in-process and judges every output.

    The first output of each op is checked in full; every later run of the
    same op must be byte-identical to it.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # Children cache bytecode, as an installed package does, whatever the
        # caller's environment says; the first setup sample fills the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.baseline_env = {**self.env, "PYTHONPATH": str(BASELINE)}
        self.first_output: dict[str, tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv, env=None) -> tuple[float, float, float, int, bytes, bytes]:
        """Run ``python argv`` to completion; return wall seconds, CPU seconds
        (user + system), peak RSS in MiB, exit code, stdout and stderr."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env or self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes())

    def sample(self, name: str, argv, baseline: bool = False) -> tuple[float, float]:
        """Time a child that must exit 0 without stderr, and without stdout
        unless it is the baseline; return wall and CPU seconds. The baseline's
        output is left unchecked: later commits may change what seeksim prints."""
        wall, cpu, _, code, out, err = self.spawn(
            argv, self.baseline_env if baseline else None)
        self._judge(name, None, code, err if baseline else out + err, None)
        return wall, cpu

    def run_child(self, op: workloads.Op) -> tuple[float, float, float]:
        wall, cpu, rss, code, out, err = self.spawn(["-m", "seeksim", *op.argv])
        self._judge(op.name, op, code, err, out)
        return wall, cpu, rss

    def run_inprocess(self, op: workloads.Op, main) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
        wall = time.perf_counter() - start
        self._judge(op.name, op, code, err.getvalue().encode(), out.getvalue().encode())
        return wall

    def _judge(self, name, op, code, stderr: bytes, stdout: bytes | None) -> None:
        problems = []
        if code != 0:
            problems.append(f"{name}: exit code {code}")
        if stderr:
            problems.append(f"{name}: stderr {stderr[:200]!r}")
        if op is not None:
            written = Path(op.output).read_bytes() if op.output else None
            digest = sha256(stdout) + (sha256(written) if written is not None else "")
            if name not in self.first_output:
                found = checker.check(op, stdout, written)
                problems += found
                self.first_output[name] = (digest, not found)
            else:
                first, ok = self.first_output[name]
                if digest != first:
                    problems.append(f"{name}: output differs from its first run")
                elif not ok:
                    problems.append(f"{name}: repeats an incorrect output")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def percentile_tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def calibrated(samples, column: int, nominal: float) -> list[float]:
    """Each sample's time (``column`` 0: wall, 1: CPU) over the mean of its two
    baseline runs, times ``nominal``. Takes ``(current, before, after)``."""
    return [nominal * x[column] / ((b[column] + a[column]) / 2) for x, b, a in samples]


def timed_run(runner: Runner, wl: workloads.Workload, seconds: float,
              nominal: float) -> tuple[dict, dict]:
    # Host load on a shared machine moves every time in a run by tens of
    # percent, over seconds, and slows programs by how they use the memory
    # system. So each timed child runs between two runs of the same command
    # by the baseline copy, which has its memory profile; what is gated is
    # its CPU time over theirs, which also leaves out time spent waiting for
    # a CPU. Consecutive runs of one command share the baseline run between.
    def bracket(name, argv, current, before=None):
        def baseline():
            return runner.sample(f"baseline {name}", argv, baseline=True)
        before = before or baseline()
        return current(), before, baseline()

    def setup_sample():
        return bracket("setup", SETUP_ARGV, lambda: runner.sample("setup", SETUP_ARGV))

    runner.sample("setup", SETUP_ARGV)  # fills the bytecode caches before timing
    runner.sample("baseline setup", SETUP_ARGV, baseline=True)
    setups, ops = [], []
    start = time.perf_counter()
    last = 0.0
    # The run ends before a sample that would not fit in the window.
    while not ops or time.perf_counter() - start + last <= seconds:
        # Set-up samples are spread over the window.
        while len(setups) < SETUP_SAMPLES and (
                time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES):
            setups.append(setup_sample())
        t0 = time.perf_counter()
        op = wl.ops[len(ops) % len(wl.ops)]
        shared = ops[-1][2] if ops and len(wl.ops) == 1 else None
        ops.append(bracket(op.name, ("-m", "seeksim", *op.argv),
                           lambda op=op: runner.run_child(op), shared))
        last = time.perf_counter() - t0
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())

    cpu_s = calibrated(ops, 1, nominal)
    wall_s = calibrated(ops, 0, nominal)
    p50 = statistics.median(cpu_s)
    metrics = {"setup_s": statistics.median(calibrated(setups, 1, NOMINAL_S["setup"])),
               "cpu_p50_s": p50, "peak_rss_mb": statistics.median(x[2] for x, _, _ in ops)}
    figures = {
        "error_rate": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "wall_p50_s": {"value": statistics.median(wall_s), "unit": "s"},
        "raw_cpu_p50_s": {"value": statistics.median(x[1] for x, _, _ in ops), "unit": "s"},
        "raw_wall_p50_s": {"value": statistics.median(x[0] for x, _, _ in ops), "unit": "s"},
        "raw_setup_s": {"value": statistics.median(x[1] for x, _, _ in setups), "unit": "s"},
    }
    tail = percentile_tail(wall_s)
    if tail:
        figures["wall_tail_s"] = {**tail, "unit": "s"}
    if wl.requests_per_op:
        figures["requests_per_s"] = {"value": wl.requests_per_op / p50, "unit": "req/s"}
    if wl.ops[0].kind == "verify":
        figures["trials_per_s"] = {"value": workloads.VERIFY_TRIALS / p50, "unit": "trials/s"}
    return metrics, {"figures": figures, "ops_timed": len(ops),
                     "ops_cpu_s": cpu_s, "ops_raw_cpu_s": [x[1] for x, _, _ in ops],
                     "ops_rss_mb": [x[2] for x, _, _ in ops],
                     "baseline_cpu_s": [(b[1], a[1]) for _, b, a in ops]}


def traced_run(runner: Runner, wl: workloads.Workload, seconds: float,
               tracer: Tracer) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import seeksim.cli as cli

    def traced_main(argv):
        return tracer.call("cli.main", cli.main, argv)

    ops = wl.trace_ops
    runner.sample("setup", SETUP_ARGV)  # fills the bytecode cache
    runner.run_inprocess(ops[0], cli.main)  # imports and first-call costs
    child, plain, traced = defaultdict(list), defaultdict(list), defaultdict(list)
    cycle_counts: list[dict] = []
    start = time.perf_counter()
    while len(cycle_counts) < 2 or time.perf_counter() - start < seconds:
        before = dict(tracer.counts)
        for op in ops:
            child[op.name].append(runner.run_child(op)[0])
            plain[op.name].append(runner.run_inprocess(op, cli.main))
            tracer.op = f"{len(cycle_counts)}:{op.name}"
            with tracer.patched():
                traced[op.name].append(runner.run_inprocess(op, traced_main))
        cycle_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    if any(c != cycle_counts[0] for c in cycle_counts):
        runner.problems.append("simulated totals or counts differ between cycles")
        runner.failed += 1

    peak = max([peak_mb("seeksim.cli", "run_comparison",
                        lambda op=op: runner.run_inprocess(op, cli.main))
                for op in ops if op.kind == "table"], default=0.0)
    ops_traced = len(cycle_counts) * len(ops)
    metrics = {name: 0.0 for name in PER_LAYER}
    for span, total in tracer.self_times().items():
        metrics[f"{span}.s"] = total / ops_traced
    for name, count in cycle_counts[0].items():
        metrics[name] = count
    med = {k: (statistics.median(child[k]), statistics.median(plain[k]),
               statistics.median(traced[k])) for k in child}
    metrics["report.run_comparison.peak_mb"] = peak
    metrics["process.overhead.s"] = statistics.fmean(c - p for c, p, _ in med.values())
    metrics["trace.overhead_ratio"] = (sum(t for _, _, t in med.values())
                                       / sum(p for _, p, _ in med.values()))
    metrics["trace.gap.s"] = statistics.fmean(p - t for _, p, t in med.values())
    metrics = {k: v for k, v in metrics.items() if k in PER_LAYER}
    report = {"cycles_traced": len(cycle_counts), "spans": len(tracer.spans),
              "child_wall_p50_s": {k: v[0] for k, v in med.items()},
              "inprocess_wall_p50_s": {k: v[1] for k, v in med.items()},
              "traced_wall_p50_s": {k: v[2] for k, v in med.items()},
              "figures": {"error_rate": {"value": runner.failed / runner.attempted,
                                         "unit": "ratio"}}}
    return metrics, report


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": digest.hexdigest(),
        "commit": commit,
    }


class Terminated(BaseException):
    """SIGTERM arrived. Raised from the handler, so that the running child is
    killed and reaped on the way out."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "seeksim" / "cli.py").is_file():
        print(f"error: no seeksim sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, str(workdir))
    runner = Runner(workdir)
    if args.trace:
        tracer = Tracer()
        metrics, report = traced_run(runner, wl, args.seconds, tracer)
        tracer.write(workdir / "spans.jsonl")
        units = PER_LAYER
    else:
        metrics, report = timed_run(runner, wl, args.seconds, NOMINAL_S[args.workload])
        units = END_TO_END
    for name in ("stdout", "stderr", *wl.inputs, *(Path(op.output).name for op in wl.ops
                                                     if op.output)):
        (workdir / name).unlink(missing_ok=True)

    full_report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment(), "inputs": wl.inputs,
                   "problems": runner.problems, **report}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (workdir / "report.json").write_text(json.dumps({"report": full_report, "result": result},
                                                    indent=1) + "\n")
    print(json.dumps({"report": full_report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
