"""Seeded inputs and the operation list of each benchmark workload.

Every input comes from the benchmark's own ``random.Random(seed)``, never
from ``seeksim.generate``, so a parent commit and a change measured with the
same seed receive byte-identical files. An op is one ``seeksim`` invocation;
the benchmark runs the ops of a workload in a fixed cycle.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

ALGORITHMS = ("FIFO", "SSTF", "SCAN", "C-SCAN", "LOOK", "ODSA")
ORACLE = "OPTIMAL"
DEFAULT_MIN_TRACK, DEFAULT_MAX_TRACK = 0, 180

BULK_COUNT = 100_000
SPARSE_MAX_TRACK = 1_000_000
VERIFY_TRIALS = 1000
VERIFY_MAX_N = 8
GEN_COUNT = 50

# The three published instances (arrival order, head) on tracks [0, 180],
# copied from the paper rather than imported, so the checker stays
# independent of the code under test.
PAPER_CASES = {
    1: ((25, 10, 151, 170, 62, 46, 74, 111), 45),
    2: ((16, 75, 24, 21, 30, 80, 116, 63), 66),
    3: ((25, 33, 54, 64, 40, 90, 110, 160), 125),
}


@dataclass(frozen=True)
class Instance:
    head: int
    queue: tuple[int, ...]
    min_track: int = DEFAULT_MIN_TRACK
    max_track: int = DEFAULT_MAX_TRACK


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker needs to judge its output.

    ``kind`` is "table", "path", "gen" or "verify". ``output`` names the file
    the op writes instead of stdout (``gen -o``); ``count`` is the number of
    requests ``gen`` draws or the number of ``verify`` trials.
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    instance: Instance | None = None
    algorithms: tuple[str, ...] = ALGORITHMS
    fmt: str = "csv"
    case: int | None = None
    paper_table: bool = False
    output: str | None = None
    count: int = 0
    seed: int = 0


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    inputs: dict[str, str]  # input file name -> sha256 of its bytes
    requests_per_op: int    # requests in each op's input (bulk workloads)
    trace_ops: tuple[Op, ...]  # the cycle a traced run times, op by op


WORKLOADS = ("cli-mix", "bulk-sparse", "bulk-dense-path", "verify-campaign")


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its op cycle."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir)


def _write(workdir: str, filename: str, text: str, inputs: dict[str, str]) -> str:
    data = text.encode("ascii")
    path = os.path.join(workdir, filename)
    with open(path, "wb") as f:
        f.write(data)
    inputs[filename] = hashlib.sha256(data).hexdigest()
    return path


def request_file_text(head: int, queue: tuple[int, ...]) -> str:
    """Request-file text: a head directive, then ten tracks per line
    separated by ", " (the README's format)."""
    lines = [f"# {len(queue)} seeded uniform requests", f"head {head}"]
    for i in range(0, len(queue), 10):
        lines.append(", ".join(str(t) for t in queue[i : i + 10]))
    return "\n".join(lines) + "\n"


def _uniform(rng: random.Random, count: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(count))


def _cli_mix(rng: random.Random, workdir: str) -> Workload:
    inputs: dict[str, str] = {}
    cases = {c: Instance(head, queue) for c, (queue, head) in PAPER_CASES.items()}
    inline = Instance(rng.randint(0, 180), _uniform(rng, 8, 0, 180))
    small = Instance(rng.randint(0, 180), _uniform(rng, 8, 0, 180))
    small_path = _write(workdir, "small.txt", request_file_text(small.head, small.queue), inputs)
    gen_seed, gen_head = rng.randrange(2**32), rng.randint(0, 180)
    gen_out = os.path.join(workdir, "gen.txt")
    ops = (
        Op("case1-csv", ("run", "--case", "1"), "table", cases[1], case=1),
        Op("case2-json", ("run", "--case", "2", "--format", "json"), "table", cases[2],
           fmt="json", case=2),
        Op("case3-paper", ("run", "--case", "3", "--paper-table"), "table", cases[3],
           case=3, paper_table=True),
        Op("case3-odsa-path", ("run", "--case", "3", "--algo", "odsa", "--path"), "path",
           cases[3], algorithms=("ODSA",)),
        Op("inline", ("run", "--head", str(inline.head), "--requests",
                      ",".join(map(str, inline.queue))), "table", inline),
        Op("file-optimal", ("run", "--input", small_path, "--algo", "optimal"), "table",
           small, algorithms=(ORACLE,)),
        Op("gen", ("gen", "--count", str(GEN_COUNT), "--seed", str(gen_seed), "--head",
                   str(gen_head), "-o", gen_out), "gen",
           Instance(gen_head, ()), output=gen_out, count=GEN_COUNT, seed=gen_seed),
    )
    return Workload(ops, inputs, 0, ops)


def _bulk(rng: random.Random, workdir: str, head: int, max_track: int, path: bool) -> Workload:
    # The head is fixed, because SSTF's cost at 1e5 requests depends on it.
    # SSTF's list.pop cost depends on which way it sweeps first. On sparse
    # requests a coin flip in its first steps picks that way, and from
    # mid-disk the two ways differ about 2x; from 5 % of the disk they cost
    # about the same. On dense requests the head at mid-disk meets an exact
    # tie at once, and the lookahead runs both ways on every seed.
    inst = Instance(head, _uniform(rng, BULK_COUNT, 0, max_track), 0, max_track)
    inputs: dict[str, str] = {}
    file = _write(workdir, "bulk.txt", request_file_text(inst.head, inst.queue), inputs)
    argv = ("run", "--input", file)
    if max_track != DEFAULT_MAX_TRACK:
        argv += ("--max-track", str(max_track))
    if path:
        op = Op("bulk-path", argv + ("--path",), "path", inst)
    else:
        op = Op("bulk-table", argv, "table", inst)
    return Workload((op,), inputs, BULK_COUNT, (op,))


def _verify(rng: random.Random, workdir: str) -> Workload:
    # The oracle's cost depends on how many 8-request trials a campaign seed
    # draws (about 8 % from seed to seed). Each op is timed relative to the
    # baseline copy running the same seed, which takes that draw out.
    seed = rng.randrange(2**31)
    op = Op(f"verify-{seed}", ("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
                               "--max-n", str(VERIFY_MAX_N)), "verify",
            count=VERIFY_TRIALS, seed=seed)
    return Workload((op,), {}, 0, (op,))


_BUILDERS = {
    "cli-mix": _cli_mix,
    "bulk-sparse": lambda rng, d: _bulk(rng, d, SPARSE_MAX_TRACK // 20, SPARSE_MAX_TRACK, False),
    "bulk-dense-path": lambda rng, d: _bulk(rng, d, DEFAULT_MAX_TRACK // 2, DEFAULT_MAX_TRACK,
                                            True),
    "verify-campaign": _verify,
}
