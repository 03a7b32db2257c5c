"""Independent output checker.

Judges one op's output from the op's inputs alone: it recomputes what it can
(the single-sweep closed form, path lengths, averages, the truncated display
digits, the published rows) and never imports seeksim. ``check`` returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from decimal import ROUND_DOWN, Decimal

from workloads import ORACLE, VERIFY_MAX_N, Instance, Op

# A bulk row's service_order field holds 1e5 tracks.
csv.field_size_limit(1 << 30)

# Transfer constants (bytes, bytes per track, rev/s) the CLI defaults to.
BYTES, TRACK_BYTES, RPS = 30000, 32256, 120.0
OVERHEAD = 1.0 / (2.0 * RPS) + BYTES / (RPS * TRACK_BYTES)

# (average seek, transfer time) as printed in the paper's three tables.
PUBLISHED = {
    1: {"FIFO": ("48", "48.01191"), "SSTF": ("35.625", "35.63691"),
        "SCAN": ("38.125", "38.13691"), "C-SCAN": ("42.5", "42.51191"),
        "LOOK": ("37.5", "37.51191"), "ODSA": ("24.375", "24.38691")},
    2: {"FIFO": ("38.875", "38.88691"), "SSTF": ("19.5", "19.51191"),
        "SCAN": ("22.75", "22.76191"), "C-SCAN": ("43.875", "43.88691"),
        "LOOK": ("23.875", "23.88691"), "ODSA": ("18.75", "18.76191")},
    3: {"FIFO": ("35.375", "35.38691"), "SSTF": ("29.375", "29.38691"),
        "SCAN": ("35.625", "35.63691"), "C-SCAN": ("40.625", "40.63691"),
        "LOOK": ("29.375", "29.38691"), "ODSA": ("21.25", "21.26191")},
}
# The two published rows no sweep reproduces; the CLI flags them.
DIVERGENT = {(1, "LOOK"), (2, "LOOK")}
DIVERGENCE_NOTE = "differs from published table"

TABLE_HEADER = ["algorithm", "total_seek", "average_seek", "transfer_time", "service_order",
                "average_seek_display", "transfer_time_display"]
PAPER_HEADER = ["published_average_seek", "published_transfer_time", "note"]
# Unserviced stops each algorithm may add to its head path (SCAN's run-out,
# C-SCAN's run-out and wrap landing).
EXTRA_STOPS = {"SCAN": 1, "C-SCAN": 2}


def closed_form(inst: Instance) -> int:
    lo, hi = min(inst.queue), max(inst.queue)
    return min(abs(inst.head - lo), abs(inst.head - hi)) + (hi - lo)


def path_length(start: int, tracks) -> int:
    total, pos = 0, start
    for t in tracks:
        total += abs(t - pos)
        pos = t
    return total


def truncate5(value_text: str) -> str:
    """The 5-decimal display form of a printed value: truncated toward zero,
    trailing zeros dropped."""
    text = str(Decimal(value_text).quantize(Decimal("0.00001"), rounding=ROUND_DOWN))
    return text.rstrip("0").rstrip(".") if "." in text else text


def check(op: Op, stdout: bytes, written: bytes | None = None) -> list[str]:
    try:
        if op.kind == "table":
            return _check_table(op, stdout.decode("utf-8"))
        if op.kind == "path":
            return _check_path(op, stdout.decode("utf-8"))
        if op.kind == "gen":
            return _check_gen(op, stdout, written)
        if op.kind == "verify":
            return _check_verify(op, stdout)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError, csv.Error) as exc:
        return [f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"]
    return [f"{op.name}: unknown op kind {op.kind!r}"]


def _check_table(op: Op, text: str) -> list[str]:
    if op.fmt == "json":
        doc = json.loads(text)
        problems = _check_json_instance(op, doc["instance"])
        rows = [_json_row(r) for r in doc["rows"]]
    else:
        records = list(csv.reader(io.StringIO(text)))
        header = TABLE_HEADER + (PAPER_HEADER if op.paper_table else [])
        problems = [] if records[0] == header else [f"{op.name}: header {records[0]}"]
        rows = [dict(zip(header, r)) for r in records[1:]]
        if any(len(r) != len(header) for r in records[1:]):
            problems.append(f"{op.name}: ragged rows")
    return problems + _check_rows(op, rows)


def _json_row(entry: dict) -> dict:
    row = {k: v for k, v in entry.items() if k != "service_order"}
    row["service_order"] = ";".join(str(t) for t in entry["service_order"])
    row["total_seek"] = str(entry["total_seek"])
    for key in ("average_seek", "transfer_time"):
        row[key] = repr(entry[key])
    return row


def _check_json_instance(op: Op, block: dict) -> list[str]:
    inst = op.instance
    want = {
        "head": inst.head,
        "queue": list(inst.queue),
        "geometry": {"min_track": inst.min_track, "max_track": inst.max_track},
        "model": {"bytes_to_transfer": BYTES, "bytes_per_track": TRACK_BYTES,
                  "rotation_speed": RPS},
        "case": op.case,
    }
    return [] if block == want else [f"{op.name}: instance block {block}"]


def _check_rows(op: Op, rows: list[dict]) -> list[str]:
    inst = op.instance
    names = [r["algorithm"] for r in rows]
    if names != list(op.algorithms):
        return [f"{op.name}: algorithms {names}, expected {list(op.algorithms)}"]
    n = len(inst.queue)
    want = Counter(inst.queue)
    best = closed_form(inst)
    problems = []
    for row in rows:
        name = row["algorithm"]
        where = f"{op.name}/{name}"
        order = [int(t) for t in row["service_order"].split(";")]
        total = int(row["total_seek"])
        if Counter(order) != want:
            problems.append(f"{where}: service order is not the input multiset")
        if name == "FIFO" and order != list(inst.queue):
            problems.append(f"{where}: not in arrival order")
        if name in EXTRA_STOPS:
            if total < path_length(inst.head, order):
                problems.append(f"{where}: total {total} below its service path")
        elif total != path_length(inst.head, order):
            problems.append(f"{where}: total {total} is not its service path length")
        if name in ("ODSA", ORACLE) and total != best:
            problems.append(f"{where}: total {total}, closed form gives {best}")
        if total < best:
            problems.append(f"{where}: total {total} beats the optimum {best}")
        problems += _check_averages(where, row, total, n)
        if op.case is not None:
            problems += _check_published(op, row, where)
    return problems


def _check_averages(where: str, row: dict, total: int, n: int) -> list[str]:
    problems = []
    avg = total / n
    for key, want in (("average_seek", avg), ("transfer_time", avg + OVERHEAD)):
        got = float(row[key])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{where}: {key} {got}, expected {want}")
        if row[f"{key}_display"] != truncate5(row[key]):
            problems.append(f"{where}: {key}_display {row[f'{key}_display']!r} "
                            f"does not truncate {row[key]}")
    return problems


def _check_published(op: Op, row: dict, where: str) -> list[str]:
    name = row["algorithm"]
    pub_avg, pub_transfer = PUBLISHED[op.case][name]
    problems = []
    if (op.case, name) not in DIVERGENT and (
        row["average_seek_display"], row["transfer_time_display"]) != (pub_avg, pub_transfer):
        problems.append(f"{where}: does not reproduce the published row")
    if op.paper_table:
        note = DIVERGENCE_NOTE if (op.case, name) in DIVERGENT else ""
        got = (row["published_average_seek"], row["published_transfer_time"], row["note"])
        if got != (pub_avg, pub_transfer, note):
            problems.append(f"{where}: published cells {got}")
    return problems


def _check_path(op: Op, text: str) -> list[str]:
    inst = op.instance
    lines = text.split("\n")
    if lines[0] != "algorithm,step,track" or lines[-1] != "":
        return [f"{op.name}: not a head-path CSV"]
    paths: dict[str, list[int]] = {}
    for line in lines[1:-1]:
        name, step, track = line.split(",")
        points = paths.setdefault(name, [])
        if int(step) != len(points):
            return [f"{op.name}/{name}: step {step} out of sequence"]
        points.append(int(track))
    if list(paths) != list(op.algorithms):
        return [f"{op.name}: algorithms {list(paths)}, expected {list(op.algorithms)}"]
    want = Counter(inst.queue)
    best = closed_form(inst)
    problems = []
    for name, points in paths.items():
        where = f"{op.name}/{name}"
        if points[0] != inst.head:
            problems.append(f"{where}: path does not start at the head")
        stops = Counter(points[1:])
        extra = stops - want
        if want - stops:
            problems.append(f"{where}: path misses requests")
        if sum(extra.values()) > EXTRA_STOPS.get(name, 0) or not set(extra) <= {
                inst.min_track, inst.max_track}:
            problems.append(f"{where}: unexpected stops {dict(extra)}")
        total = path_length(points[0], points[1:])
        if total < best or (name == "ODSA" and total != best):
            problems.append(f"{where}: path length {total}, optimum {best}")
        if name == "FIFO" and points[1:] != list(inst.queue):
            problems.append(f"{where}: not in arrival order")
    return problems


def _check_gen(op: Op, stdout: bytes, written: bytes | None) -> list[str]:
    if stdout:
        return [f"{op.name}: wrote to stdout with -o"]
    if written is None:
        return [f"{op.name}: no output file"]
    lines = [ln.split("#", 1)[0].strip() for ln in written.decode("utf-8").splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != f"head {op.instance.head}":
        return [f"{op.name}: missing head directive"]
    tracks = [int(t) for ln in lines[1:] for t in ln.replace(",", " ").split()]
    inst = op.instance
    if len(tracks) != op.count or not all(inst.min_track <= t <= inst.max_track for t in tracks):
        return [f"{op.name}: expected {op.count} tracks in [{inst.min_track}, {inst.max_track}]"]
    return []


def _check_verify(op: Op, stdout: bytes) -> list[str]:
    want = (f"trials={op.count} seed={op.seed} max_n={VERIFY_MAX_N}\n"
            f"passes={op.count} failures=0\n").encode()
    return [] if stdout == want else [f"{op.name}: campaign summary {stdout[:200]!r}"]
