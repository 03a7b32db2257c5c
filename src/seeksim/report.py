"""Running algorithms by name (``run_schedule``), comparison reports, text
emitters for reports and head paths, and the randomized verification campaign.

CSV and JSON carry the same numbers: full-precision values plus 5-decimal
display fields (``display``) rendered like the reference tables. Output is
deterministic, so identical inputs give byte-identical text.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from .model import (
    DiskGeometry,
    Instance,
    Schedule,
    SchedulingError,
    Track,
    TransferModel,
    _Frozen,
    _Leg,
    _leg_runs,
    _leg_tracks,
    average_seek,
    transfer_time,
    validate_instance,
)
from .schedulers import (
    ORACLE_MAX_REQUESTS,
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
from .workload import _seeded_rng

ALGORITHM_ORDER = ("FIFO", "SSTF", "SCAN", "C-SCAN", "LOOK", "ODSA")
ORACLE_NAME = "OPTIMAL"

_BUILDERS: dict[str, Callable[[Instance], Schedule]] = {
    # Looked up per call, so a wrapper patched over a global here is what runs.
    "FIFO": lambda inst: schedule_fifo(inst),
    "SSTF": lambda inst: schedule_sstf(inst),
    "SCAN": lambda inst: schedule_scan(inst),
    "C-SCAN": lambda inst: schedule_cscan(inst),
    "LOOK": lambda inst: schedule_look(inst),
    "ODSA": lambda inst: schedule_odsa(inst),
    ORACLE_NAME: lambda inst: brute_force_optimal(inst),
}

# Values printed in the original ODSA study's comparison tables, by case and
# algorithm: (average seek, transfer time) as published. The LOOK rows of
# cases 1 and 2 do not match any standard LOOK sweep (both directions give
# 285 and 150 total); reports carry them verbatim so the divergence stays
# visible next to the computed values.
PUBLISHED_TABLES: dict[int, dict[str, tuple[str, str]]] = {
    1: {
        "FIFO": ("48", "48.01191"),
        "SSTF": ("35.625", "35.63691"),
        "SCAN": ("38.125", "38.13691"),
        "C-SCAN": ("42.5", "42.51191"),
        "LOOK": ("37.5", "37.51191"),
        "ODSA": ("24.375", "24.38691"),
    },
    2: {
        "FIFO": ("38.875", "38.88691"),
        "SSTF": ("19.5", "19.51191"),
        "SCAN": ("22.75", "22.76191"),
        "C-SCAN": ("43.875", "43.88691"),
        "LOOK": ("23.875", "23.88691"),
        "ODSA": ("18.75", "18.76191"),
    },
    3: {
        "FIFO": ("35.375", "35.38691"),
        "SSTF": ("29.375", "29.38691"),
        "SCAN": ("35.625", "35.63691"),
        "C-SCAN": ("40.625", "40.63691"),
        "LOOK": ("29.375", "29.38691"),
        "ODSA": ("21.25", "21.26191"),
    },
}

DIVERGENCE_NOTE = "differs from published table"


def run_schedule(name: str, instance: Instance) -> Schedule:
    """Run one algorithm by canonical name (FIFO, SSTF, SCAN, C-SCAN, LOOK,
    ODSA, OPTIMAL)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise SchedulingError(f"unknown algorithm {name!r}") from None
    return builder(instance)


class ComparisonReport(_Frozen):
    """The selected algorithms' schedules for one instance, in canonical
    order. The table emitters derive each row's average seek and transfer
    time from its schedule and the model."""

    _fields = ("instance", "model", "rows", "case_id")

    def __init__(
        self, instance: Instance, model: TransferModel, rows: tuple[Schedule, ...],
        case_id: int | None = None,
    ):
        self.__dict__.update(instance=instance, model=model, rows=rows, case_id=case_id)


def run_comparison(
    instance: Instance,
    model: TransferModel = TransferModel(),
    algorithms: Iterable[str] | None = None,
    case_id: int | None = None,
) -> ComparisonReport:
    """Run the selected algorithms (default: all six). ``emit`` renders the
    report as a metric table, and its ``rows`` as head-path series."""
    requested = set(ALGORITHM_ORDER if algorithms is None else algorithms)
    unknown = requested.difference(_BUILDERS)
    if unknown:
        raise SchedulingError(f"unknown algorithm(s): {', '.join(sorted(unknown))}")
    rows = tuple(run_schedule(n, instance) for n in _BUILDERS if n in requested)
    return ComparisonReport(instance, model, rows, case_id)


_PLACES = 5


def display(value: float | None) -> str:
    """Table rendering of a metric: truncated toward zero at ``_PLACES``
    decimals, trailing zeros dropped.

    Truncation (not rounding) matches how the reference tables print the
    rotational overhead: 24.3869171... appears as 24.38691.
    """
    if value is None:
        return ""
    from decimal import ROUND_DOWN, Context, Decimal  # slow to import; only tables need it
    exact = Decimal(repr(value))
    # Enough significant digits for every integer digit of a large value.
    context = Context(prec=max(exact.adjusted(), 0) + 1 + _PLACES)
    text = str(exact.quantize(Decimal(1).scaleb(-_PLACES), ROUND_DOWN, context))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


_COLUMNS = ("algorithm", "total_seek", "average_seek", "transfer_time", "service_order",
            "average_seek_display", "transfer_time_display")
_PUBLISHED_COLUMNS = _COLUMNS + ("published_average_seek", "published_transfer_time", "note")


def _table_rows(report: ComparisonReport, include_published: bool) -> Iterator[tuple]:
    """Each row's values in column order, with the row itself in place of
    its service order (see ``_order_texts``). The averages of an empty queue
    are undefined, so both are None and display as empty strings."""
    for row in report.rows:
        avg = average_seek(row) if row._tracks else None
        transfer = None if avg is None else transfer_time(avg, report.model)
        values = (row.algorithm, row.total_seek, avg, transfer, row,
                  display(avg), display(transfer))
        if include_published:
            pub_avg, pub_transfer = PUBLISHED_TABLES[report.case_id].get(row.algorithm, ("", ""))
            diverges = avg is not None and pub_avg != "" and float(pub_avg) != avg
            values += (pub_avg, pub_transfer, DIVERGENCE_NOTE if diverges else "")
        yield values


# Text goes out in pieces as it is built: a table row by row, a head path in
# chunks of this many points, so no series piece, template or encoded copy
# grows with the queue.
_SERIES_CHUNK = 4096

# A legs-built row's head path and service order go run by run when its
# sorted tracks hold at least this many requests per track of their span.
# Below it the runs are too short to pay. CPython 3.11.7 on 2 shared vCPUs,
# template against runs, 10^5 requests:
# - one ODSA head path: CSV at 4 per track 9.9 against 42 ms, at 32 8.7
#   against 8.7, at 550 8.8 against 3.4; JSON breaks even between 20 and 24
#   per track, and reads 16.8 against 12.3 at 32 (measured while its template
#   still paid _json_scalars, a type check per chunk, since removed);
# - one sorted service order: CSV at 8 per track 5.2 against 11.1 ms, at 16
#   5.0 against 5.9, at 32 5.1 against 3.1, at 550 4.7 against 0.2; JSON at
#   16 8.2 against 9.7, at 32 9.7 against 5.0, at 550 7.8 against 0.5.
_DENSE_PER_TRACK = 32


def _order_texts(
    rows: Sequence[Schedule], render: Callable[[tuple], str], sep: str
) -> Iterator[str]:
    """The text of each row's service order, walked as its legs over its
    serviced tracks (see Schedule): ``render`` turns a tuple of tracks into
    text, and ``sep`` joins two such texts.

    Sorted-order rows share stretches of the sorted tracks: SCAN and LOOK
    walk the same legs, C-SCAN the first of them, ODSA's sweep covers both
    of C-SCAN's, and SSTF mostly ends in one of them. So every run is cut
    at each end of any run over the same sequence, and each piece, the
    index range [a, b) walked up or [b, a) walked down, is rendered once
    per report. Keys hold the sequences' ids, which stay unique while the
    rows hold the sequences.

    A piece of a row's sorted tracks that hold at least _DENSE_PER_TRACK
    requests per track of their span is rendered run by run,
    ``(render((track,)) + sep) * count`` per run of equal tracks, in
    O(distinct tracks) calls. Any other piece, unsorted ones (FIFO's or a
    ``Schedule(...)``'s) included, is one ``render`` call.
    """
    orders = [[leg for leg in row._legs if leg[0] is row._tracks] for row in rows]
    dense = {id(row._tracks) for row in rows if row._dense_legs(_DENSE_PER_TRACK)}
    ends: dict[int, set[int]] = {}
    for runs in orders:
        for seq, i, j in runs:
            ends.setdefault(id(seq), set()).update((min(i, j), max(i, j) + 1))
    cuts = {key: sorted(points) for key, points in ends.items()}

    def pieces(runs: Sequence[_Leg]) -> Iterator[tuple[Sequence[Track], int, int]]:
        for seq, i, j in runs:
            points = cuts[id(seq)]
            low, high = bisect_left(points, min(i, j)), bisect_left(points, max(i, j) + 1)
            points = points[low : high + 1]
            for a, b in zip(points, points[1:]) if i <= j else zip(points[:0:-1], points[-2::-1]):
                yield seq, a, b

    # A text is dropped at its last use, so no row's text outlives the rows
    # that need it.
    uses = Counter((id(seq), a, b) for runs in orders for seq, a, b in pieces(runs))
    texts: dict[tuple, str] = {}
    for runs in orders:
        parts = []
        for seq, a, b in pieces(runs):
            key = id(seq), a, b
            text = texts.get(key)
            if text is None:
                leg = (seq, a, b - 1) if a < b else (seq, a - 1, b)
                if id(seq) in dense:
                    runs = [(render((t,)) + sep) * k for t, k in _leg_runs(*leg)]
                    runs[-1] = runs[-1][: -len(sep)]  # cut in the last run, not a copy of all
                    text = "".join(runs)
                else:
                    text = render(tuple(_leg_tracks(*leg)))
                texts[key] = text
            uses[key] -= 1
            if not uses[key]:
                del texts[key]
            parts.append(text)
        yield sep.join(parts)


# The CSV emitters join cells directly: only an algorithm name can hold a
# comma, a quote or a line break (ints, float reprs, display strings, the
# published values and DIVERGENCE_NOTE cannot), so only it goes through
# _csv_cell. The JSON emitters write json.dumps(indent=2)'s layout themselves
# and send every scalar but a track through json.dumps. Every track is an
# exact int, as Instance, Schedule and DiskGeometry hold them, so both render
# each bulk track column with one C-level ``%`` call on a template of "%s"
# slots, not one str() call per int: "%s" is exactly str(), which is also
# what json.dumps prints for an int, and ``%`` needs a tuple, as it takes a
# list as one argument. A dense head path and a dense service order go run
# by run instead (see _path_pieces and _order_texts), and print the same
# bytes.
def _csv_cell(text: str) -> str:
    """``text`` as a cell of csv.writer(lineterminator="\\n"); plain names skip it."""
    if not any(c in text for c in ',"\r\n'):
        return text
    import csv
    import io
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text, ""))
    return out.getvalue()[:-2]


def _comparison_csv(report: ComparisonReport, include_published: bool) -> Iterator[str]:
    rows = list(_table_rows(report, include_published))  # every metric before any text
    yield ",".join(_PUBLISHED_COLUMNS if include_published else _COLUMNS) + "\n"
    orders = _order_texts([row[4] for row in rows], lambda run: ("%s;" * len(run) % run)[:-1],
                          ";")
    for (name, total, avg, transfer, _, *text), order in zip(rows, orders):
        cells = [
            _csv_cell(name),
            str(total),
            "" if avg is None else repr(avg),
            "" if transfer is None else repr(transfer),
            order,
            *text,
        ]
        yield ",".join(cells) + "\n"


def _json_items(values: tuple[int, ...], inner: str) -> str:
    """The items of a JSON list of ints, each but the first on a line that
    ``inner`` (a newline and spaces) opens, with commas between."""
    return (("%s," + inner) * (len(values) - 1) + "%s") % values


def _comparison_json(report: ComparisonReport, include_published: bool) -> Iterator[str]:
    import json
    inst, model = report.instance, report.model
    rows = list(_table_rows(report, include_published))  # every metric before any text
    yield '{\n  "instance": {\n    "head": %s,\n    "queue": ' % inst.head
    yield "[\n      " + _json_items(inst.queue, "\n      ") + "\n    ]" if inst.queue else "[]"
    yield (
        ',\n    "geometry": {\n      "min_track": %s,\n      "max_track": %s\n    },'
        '\n    "model": {\n      "bytes_to_transfer": %s,\n      "bytes_per_track": %s,'
        '\n      "rotation_speed": %s\n    },\n    "case": %s\n  },\n  "rows": '
    ) % tuple(map(json.dumps, (
        inst.geometry.min_track, inst.geometry.max_track, model.bytes_to_transfer,
        model.bytes_per_track, model.rotation_speed, report.case_id,
    )))
    columns = _PUBLISHED_COLUMNS if include_published else _COLUMNS
    template = "%s\n    {\n      " + ",\n      ".join(f'"{c}": %s' for c in columns) + "\n    }"
    sep = "["
    inner = "\n        "
    orders = _order_texts([row[4] for row in rows], lambda run: _json_items(run, inner),
                          "," + inner)
    for (name, total, avg, transfer, _, *text), order in zip(rows, orders):
        order = "[" + inner + order + "\n      ]" if order else "[]"
        yield template % (sep, *map(json.dumps, (name, total, avg, transfer)), order,
                          *map(json.dumps, text))
        sep = ","
    yield "\n  ]\n}\n" if rows else "[]\n}\n"


# Step texts: str(i) for the steps below 1000, and the three last digits of
# every other step, behind the prefix str(step // 1000). Built on first use.
_STEP_TEXTS: tuple[list[str], list[str]] | None = None


def _add_lines(parts: list[str], lo: int, hi: int, a: str, mid: str, end: str) -> None:
    """Append to ``parts`` the text of steps lo to hi - 1, each point ``a`` +
    step + the rest of its line, one join per block of 1000 steps: ``mid``
    runs from a point's step to the next point's step, and ``end`` ends the
    last point."""
    global _STEP_TEXTS
    if _STEP_TEXTS is None:
        _STEP_TEXTS = [str(i) for i in range(1000)], ["%03d" % i for i in range(1000)]
    small, suffixes = _STEP_TEXTS
    while lo < hi:
        block, at = divmod(lo, 1000)
        stop = min(hi, lo - at + 1000)
        if block:
            prefix = str(block)
            parts += a, prefix, (mid + prefix).join(suffixes[at : at + stop - lo]), end
        else:
            parts += a, mid.join(small[at:stop]), end
        lo = stop


def _path_pieces(s: Schedule, a: str, line: str) -> Iterator[str]:
    """``s``'s head path in pieces of at most _SERIES_CHUNK points, each
    point as ``a`` + its step + ``line % track``.

    A legs-built path whose tracks hold at least _DENSE_PER_TRACK requests
    per track of their span (10^5 on [0, 180] hold about 550; sparse queues
    hold far fewer) is written run by run (Schedule._runs): the lines of one
    run of equal tracks within one block of steps and one piece are one join.
    Any other path fills one template per piece with one ``%`` call."""
    chunk = _SERIES_CHUNK
    runs = s._runs(_DENSE_PER_TRACK)
    if runs is not None:
        parts: list[str] = []
        step, limit = 0, chunk
        for track, count in runs:
            end = line % track
            mid = end + a
            last = step + count
            while step < last:
                stop = min(last, limit)
                _add_lines(parts, step, stop, a, mid, end)
                step = stop
                if step == limit:
                    yield "".join(parts)
                    parts, limit = [], limit + chunk
        if parts:
            yield "".join(parts)
        return
    path = s.head_path()
    a = a.replace("%", "%%")
    for step in range(0, len(path), chunk):
        points = path[step : step + chunk]
        parts = []
        _add_lines(parts, step, step + len(points), a, line + a, line)
        yield "".join(parts) % points


def _series_csv(schedules: Sequence[Schedule]) -> Iterator[str]:
    yield "algorithm,step,track"  # every line below starts with its line break
    for s in schedules:
        yield from _path_pieces(s, "\n" + _csv_cell(s.algorithm) + ",", ",%s")
    yield "\n"


def _series_json(schedules: Sequence[Schedule]) -> Iterator[str]:
    import json
    yield '{\n  "series": '
    sep = "["
    for s in schedules:
        yield (f'{sep}\n    {{\n      "algorithm": {json.dumps(s.algorithm)},'
               '\n      "points": [')
        pieces = _path_pieces(s, ",\n        [\n          ", ",\n          %s\n        ]")
        yield next(pieces)[1:]  # no comma before the first point
        yield from pieces
        yield "\n      ]\n    }"
        sep = ","
    yield "\n  ]\n}\n" if schedules else "[]\n}\n"


def emit_pieces(
    report: ComparisonReport | Sequence[Schedule],
    format: str = "csv",
    include_published: bool = False,
) -> Iterator[str]:
    """``emit``'s text in pieces, to write as they come: a table row by row, a
    head path in chunks of _SERIES_CHUNK points. Bad arguments raise here, and
    an overflowing metric before the first piece."""
    if format not in ("csv", "json"):
        raise SchedulingError(f"unknown format {format!r}")
    if isinstance(report, ComparisonReport):
        if include_published and report.case_id not in PUBLISHED_TABLES:
            raise SchedulingError("published values exist only for benchmark cases 1-3")
        return (_comparison_csv if format == "csv" else _comparison_json)(report, include_published)
    if include_published:
        raise SchedulingError("published values apply to comparison reports only")
    return _series_csv(report) if format == "csv" else _series_json(report)


def emit(
    report: ComparisonReport | Sequence[Schedule],
    format: str = "csv",
    include_published: bool = False,
) -> str:
    """Render a comparison report as a CSV or JSON table, or schedules (such
    as a report's rows) as their head paths: one ``[step, track]`` series per
    schedule, step 0 at the start position and every stop after it,
    unserviced ones included.

    ``include_published`` appends the originally published table values and a
    divergence note; it requires a report built from a benchmark case.
    """
    return "".join(emit_pieces(report, format, include_published))


CAMPAIGN_MAX_N = 8


class CampaignSummary(_Frozen):
    """Outcome of a randomized verification campaign."""

    _fields = ("trials", "seed", "max_n", "passes", "failures", "check_failures",
               "first_counterexample")

    def __init__(
        self, trials: int, seed: int, max_n: int, passes: int, failures: int,
        check_failures: dict[str, int] | None = None, first_counterexample: dict | None = None,
    ):
        self.__dict__.update(
            trials=trials, seed=seed, max_n=max_n, passes=passes, failures=failures,
            check_failures={} if check_failures is None else check_failures,
            first_counterexample=first_counterexample,
        )


def _check_trial(queue: list[int], head: int, geometry: DiskGeometry) -> list[str]:
    failed = []
    instance = validate_instance(queue, head, geometry)
    schedules = {name: run_schedule(name, instance) for name in _BUILDERS}
    tracks = instance.tracks
    for name in ALGORITHM_ORDER:
        if tuple(sorted(schedules[name].service_order)) != tracks:
            failed.append(f"permutation:{name}")
    odsa = schedules["ODSA"].total_seek
    lo, hi = tracks[0], tracks[-1]
    closed_form = min(abs(head - lo), abs(head - hi)) + (hi - lo)
    if odsa != closed_form:
        failed.append("odsa-closed-form")
    if odsa != schedules[ORACLE_NAME].total_seek:
        failed.append("odsa-vs-oracle")
    for name in ALGORITHM_ORDER:
        if name != "ODSA" and odsa > schedules[name].total_seek:
            failed.append(f"dominance:{name}")
    return failed


def run_property_campaign(
    trials: int, seed: int = 0, max_n: int = CAMPAIGN_MAX_N
) -> CampaignSummary:
    """Check random instances against the exact optimal-order oracle.

    Per trial: permutation validity of all six algorithms, the single-sweep
    closed form, equality with the oracle's optimum, and dominance over the
    five baselines. Each trial draws a queue of 1 to max_n requests; max_n
    may be at most the oracle bound, ORACLE_MAX_REQUESTS.
    """
    if trials < 1:
        raise SchedulingError(f"trials must be >= 1, got {trials}")
    if not 1 <= max_n <= ORACLE_MAX_REQUESTS:
        raise SchedulingError(f"max_n must be in [1, {ORACLE_MAX_REQUESTS}], got {max_n}")
    rng = _seeded_rng(seed)
    g = DiskGeometry()
    failures = 0
    check_failures: dict[str, int] = {}
    first_counterexample = None
    for _ in range(trials):
        n = rng.randint(1, max_n)
        head = rng.randint(g.min_track, g.max_track)
        queue = [rng.randint(g.min_track, g.max_track) for _ in range(n)]
        failed = _check_trial(queue, head, g)
        if failed:
            failures += 1
            for name in failed:
                check_failures[name] = check_failures.get(name, 0) + 1
            if first_counterexample is None:
                first_counterexample = {"queue": queue, "head": head, "checks": failed}
    return CampaignSummary(trials, seed, max_n, trials - failures, failures, check_failures,
                           first_counterexample)
