import csv
import io
import json
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seeksim import report as report_module
from seeksim.model import (
    DiskGeometry,
    Schedule,
    SchedulingError,
    TransferModel,
    average_seek,
    transfer_time,
    validate_instance,
)
from seeksim.report import (
    ALGORITHM_ORDER,
    ComparisonReport,
    DIVERGENCE_NOTE,
    ORACLE_NAME,
    PUBLISHED_TABLES,
    display,
    emit,
    run_comparison,
    run_property_campaign,
    run_schedule,
)
from seeksim.schedulers import ORACLE_MAX_REQUESTS
from seeksim.workload import reference_case


def case_instance(case_id):
    queue, head, geometry = reference_case(case_id)
    return validate_instance(queue, head, geometry)


def case_report(case_id, algorithms=None):
    return run_comparison(case_instance(case_id), TransferModel(), algorithms, case_id)


def head_path_series(instance, algorithms=None):
    """The schedules ``run --path`` renders: a report's rows."""
    return run_comparison(instance, algorithms=algorithms).rows


def averages(report, row):
    """A row's average seek and transfer time, as the table emitters derive
    them; both None for an empty queue."""
    if not row.service_order:
        return None, None
    avg = average_seek(row)
    return avg, transfer_time(avg, report.model)


def test_rows_come_in_canonical_order():
    report = case_report(1)
    assert tuple(r.algorithm for r in report.rows) == ALGORITHM_ORDER


def test_case1_totals_match_reference_tables():
    report = case_report(1)
    totals = {r.algorithm: r.total_seek for r in report.rows}
    assert totals == {
        "FIFO": 384,
        "SSTF": 285,
        "SCAN": 305,
        "C-SCAN": 340,
        "LOOK": 285,
        "ODSA": 195,
    }


def test_selection_subset_and_oracle_row():
    report = run_comparison(case_instance(1), algorithms=["ODSA", "OPTIMAL", "FIFO"])
    assert tuple(r.algorithm for r in report.rows) == ("FIFO", "ODSA", "OPTIMAL")
    assert report.rows[-1].total_seek == 195


def test_unknown_algorithm_rejected():
    with pytest.raises(SchedulingError):
        run_comparison(case_instance(1), algorithms=["FCFS"])
    with pytest.raises(SchedulingError, match="^unknown algorithm 'FCFS'$"):
        run_schedule("FCFS", case_instance(1))


def test_empty_queue_rows_have_no_averages():
    report = run_comparison(validate_instance([], 45))
    for row in report.rows:
        assert row.total_seek == 0
        with pytest.raises(SchedulingError, match="^average seek undefined for an empty schedule$"):
            average_seek(row)
    for line in emit(report).splitlines()[1:]:
        assert line.split(",")[1:] == ["0", "", "", "", "", ""]
    for row in json.loads(emit(report, "json"))["rows"]:
        assert row["average_seek"] is None and row["transfer_time"] is None


def test_csv_starts_with_contract_columns():
    text = emit(case_report(1))
    header = text.splitlines()[0]
    assert header.startswith("algorithm,total_seek,average_seek,transfer_time,service_order")


def test_csv_odsa_row_case1():
    lines = emit(case_report(1)).splitlines()
    odsa = [l for l in lines if l.startswith("ODSA,")][0]
    assert odsa.startswith("ODSA,195,24.375,24.386917162698413,10;25;46;62;74;111;151;170")
    assert ",24.38691" in odsa


def test_csv_empty_selection_is_header_only():
    text = emit(run_comparison(case_instance(1), algorithms=[]))
    assert text.splitlines() == [
        "algorithm,total_seek,average_seek,transfer_time,service_order,"
        "average_seek_display,transfer_time_display"
    ]


def test_csv_and_json_agree_numerically():
    report = case_report(2)
    rows = list(csv.DictReader(io.StringIO(emit(report, "csv"))))
    doc = json.loads(emit(report, "json"))
    assert len(rows) == len(doc["rows"])
    for csv_row, json_row in zip(rows, doc["rows"]):
        assert csv_row["algorithm"] == json_row["algorithm"]
        assert int(csv_row["total_seek"]) == json_row["total_seek"]
        assert float(csv_row["average_seek"]) == json_row["average_seek"]
        assert float(csv_row["transfer_time"]) == json_row["transfer_time"]
        assert csv_row["service_order"] == ";".join(str(t) for t in json_row["service_order"])


def test_json_carries_instance_description():
    doc = json.loads(emit(case_report(3), "json"))
    assert doc["instance"]["head"] == 125
    assert doc["instance"]["case"] == 3
    assert doc["instance"]["geometry"] == {"min_track": 0, "max_track": 180}
    assert doc["instance"]["model"]["bytes_per_track"] == 32256


def test_published_columns_and_divergence_note():
    text = emit(case_report(1), include_published=True)
    look = [l for l in text.splitlines() if l.startswith("LOOK,")][0]
    assert "37.5" in look and "37.51191" in look
    assert DIVERGENCE_NOTE in look
    odsa = [l for l in text.splitlines() if l.startswith("ODSA,")][0]
    assert odsa.endswith("24.375,24.38691,")  # published values, no note


def test_published_requires_a_case():
    report = run_comparison(validate_instance([10, 20], 5))
    with pytest.raises(SchedulingError):
        emit(report, include_published=True)
    with pytest.raises(SchedulingError, match="^published values apply to comparison reports only$"):
        emit(case_report(1).rows, include_published=True)


def test_published_tables_cover_all_cases_and_algorithms():
    assert set(PUBLISHED_TABLES) == {1, 2, 3}
    for table in PUBLISHED_TABLES.values():
        assert set(table) == set(ALGORITHM_ORDER)


def test_emit_rejects_unknown_format():
    with pytest.raises(SchedulingError):
        emit(case_report(1), "xml")


def test_head_path_series_odsa_case1():
    series = head_path_series(case_instance(1), ["ODSA"])[0]
    assert tuple(enumerate(series.head_path()))[:3] == ((0, 45), (1, 10), (2, 25))
    assert tuple(enumerate(series.head_path()))[-1] == (8, 170)


def test_head_path_distances_sum_to_total_seek():
    inst = case_instance(1)
    for name in ALGORITHM_ORDER:
        schedule = run_schedule(name, inst)
        tracks = list(schedule.head_path())
        assert tracks[0] == 45
        assert sum(abs(b - a) for a, b in zip(tracks, tracks[1:])) == schedule.total_seek


def test_series_csv_layout():
    text = emit(head_path_series(case_instance(1), ["SCAN"]), "csv")
    lines = text.splitlines()
    assert lines[0] == "algorithm,step,track"
    assert lines[1] == "SCAN,0,45"
    assert lines[8] == "SCAN,7,180"  # sweep end before reversing


def test_series_json_layout():
    doc = json.loads(emit(head_path_series(case_instance(1), ["ODSA"]), "json"))
    assert doc["series"][0]["algorithm"] == "ODSA"
    assert doc["series"][0]["points"][1] == [1, 10]


def test_row_transfer_offsets_match_model_constant():
    # transfer - average == 1/(2R) + B/(R*N) at 1e-12 relative, table scale
    constant = 1 / 240 + 30000 / (120 * 32256)
    for case_id in (1, 2, 3):
        for row in json.loads(emit(case_report(case_id), "json"))["rows"]:
            offset = row["transfer_time"] - row["average_seek"]
            assert abs(offset - constant) / constant < 1e-12


def test_json_paper_table_fields():
    doc = json.loads(emit(case_report(1), "json", include_published=True))
    look = [r for r in doc["rows"] if r["algorithm"] == "LOOK"][0]
    assert look["published_average_seek"] == "37.5"
    assert look["note"] == DIVERGENCE_NOTE
    fifo = [r for r in doc["rows"] if r["algorithm"] == "FIFO"][0]
    assert fifo["note"] == ""


def test_single_trial_check_passes_on_case1():
    from seeksim.report import _check_trial

    queue, head, geometry = reference_case(1)
    assert _check_trial(list(queue), head, geometry) == []


def test_campaign_small_run_passes():
    summary = run_property_campaign(25, seed=99)
    assert summary.passes == 25
    assert summary.failures == 0
    assert summary.first_counterexample is None


def test_campaign_is_deterministic():
    assert run_property_campaign(10, seed=5) == run_property_campaign(10, seed=5)


@pytest.mark.parametrize("bad_n", [0, ORACLE_MAX_REQUESTS + 1])
def test_campaign_rejects_max_n_outside_oracle_bound(bad_n):
    with pytest.raises(SchedulingError):
        run_property_campaign(5, max_n=bad_n)


def test_campaign_accepts_its_smallest_run():
    summary = run_property_campaign(1, max_n=1)
    assert (summary.trials, summary.max_n, summary.passes) == (1, 1, 1)


def test_campaign_rejects_nonpositive_trials():
    with pytest.raises(SchedulingError):
        run_property_campaign(0)


def test_campaign_seed_defaults_to_zero():
    assert run_property_campaign(3) == run_property_campaign(3, seed=0)


def test_campaign_accepts_max_n_at_the_oracle_bound():
    # Seed 139's first trial draws 4 requests, so the oracle stays fast.
    summary = run_property_campaign(1, seed=139, max_n=ORACLE_MAX_REQUESTS)
    assert (summary.max_n, summary.passes) == (ORACLE_MAX_REQUESTS, 1)


def _break_sstf_and_odsa(monkeypatch):
    """Make the campaign's SSTF drop a request, and its ODSA start with an
    unserviced stop far off the disk, on every queue of two or more requests.
    Returns the list of instances the campaign's trials run on, in order."""
    seen = []
    sstf, odsa = report_module._BUILDERS["SSTF"], report_module._BUILDERS["ODSA"]

    def broken_sstf(inst):
        s = sstf(inst)
        return Schedule("SSTF", s.start, s.stops[:-1]) if len(inst.queue) > 1 else s

    def broken_odsa(inst):
        seen.append(inst)
        s = odsa(inst)
        return Schedule("ODSA", s.start, (10**6,) + s.stops, (0,)) if len(inst.queue) > 1 else s

    monkeypatch.setitem(report_module._BUILDERS, "SSTF", broken_sstf)
    monkeypatch.setitem(report_module._BUILDERS, "ODSA", broken_odsa)
    return seen


# What a trial on two or more requests fails with the builders above: the
# excursion puts ODSA above the optimum and above every baseline.
BROKEN_CHECKS = ["permutation:SSTF", "odsa-closed-form", "odsa-vs-oracle"] + [
    f"dominance:{name}" for name in ALGORITHM_ORDER if name != "ODSA"
]


def test_campaign_counts_each_failing_trial_and_check(monkeypatch):
    seen = _break_sstf_and_odsa(monkeypatch)
    summary = run_property_campaign(40, seed=2)
    failing = [inst for inst in seen if len(inst.queue) > 1]
    # Seed 2's first trial has one request and passes; later ones fail.
    assert len(seen) == 40 and len(seen[0].queue) == 1 and 1 < len(failing) < 39
    assert (summary.passes, summary.failures) == (40 - len(failing), len(failing))
    assert summary.check_failures == dict.fromkeys(BROKEN_CHECKS, len(failing))
    assert "dominance:ODSA" not in summary.check_failures
    first = failing[0]
    assert summary.first_counterexample == {
        "queue": list(first.queue), "head": first.head, "checks": BROKEN_CHECKS,
    }


EVERY_ALGORITHM = ALGORITHM_ORDER + (ORACLE_NAME,)


def _csv_writer_text(rows):
    """``rows`` as csv.writer(lineterminator="\\r\\n") writes them, each row
    then ended by "\\n". Under that terminator every Python from 3.10 quotes
    a CR; under "\\n", 3.10 to 3.12 leave a lone CR bare."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def _reference_table_csv(report, include_published):
    """The metric table rendered cell by cell through csv.writer."""
    header = [
        "algorithm", "total_seek", "average_seek", "transfer_time", "service_order",
        "average_seek_display", "transfer_time_display",
    ]
    if include_published:
        header += ["published_average_seek", "published_transfer_time", "note"]
    rows = [header]
    for row in report.rows:
        avg, transfer = averages(report, row)
        cells = [
            row.algorithm,
            str(row.total_seek),
            "" if avg is None else repr(avg),
            "" if transfer is None else repr(transfer),
            ";".join(str(t) for t in row.service_order),
            display(avg),
            display(transfer),
        ]
        if include_published:
            published = PUBLISHED_TABLES[report.case_id].get(row.algorithm)
            if published is None:
                cells += ["", "", ""]
            else:
                diverges = avg is not None and float(published[0]) != avg
                cells += [*published, DIVERGENCE_NOTE if diverges else ""]
        rows.append(cells)
    return _csv_writer_text(rows)


def _reference_series_csv(series):
    rows = [["algorithm", "step", "track"]]
    for s in series:
        rows += [[s.algorithm, str(step), str(track)] for step, track in enumerate(s.head_path())]
    return _csv_writer_text(rows)


@pytest.mark.parametrize("case_id", [1, 2, 3])
@pytest.mark.parametrize("include_published", [False, True])
def test_table_csv_matches_csv_writer(case_id, include_published):
    report = run_comparison(case_instance(case_id), TransferModel(), EVERY_ALGORITHM, case_id)
    text = emit(report, include_published=include_published)
    assert text == _reference_table_csv(report, include_published)


def test_series_csv_matches_csv_writer_on_cases():
    for case_id in (1, 2, 3):
        series = head_path_series(case_instance(case_id), EVERY_ALGORITHM)
        assert emit(series) == _reference_series_csv(series)


# Spans of 400 tracks give duplicates and ties; spans of 1e20 give float
# reprs with exponents and long display strings.
_instances = st.sampled_from([400, 10**20]).flatmap(
    lambda top: st.tuples(
        st.lists(st.integers(0, top), max_size=12), st.integers(0, top)
    ).map(lambda qh: validate_instance(qh[0], qh[1], DiskGeometry(0, top)))
)


@settings(max_examples=150)
@given(_instances)
@example(validate_instance((), 5, DiskGeometry(0, 400)))
@example(validate_instance((), 10**19, DiskGeometry(0, 10**20)))
def test_csv_matches_csv_writer(instance):
    report = run_comparison(instance, TransferModel(), EVERY_ALGORITHM)
    assert emit(report) == _reference_table_csv(report, False)
    series = head_path_series(instance, EVERY_ALGORITHM)
    assert emit(series) == _reference_series_csv(series)


@settings(max_examples=150)
@given(_instances)
def test_series_points_enumerate_the_head_path(instance):
    for name in EVERY_ALGORITHM:
        schedule = run_schedule(name, instance)
        assert head_path_series(instance, [name]) == (schedule,)
        doc = json.loads(emit([schedule], "json"))
        assert doc["series"][0]["points"] == [[i, t] for i, t in enumerate(schedule.head_path())]


@settings(max_examples=150)
@given(_instances, st.randoms(use_true_random=False))
def test_sorted_tracks_schedule_like_arrival_order(instance, rnd):
    # Every algorithm but FIFO reads only the sorted tracks, so any arrival
    # order of the same requests gives an equal schedule.
    shuffled = list(instance.queue)
    rnd.shuffle(shuffled)
    permuted = validate_instance(shuffled, instance.head, instance.geometry)
    assert permuted.tracks == instance.tracks == tuple(sorted(instance.queue))
    for name in EVERY_ALGORITHM:
        if name != "FIFO":
            assert run_schedule(name, permuted) == run_schedule(name, instance), name


def _reference_json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _reference_table_json(report, include_published):
    """The metric table as one document through json.dumps(indent=2)."""
    inst, model = report.instance, report.model
    rows = []
    for row in report.rows:
        avg, transfer = averages(report, row)
        entry = {
            "algorithm": row.algorithm,
            "total_seek": row.total_seek,
            "average_seek": avg,
            "transfer_time": transfer,
            "service_order": list(row.service_order),
            "average_seek_display": display(avg),
            "transfer_time_display": display(transfer),
        }
        if include_published:
            published = PUBLISHED_TABLES[report.case_id].get(row.algorithm, ("", ""))
            diverges = published[0] != "" and avg is not None and float(published[0]) != avg
            entry["published_average_seek"], entry["published_transfer_time"] = published
            entry["note"] = DIVERGENCE_NOTE if diverges else ""
        rows.append(entry)
    geometry = {"min_track": inst.geometry.min_track, "max_track": inst.geometry.max_track}
    return _reference_json({
        "instance": {
            "head": inst.head,
            "queue": list(inst.queue),
            "geometry": geometry,
            "model": {
                "bytes_to_transfer": model.bytes_to_transfer,
                "bytes_per_track": model.bytes_per_track,
                "rotation_speed": model.rotation_speed,
            },
            "case": report.case_id,
        },
        "rows": rows,
    })


def _reference_series_json(series):
    return _reference_json({
        "series": [
            {"algorithm": s.algorithm, "points": [[i, t] for i, t in enumerate(s.head_path())]}
            for s in series
        ]
    })


@st.composite
def _json_reports(draw):
    """A report on a random instance, any subset of the seven algorithms, a
    random rotation speed, and a case id so --paper-table applies. Spans go
    up to 2**71, so tracks reach past 2**70 and averages past 1e20."""
    top = draw(st.sampled_from([400, 10**20, 2**71]))
    queue = draw(st.lists(st.integers(0, top), max_size=12))
    instance = validate_instance(queue, draw(st.integers(0, top)), DiskGeometry(0, top))
    model = TransferModel(rotation_speed=draw(st.floats(1e-3, 1e6)))
    algorithms = draw(st.sets(st.sampled_from(EVERY_ALGORITHM)))
    case_id = draw(st.sampled_from([None, 1, 2, 3]))
    include_published = case_id is not None and draw(st.booleans())
    return run_comparison(instance, model, algorithms, case_id), include_published


@settings(max_examples=150)
@given(_json_reports())
@example((run_comparison(validate_instance((), 5), TransferModel(), EVERY_ALGORITHM), False))
@example((case_report(1, EVERY_ALGORITHM), True))
@example((run_comparison(validate_instance((), 5), TransferModel(), None, 2), True))
# A bool stop, which prints as the int it equals, names that need escaping,
# and no rows.
@example((ComparisonReport(validate_instance((2,), 5), TransferModel(),
                           (Schedule("FIFO", 5, (True, 2)),)), False))
@example((ComparisonReport(validate_instance((1,), 5), TransferModel(),
                           (Schedule('"\\\x00\u00e9', 5, (1,)),), 1), True))
@example((run_comparison(validate_instance((1, 2), 5), TransferModel(), ()), False))
def test_table_json_matches_json_dumps(drawn):
    report, include_published = drawn
    text = emit(report, "json", include_published=include_published)
    assert text == _reference_table_json(report, include_published)


def _json_dumps_calls(value):
    """How many times ``emit(value, "json")`` calls json.dumps."""
    dumps, calls = json.dumps, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return dumps(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json, "dumps", counting)
        emit(value, "json")
    return calls[0]


def test_json_renders_plain_int_lists_without_a_json_dumps_call_per_int():
    # Plain ints fill their "%s" slots as they are: json.dumps runs per key
    # and per other scalar, so its call count does not grow with the queue.
    small, large = (run_comparison(validate_instance(tuple(range(k)), 5)) for k in (3, 150))
    assert _json_dumps_calls(small) == _json_dumps_calls(large)
    assert _json_dumps_calls(small.rows) == _json_dumps_calls(large.rows)


_named_series = st.lists(
    st.builds(
        Schedule,
        st.text(max_size=6),
        st.integers(0, 2**71),
        st.lists(st.integers(0, 2**71), max_size=3).map(tuple),
    ),
    max_size=4,
)


# Up to 300 requests on at most [0, 5]: legs-built paths, most of them with at
# least 32 requests per track of their span, which the series emitter writes
# run by run.
_dense_series = st.integers(0, 5).flatmap(
    lambda top: st.tuples(st.lists(st.integers(0, top), min_size=32 * top, max_size=300),
                          st.integers(0, 5))
).map(
    lambda qh: head_path_series(validate_instance(qh[0], qh[1], DiskGeometry(0, 5)),
                                EVERY_ALGORITHM)
)
# Legs-built paths over bool tracks, and over ints and bools mixed: an
# Instance holds them as exact ints, so they print as ints in CSV and JSON.
_bool_series = head_path_series(
    validate_instance((True,) * 40 + (False,) * 30, True, DiskGeometry(0, 5)), EVERY_ALGORITHM
)
_mixed_series = head_path_series(
    validate_instance((1, True) * 48, 1, DiskGeometry(0, 2)), EVERY_ALGORITHM
)


@settings(max_examples=150)
@given(st.one_of(_instances.map(lambda inst: head_path_series(inst, EVERY_ALGORITHM)),
                 _named_series, _dense_series))
@example(_bool_series)
@example(_mixed_series)
@example([])
@example([Schedule("ODSA", 5, ())])
@example([Schedule("a%b", 2**70, (0,)), Schedule('"\\\u00e9%s', 7, ())])
@example([Schedule("\x00", 1, (2,)), Schedule("\x00\x00", 3, ())])
def test_series_json_matches_json_dumps(series):
    assert emit(series, "json") == _reference_series_json(series)


@given(
    st.one_of(
        st.lists(
            st.builds(
                Schedule,
                st.text(alphabet="ab%s-", min_size=1, max_size=6),
                st.integers(0, 2**71),
                st.lists(st.integers(0, 2**71), max_size=3).map(tuple),
            ),
            max_size=4,
        ),
        _dense_series,
    )
)
@example(_bool_series)
@example(_mixed_series)
@example([Schedule("ODSA", 3, ()), Schedule("FIFO", 3, (4,))])
@example([Schedule("a%b", 4, (5,)), Schedule("%s%%", 6, ())])
def test_series_csv_matches_csv_writer_on_any_path(series):
    assert emit(series) == _reference_series_csv(series)


def _record_runs(mp, taken):
    """Patch report._runs to append to ``taken`` the algorithm of each
    schedule whose head path goes run by run."""
    runs = report_module._runs

    def recorded(s, legs):
        result = runs(s, legs)
        if result is not None:
            taken.append(s.algorithm)
        return result

    mp.setattr(report_module, "_runs", recorded)


def _path_runs(s, per_track):
    """report._runs over ``s``'s head path, its start a leg of its own, with
    ``per_track`` as the run-by-run threshold."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report_module, "_DENSE_PER_TRACK", per_track)
        runs = report_module._runs(s, (((s.start,), 0, 0), *s._legs))
        return None if runs is None else list(runs)


def test_dense_paths_written_run_by_run_match_their_stops_built_twins():
    # 12000 requests on [0, 180]: every legs-built path crosses steps 1000
    # and 10000 and is written run by run; its twin, built from its stops,
    # fills one template per piece.
    queue = [i * 7919 % 181 for i in range(12000)]
    rows = head_path_series(validate_instance(queue, 90), ALGORITHM_ORDER)
    twins = [Schedule(s.algorithm, s.start, s.stops, s.idle) for s in rows]
    runs_taken = []
    for chunk in (7, report_module._SERIES_CHUNK):
        for fmt, point in (("csv", "\n"), ("json", "[\n          ")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(report_module, "_SERIES_CHUNK", chunk)
                _record_runs(mp, runs_taken)
                for row, twin in zip(rows, twins):
                    pieces = list(report_module.emit_pieces([row], fmt))
                    assert "".join(pieces) == emit([twin], fmt), (row.algorithm, chunk, fmt)
                    assert max(piece.count(point) for piece in pieces) <= chunk
            assert runs_taken == list(ALGORITHM_ORDER[1:]), (chunk, fmt)
            runs_taken.clear()
    assert min(len(row.head_path()) for row in rows) > 10001


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dense_tables_written_run_by_run_match_their_stops_built_twins(fmt, monkeypatch):
    # 12002 requests on [0, 180]: each legs-built row's sorted tracks hold
    # about 66 per track, so its service order goes run by run; its twin,
    # built from its stops, renders each piece in one call. The arrival order
    # starts and ends on track 90, so a density test read off FIFO's first
    # and last request would find a span of one track.
    queue = [90] + [i * 7919 % 181 for i in range(12000)] + [90]
    inst = validate_instance(queue, 45)
    report = run_comparison(inst, TransferModel())
    twins = tuple(Schedule(s.algorithm, s.start, s.stops, s.idle) for s in report.rows)
    runs = []
    leg_runs = report_module._leg_runs
    monkeypatch.setattr(report_module, "_leg_runs", lambda *leg: runs.append(leg) or leg_runs(*leg))
    text = emit(report, fmt)
    assert runs and all(seq is inst.tracks for seq, _, _ in runs)
    reference = _reference_table_csv if fmt == "csv" else _reference_table_json
    assert text == emit(ComparisonReport(inst, report.model, twins), fmt)
    assert text == reference(report, False)


def test_runs_are_the_longest_runs_of_equal_tracks_in_the_head_path():
    # SCAN sweeps up 7, 7, 7 to the idle end 20, then down 5, 5, 3.
    inst = validate_instance((5, 5, 7, 7, 7, 3), 6, DiskGeometry(0, 20))
    scan = run_schedule("SCAN", inst)
    assert _path_runs(scan, 0) == [(6, 1), (7, 3), (20, 1), (5, 2), (3, 1)]
    assert _path_runs(scan, 2) is None  # 6 requests on the 5 tracks 3 to 7
    assert _path_runs(Schedule(scan.algorithm, scan.start, scan.stops, scan.idle), 0) is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bool_tracks_print_as_the_ints_they_equal(fmt):
    # Both go run by run: 70 requests on the 2 tracks 0 and 1, and 96 on 1.
    for series, queue, top in ((_bool_series, (1,) * 40 + (0,) * 30, 5),
                               (_mixed_series, (1,) * 96, 2)):
        ints = validate_instance(queue, 1, DiskGeometry(0, top))
        assert emit(series, fmt) == emit(head_path_series(ints, EVERY_ALGORITHM), fmt)
        assert all(_path_runs(s, 32) is not None for s in series if s.algorithm != "FIFO")
    assert "true" not in emit(_bool_series, "json")


@pytest.mark.parametrize(
    "queue", [(1, 1.0) * 48, (0.0, -0.0, 2) * 48, (1, True, 1.0, 1, 0.0, -0.0, 0), (1.5, 2)]
)
def test_float_tracks_equal_to_ints_are_refused(queue):
    # 1 == 1.0 and 0.0 == -0.0, but csv.writer and json.dumps print them
    # apart; no Instance or Schedule holds a float, so no run of equal
    # tracks, and no path, mixes them.
    for make in (lambda: validate_instance(queue, 1, DiskGeometry(0, 2)),
                 lambda: Schedule("ODSA", True, queue)):
        with pytest.raises(SchedulingError, match="^expected an integer track, got '(1.0|0.0|1.5)'$"):
            make()


@pytest.mark.parametrize("middle, runs_side", [(93, False), (94, True)])
def test_paths_go_run_by_run_from_32_requests_per_track_of_the_span(middle, runs_side):
    # Tracks 10, 11 (middle times) and 12: a span of 3 tracks, so the runs
    # side starts at 96 requests.
    inst = validate_instance((10, *(11,) * middle, 12), 11)
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        _record_runs(mp, taken)
        assert emit([run_schedule("ODSA", inst)]) == _reference_series_csv(
            [run_schedule("ODSA", inst)]
        )
    assert bool(taken) == runs_side


# Any algorithm name, with the characters csv.writer quotes drawn often.
_csv_names = st.one_of(st.text(max_size=8), st.text(alphabet=',"\r\n%s a', max_size=8))


@settings(max_examples=150)
@given(st.lists(_csv_names, min_size=1, max_size=7), st.booleans())
@example(["a,b"], False)
@example(['say "hi"', "x\ny", "\r", "", "LOOK", "%s,"], True)
@example(['a,"b"\r\n'], False)  # every character csv.writer quotes, in one name
def test_csv_quotes_any_algorithm_name_like_csv_writer(names, include_published):
    # csv.writer refuses a NUL on 3.10; the pinned cells below cover it.
    assume(sys.version_info >= (3, 11) or not any("\0" in name for name in names))
    base = case_report(1, EVERY_ALGORITHM)
    rows = tuple(Schedule(name, r.start, r.stops, r.idle) for name, r in zip(names, base.rows))
    report = ComparisonReport(base.instance, base.model, rows, 1)
    assert emit(report, include_published=include_published) == _reference_table_csv(
        report, include_published
    )
    series = [Schedule(name, 45, (10, 25)[:i]) for i, name in enumerate(names)]
    assert emit(series) == _reference_series_csv(series)


@pytest.mark.parametrize("name, cell", [
    ("a\rb", '"a\rb"'),
    ("a\r\nb", '"a\r\nb"'),
    ('say "hi"', '"say ""hi"""'),
    ("a,b", '"a,b"'),
    ("a\0,b", '"a\0,b"'),
    ("a\0b", "a\0b"),
    ("", ""),
])
def test_csv_cells_are_the_same_bytes_on_every_python(name, cell):
    # RFC 4180: a cell that holds a comma, a quote, a CR or an LF is quoted,
    # each quote doubled; any other goes as it is.
    base = case_report(1, ["ODSA"])
    odsa = base.rows[0]
    report = ComparisonReport(
        base.instance, base.model, (Schedule(name, odsa.start, odsa.stops, odsa.idle),), 1
    )
    assert emit(report).encode() == emit(base).replace("\nODSA,", f"\n{cell},").encode()
    series = [Schedule(name, 45, (10,))]
    assert emit(series).encode() == f"algorithm,step,track\n{cell},0,45\n{cell},1,10\n".encode()


class _Text(str):
    """A rendered text that a weak reference can follow."""


def test_order_texts_render_each_piece_once_and_keep_none_past_its_last_use(monkeypatch):
    t = tuple(range(100, 110))
    # Legs cut at 0, 4 and 10 into the legs (t, 0, 3), (t, 4, 9) and (t, 3, 0).
    legs = [((t, 0, 9),), ((t, 4, 9), (t, 3, 0)), ((t, 3, 0),)]
    rows = [Schedule._of_legs("X", 100, t, row) for row in legs]
    rendered = []
    items = report_module._items

    def recording_items(values, sep):
        text = _Text(items(values, sep))
        rendered.append((values, weakref.ref(text)))
        return text

    monkeypatch.setattr(report_module, "_items", recording_items)
    texts = report_module._order_texts(rows, ";")
    assert next(texts) == "100;101;102;103;104;105;106;107;108;109"
    assert next(texts) == "104;105;106;107;108;109;103;102;101;100"
    assert [run for run, _ in rendered] == [t[:4], t[4:], t[3::-1]]
    assert next(texts) == "103;102;101;100"
    # Only the last row's piece is still held, by the row being built.
    assert [ref() is None for _, ref in rendered] == [True, True, False]
    assert next(texts, None) is None and len(rendered) == 3
