"""Property tests for the scheduler family.

The heavyweight randomized campaign lives in the acceptance suite; these use
hypothesis to hunt adversarial shapes (ties, duplicates, head on a request).
"""

from itertools import combinations_with_replacement, permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seeksim import model, report
from seeksim.model import DiskGeometry, Schedule, TransferModel, average_seek, validate_instance
from seeksim.report import ALGORITHM_ORDER, ORACLE_NAME, ComparisonReport, emit, run_schedule
from seeksim.schedulers import (
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
from test_schedulers import _reference_sstf_run

GEOM = DiskGeometry()

tracks = st.integers(0, 180)
queues = st.lists(tracks, min_size=1, max_size=8)
heads = tracks

GEOMETRY_FREE = {
    "FIFO": schedule_fifo,
    "SSTF": schedule_sstf,
    "LOOK": schedule_look,
    "ODSA": schedule_odsa,
}


def instance(queue, head, geometry=None):
    """A validated instance; by default on a geometry that just spans the
    queue and the head, which only SCAN and C-SCAN read."""
    if geometry is None:
        geometry = DiskGeometry(min((head, *queue)), max((head, *queue)) + 1)
    return validate_instance(queue, head, geometry)


def _brute_force_reference(queue, head):
    """Exhaustive search over every service order, keeping the cheapest; ties
    resolve to the lexicographically smallest order. The oracle for the
    oracle: factorial time, so only for small queues."""
    best_total = None
    best_order = ()
    for perm in permutations(sorted(queue)):
        total = 0
        prev = head
        for t in perm:
            total += abs(t - prev)
            prev = t
            if best_total is not None and total >= best_total:
                break
        else:
            if best_total is None or total < best_total:
                best_total = total
                best_order = perm
    return Schedule("OPTIMAL", head, best_order)


def all_schedules(queue, head):
    inst = instance(queue, head, GEOM)
    return {
        "FIFO": schedule_fifo(inst),
        "SSTF": schedule_sstf(inst),
        "SCAN": schedule_scan(inst),
        "C-SCAN": schedule_cscan(inst),
        "LOOK": schedule_look(inst),
        "ODSA": schedule_odsa(inst),
    }


@given(queues, heads)
def test_every_algorithm_services_exactly_the_queue(queue, head):
    want = sorted(queue)
    for name, schedule in all_schedules(queue, head).items():
        assert sorted(schedule.service_order) == want, name


@given(queues, heads)
def test_schedule_step_seeks_are_path_distances(queue, head):
    for schedule in all_schedules(queue, head).values():
        path = schedule.head_path()
        assert schedule.step_seeks == tuple(abs(b - a) for a, b in zip(path, path[1:]))
        assert schedule.total_seek == sum(schedule.step_seeks)


@given(queues, heads)
def test_odsa_closed_form(queue, head):
    lo, hi = min(queue), max(queue)
    expected = min(abs(head - lo), abs(head - hi)) + (hi - lo)
    assert schedule_odsa(instance(queue, head)).total_seek == expected


@given(queues, heads)
def test_odsa_sweep_is_monotone(queue, head):
    order = schedule_odsa(instance(queue, head)).service_order
    assert order == tuple(sorted(order)) or order == tuple(sorted(order, reverse=True))


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=6), heads)
def test_odsa_matches_exhaustive_oracle(queue, head):
    inst = instance(queue, head)
    odsa = schedule_odsa(inst).total_seek
    assert odsa == _brute_force_reference(queue, head).total_seek
    assert odsa == brute_force_optimal(inst).total_seek


# Narrow spans make duplicate tracks and equal-cost orders common.
small_instances = st.integers(1, 12).flatmap(
    lambda span: st.tuples(
        st.lists(st.integers(0, span), max_size=8), st.integers(0, span + 3)
    )
)


# The examples cover each shape of the oracle's order: the first stop at
# index 0; at index n - 1; inside, going up next (plainly, on a duplicate
# track, and on the lower of two top tracks); inside but tied with starting
# at index 0; and a tie between the two extremes.
@settings(max_examples=250, deadline=None)
@given(small_instances)
@example(([10, 20, 30], 5))
@example(([10, 20, 30], 35))
@example(([0, 60, 80, 100], 55))
@example(([0, 60, 60, 100], 55))
@example(([0, 100, 100], 90))
@example(([0, 10, 40], 10))
@example(([40, 60], 50))
def test_oracle_matches_brute_force_reference(drawn):
    queue, head = drawn
    got = brute_force_optimal(instance(queue, head))
    want = _brute_force_reference(queue, head)
    assert got.service_order == want.service_order
    assert got.total_seek == want.total_seek


@given(queues, heads)
def test_odsa_dominates_every_baseline(queue, head):
    schedules = all_schedules(queue, head)
    odsa = schedules.pop("ODSA").total_seek
    for name, schedule in schedules.items():
        assert odsa <= schedule.total_seek, name


@given(queues, heads, st.randoms(use_true_random=False))
def test_total_seek_ignores_queue_order_except_fifo(queue, head, rnd):
    shuffled = queue[:]
    rnd.shuffle(shuffled)
    arrived, permuted = instance(queue, head, GEOM), instance(shuffled, head, GEOM)
    for algo in (schedule_sstf, schedule_look, schedule_odsa, schedule_scan, schedule_cscan):
        assert algo(permuted).total_seek == algo(arrived).total_seek, algo.__name__


@given(queues, heads, st.integers(0, 200))
def test_translation_invariance(queue, head, shift):
    for name, algo in GEOMETRY_FREE.items():
        base = algo(instance(queue, head)).total_seek
        moved = algo(instance([t + shift for t in queue], head + shift)).total_seek
        assert base == moved, name


@given(queues, heads)
def test_reflection_invariance(queue, head):
    mirrored = [180 - t for t in queue]
    for name, algo in GEOMETRY_FREE.items():
        mirror = instance(mirrored, 180 - head)
        assert algo(instance(queue, head)).total_seek == algo(mirror).total_seek, name


@given(queues)
def test_head_on_a_request_is_serviced_first_by_sstf(queue):
    head = queue[0]
    order = schedule_sstf(instance(queue, head)).service_order
    assert order[0] == head


@given(st.lists(tracks, min_size=1, max_size=7), heads)
def test_duplicates_are_serviced_consecutively_by_sstf(queue, head):
    doubled = queue + queue[:1]
    order = schedule_sstf(instance(doubled, head)).service_order
    for value in set(order):
        hits = [i for i, t in enumerate(order) if t == value]
        assert hits == list(range(hits[0], hits[0] + len(hits)))


# Geometries off the default, some wholly below track 0. The examples put a
# sweep's end stops outside the default [0, 180] but inside their own disk.
@st.composite
def instances_on_any_geometry(draw):
    low = draw(st.integers(-300, 300))
    geometry = DiskGeometry(low, draw(st.integers(low + 1, low + 400)))
    inside = st.integers(geometry.min_track, geometry.max_track)
    return validate_instance(draw(st.lists(inside, max_size=10)), draw(inside), geometry)


@given(instances_on_any_geometry())
@example(validate_instance((500, 3), 10, DiskGeometry(3, 600)))
@example(validate_instance((500,), 10, DiskGeometry(-5, 600)))
@example(validate_instance((-50, -10), -40, DiskGeometry(-60, -5)))
def test_every_stop_lies_inside_the_geometry(inst):
    ends = {inst.geometry.min_track, inst.geometry.max_track}
    for name in ALGORITHM_ORDER + (ORACLE_NAME,):
        schedule = run_schedule(name, inst)
        assert all(inst.geometry.contains(t) for t in schedule.stops), name
        assert set(schedule.preliminary_moves) <= ends, name


# The small scope, exhaustively: every multiset of up to SCOPE_K requests on
# the tracks of SCOPE, with the head on each of its tracks (5544 instances).
SCOPE_K = 5
SCOPE = DiskGeometry(0, 6)
SCOPE_TRACKS = range(SCOPE.min_track, SCOPE.max_track + 1)
SCOPE_ENDS = {SCOPE.min_track, SCOPE.max_track}
ORACLE_SEARCH_K = 4  # the oracle meets a search over every service order
# Translated instances lie wholly above the scope.
SCOPE_SHIFT = 1000
SHIFTED_SCOPE = DiskGeometry(SCOPE.min_track + SCOPE_SHIFT, SCOPE.max_track + SCOPE_SHIFT)
# The algorithms whose total a mirror image keeps; SCAN and C-SCAN run on to
# a disk end, so where the upward default fires their total may change.
MIRROR_FREE = ("FIFO", "SSTF", "LOOK", "ODSA", ORACLE_NAME)


def test_small_scope_exhaustively(monkeypatch):
    # Every legs-built head path and service order goes run by run, and
    # every queue is counting-sorted, however sparse; the stops-built twins
    # fill templates.
    monkeypatch.setattr(report, "_DENSE_PER_TRACK", 0)
    monkeypatch.setattr(model, "_COUNT_SORT_PER_TRACK", 0)
    monkeypatch.setattr(model, "_COUNT_SORT_MIN_SPAN", 0)
    monkeypatch.setattr(model, "_COUNT_SORT_MIN_REQUESTS", 0)
    names = (*ALGORITHM_ORDER, ORACLE_NAME)
    for n in range(SCOPE_K + 1):
        for queue in combinations_with_replacement(SCOPE_TRACKS, n):
            for head in SCOPE_TRACKS:
                inst = validate_instance(queue, head, SCOPE)
                case = (queue, head)
                rows, twins = [], []
                for name in names:
                    # Each derived field is read on a fresh schedule, so none
                    # is computed from another that was read before it.
                    path = run_schedule(name, inst).head_path()
                    if n:
                        avg = average_seek(run_schedule(name, inst))
                    s = run_schedule(name, inst)
                    twin = Schedule(s.algorithm, s.start, s.stops, s.idle)
                    assert s == twin and hash(s) == hash(twin), (name, case)
                    assert path == twin.head_path(), (name, case)
                    assert sum(s.step_seeks) == s.total_seek, (name, case)
                    assert tuple(sorted(s.service_order)) == queue, (name, case)
                    assert all(SCOPE.contains(t) for t in s.stops), (name, case)
                    assert set(s.preliminary_moves) <= SCOPE_ENDS, (name, case)
                    if n:
                        assert avg == twin.total_seek / n, (name, case)
                    rows.append(run_schedule(name, inst))
                    twins.append(twin)
                for format in ("csv", "json"):
                    assert emit(ComparisonReport(inst, TransferModel(), tuple(rows)), format) == (
                        emit(ComparisonReport(inst, TransferModel(), tuple(twins)), format)
                    ), case
                    # The tables read no stops, so the rows' head paths
                    # still come from their legs, run by run.
                    assert emit(tuple(rows), format) == emit(tuple(twins), format), case
                totals = {row.algorithm: row.total_seek for row in rows}
                shifted = validate_instance([t + SCOPE_SHIFT for t in queue], head + SCOPE_SHIFT,
                                            SHIFTED_SCOPE)
                mirrored = validate_instance([SCOPE.max_track - t for t in queue],
                                             SCOPE.max_track - head, SCOPE)
                for name, twin in zip(names, twins):
                    moved = run_schedule(name, shifted).head_path()
                    assert moved == tuple(t + SCOPE_SHIFT for t in twin.head_path()), (name, case)
                for name in MIRROR_FREE:
                    assert run_schedule(name, mirrored).total_seek == totals[name], (name, case)
                sstf_total, sstf_order = _reference_sstf_run(head, list(queue))
                assert rows[names.index("SSTF")].service_order == tuple(sstf_order), case
                assert totals["SSTF"] == sstf_total, case
                if n <= ORACLE_SEARCH_K:
                    want = _brute_force_reference(queue, head)
                    assert rows[-1].service_order == want.service_order, case
                    assert totals[ORACLE_NAME] == want.total_seek, case
                if n:
                    lo, hi = queue[0], queue[-1]
                    odsa = totals["ODSA"]
                    assert odsa == min(abs(head - lo), abs(head - hi)) + (hi - lo), case
                    assert odsa == totals[ORACLE_NAME], case
                    assert all(odsa <= totals[name] for name in ALGORITHM_ORDER), case
