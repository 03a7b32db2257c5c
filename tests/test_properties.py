"""Property tests for the scheduler family.

The heavyweight randomized campaign lives in the acceptance suite; these use
hypothesis to hunt adversarial shapes (ties, duplicates, head on a request).
"""

from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seeksim.model import DiskGeometry, Schedule
from seeksim.schedulers import (
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)

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
    return {
        "FIFO": schedule_fifo(queue, head),
        "SSTF": schedule_sstf(queue, head),
        "SCAN": schedule_scan(queue, head, GEOM),
        "C-SCAN": schedule_cscan(queue, head, GEOM),
        "LOOK": schedule_look(queue, head),
        "ODSA": schedule_odsa(queue, head),
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
    assert schedule_odsa(queue, head).total_seek == expected


@given(queues, heads)
def test_odsa_sweep_is_monotone(queue, head):
    order = schedule_odsa(queue, head).service_order
    assert order == tuple(sorted(order)) or order == tuple(sorted(order, reverse=True))


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=6), heads)
def test_odsa_matches_exhaustive_oracle(queue, head):
    odsa = schedule_odsa(queue, head).total_seek
    assert odsa == _brute_force_reference(queue, head).total_seek
    assert odsa == brute_force_optimal(queue, head).total_seek


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
def test_oracle_matches_brute_force_reference(instance):
    queue, head = instance
    got = brute_force_optimal(queue, head)
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
    assert schedule_sstf(shuffled, head).total_seek == schedule_sstf(queue, head).total_seek
    assert schedule_look(shuffled, head).total_seek == schedule_look(queue, head).total_seek
    assert schedule_odsa(shuffled, head).total_seek == schedule_odsa(queue, head).total_seek
    assert (
        schedule_scan(shuffled, head, GEOM).total_seek
        == schedule_scan(queue, head, GEOM).total_seek
    )
    assert (
        schedule_cscan(shuffled, head, GEOM).total_seek
        == schedule_cscan(queue, head, GEOM).total_seek
    )


@given(queues, heads, st.integers(0, 200))
def test_translation_invariance(queue, head, shift):
    for name, algo in GEOMETRY_FREE.items():
        base = algo(queue, head).total_seek
        moved = algo([t + shift for t in queue], head + shift).total_seek
        assert base == moved, name


@given(queues, heads)
def test_reflection_invariance(queue, head):
    mirrored = [180 - t for t in queue]
    for name, algo in GEOMETRY_FREE.items():
        assert algo(queue, head).total_seek == algo(mirrored, 180 - head).total_seek, name


@given(queues)
def test_head_on_a_request_is_serviced_first_by_sstf(queue):
    head = queue[0]
    order = schedule_sstf(queue, head).service_order
    assert order[0] == head


@given(st.lists(tracks, min_size=1, max_size=7), heads)
def test_duplicates_are_serviced_consecutively_by_sstf(queue, head):
    doubled = queue + queue[:1]
    order = schedule_sstf(doubled, head).service_order
    for value in set(order):
        hits = [i for i, t in enumerate(order) if t == value]
        assert hits == list(range(hits[0], hits[0] + len(hits)))
