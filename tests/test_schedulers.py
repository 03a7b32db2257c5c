"""Golden results for the three bundled cases plus edge-case behavior.

Expected totals and orders were frozen from hand traces of each algorithm's
path and cross-checked against the optimal-order oracle where applicable.
"""

import math
import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seeksim import schedulers
from seeksim.model import DiskGeometry, SchedulingError, validate_instance
from seeksim.schedulers import (
    ORACLE_MAX_REQUESTS,
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
from seeksim.workload import reference_case

GEOM = DiskGeometry()


def instance(queue, head, geometry=None):
    """A validated instance; by default on a geometry that just spans the
    queue and the head, which only SCAN and C-SCAN read."""
    if geometry is None:
        geometry = DiskGeometry(min((head, *queue)), max((head, *queue)) + 1)
    return validate_instance(queue, head, geometry)


def case(case_id):
    return validate_instance(*reference_case(case_id))


# ---------------------------------------------------------------- FIFO

def test_fifo_case1():
    inst = case(1)
    s = schedule_fifo(inst)
    assert s.service_order == inst.queue
    assert s.total_seek == 384
    assert s.step_seeks == (20, 15, 141, 19, 108, 16, 28, 37)


def test_fifo_case2():
    assert schedule_fifo(case(2)).total_seek == 311


def test_fifo_case3():
    assert schedule_fifo(case(3)).total_seek == 283


def test_fifo_single_request():
    assert schedule_fifo(instance([100], 45)).total_seek == 55


# ---------------------------------------------------------------- SSTF

def test_sstf_case1():
    s = schedule_sstf(case(1))
    assert s.service_order == (46, 62, 74, 111, 151, 170, 25, 10)
    assert s.total_seek == 285


def test_sstf_case2():
    s = schedule_sstf(case(2))
    assert s.service_order == (63, 75, 80, 116, 30, 24, 21, 16)
    assert s.total_seek == 156


def test_sstf_case3():
    s = schedule_sstf(case(3))
    assert s.service_order == (110, 90, 64, 54, 40, 33, 25, 160)
    assert s.total_seek == 235


def test_sstf_tie_resolves_low_when_costs_equal():
    # both orders cost 30 (verified by the oracle below), so the tie falls
    # back to the lower track
    s = schedule_sstf(instance([40, 60], 50))
    assert s.service_order == (40, 60)
    assert s.total_seek == 30
    assert brute_force_optimal(instance([40, 60], 50)).total_seek == 30


def test_sstf_tie_prefers_cheaper_continuation():
    # 50 -> 40 -> 60 -> 100 costs 70; 50 -> 60 -> 40 -> 100 costs 90
    s = schedule_sstf(instance([40, 60, 100], 50))
    assert s.service_order == (40, 60, 100)
    assert s.total_seek == 70


def test_sstf_duplicates_serviced_consecutively():
    s = schedule_sstf(instance([50, 50, 30], 40))
    assert s.service_order == (30, 50, 50)
    assert s.total_seek == 30


def test_sstf_request_at_head_goes_first():
    s = schedule_sstf(instance([45, 45, 60], 45))
    assert s.service_order == (45, 45, 60)
    assert s.total_seek == 15


def test_sstf_nested_tie_decides_the_first():
    # 7 and 13 tie at 3 from 10. After 7 every step is forced: 7, 13, 19, 0
    # costs 34. After 13, 7 and 19 tie again at 6: 13, 7, 0, 19 costs 35 in
    # all and 13, 19, 7, 0 costs 28. Only pricing the nested tie makes the
    # upper side the cheaper one at the first tie.
    s = schedule_sstf(instance([0, 7, 13, 19], 10))
    assert s.service_order == (13, 19, 7, 0)
    assert s.total_seek == 28


def test_sstf_long_chain_of_exact_ties():
    # Every step below the head is an exact tie with head + 1: 1100 nested
    # ties, which a recursive lookahead cannot follow. Going up once and then
    # down to the lowest request is the cheapest continuation.
    head = 2**1100
    queue = [head + 1] + [head - (2**i - 1) for i in range(1100)]
    s = schedule_sstf(instance(queue, head))
    assert sorted(s.service_order) == sorted(queue)
    assert s.service_order[:3] == (head, head + 1, head - 1)
    assert s.total_seek == 2**1099 + 1


@pytest.mark.parametrize("reflect", [False, True])
def test_sstf_run_stops_at_a_tie_behind_duplicates(reflect):
    # 6 and 8 tie from 7. Below, the second 6 leaves the head on 6 itself,
    # so 4 and 8 tie again at 2: a run that served 4 there would skip that
    # nested tie, whose upper side is cheaper (17 in all, against 18).
    queue, head, order = [0, 4, 6, 6, 8, 11], 7, (6, 6, 8, 11, 4, 0)
    if reflect:
        queue, head, order = [11 - x for x in queue], 11 - head, tuple(11 - x for x in order)
    s = schedule_sstf(instance(queue, head))
    assert s.service_order == order
    assert s.total_seek == 17


def _reference_sstf_run(pos, pending):
    """The recursive SSTF with tie lookahead that the linear walk replaced:
    pop the nearest request; at an exact tie, run both continuations and
    keep the cheaper (the lower track on equal cost)."""
    total = 0
    order = []
    while pending:
        i = bisect_left(pending, pos)
        if i == len(pending):
            idx = i - 1
        elif i == 0 or pending[i] == pos:
            idx = i
        else:
            d_lo = pos - pending[i - 1]
            d_hi = pending[i] - pos
            if d_lo < d_hi:
                idx = i - 1
            elif d_hi < d_lo:
                idx = i
            else:
                lo, hi = pending[i - 1], pending[i]
                t_lo, o_lo = _reference_sstf_run(lo, pending[: i - 1] + pending[i:])
                t_hi, o_hi = _reference_sstf_run(hi, pending[:i] + pending[i + 1 :])
                if t_hi < t_lo:
                    return total + d_hi + t_hi, order + [hi] + o_hi
                return total + d_lo + t_lo, order + [lo] + o_lo
        nxt = pending.pop(idx)
        total += abs(nxt - pos)
        order.append(nxt)
        pos = nxt
    return total, order


# Tracks at small offsets either side of the head, plus a few doubling gaps,
# so that exact and nested ties are common.
tie_offsets = st.one_of(st.integers(0, 8), st.sampled_from((1, 3, 7, 15, 31)))
tie_heavy_queues = st.lists(
    st.tuples(st.sampled_from((-1, 1)), tie_offsets).map(lambda so: 100 + so[0] * so[1]),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(tie_heavy_queues, st.integers(95, 105))
# A lookahead that adds a constant to every walk it prices serves 4, 3, 1
# first here and totals 11 instead of 10.
@example([1, 3, 4, 6, 8, 8, 8, 8, 8], 5)
def test_sstf_matches_recursive_reference(queue, head):
    total, order = _reference_sstf_run(head, sorted(queue))
    s = schedule_sstf(instance(queue, head))
    assert s.service_order == tuple(order)
    assert s.total_seek == total


def test_sstf_scales_near_linearly():
    # Loose scaling check, no absolute time: ten times the requests may take
    # at most thirty times as long (the quadratic list.pop walk took ~45x).
    def best_of_3(n):
        rng = random.Random(2024)
        queue = [rng.randint(0, 10**6) for _ in range(n)]
        best = float("inf")
        for _ in range(3):
            inst = instance(queue, 50_000)  # fresh, so each run sorts its tracks
            start = time.perf_counter()
            schedule_sstf(inst)
            best = min(best, time.perf_counter() - start)
        return best

    assert best_of_3(100_000) < 30 * best_of_3(10_000)


def _reference_sstf(queue, head):
    """The one-request-per-step SSTF walk that run jumps replaced, with the
    same memoized, stack-based tie lookahead: (service order, total seek)."""
    t = sorted(queue)
    n = len(t)

    def walk(state, order):
        lo, hi, pos = state
        cost = 0
        while lo >= 0 and hi < n:
            d_lo, d_hi = pos - t[lo], t[hi] - pos
            if d_lo < d_hi:
                cost, pos, lo = cost + d_lo, t[lo], lo - 1
            elif d_hi < d_lo:
                cost, pos, hi = cost + d_hi, t[hi], hi + 1
            else:
                return cost, (lo, hi, pos)
            if order is not None:
                order.append(pos)
        if order is not None:
            order.extend(reversed(t[: lo + 1]))
            order.extend(t[hi:])
        if lo >= 0:
            cost += pos - t[0]
        elif hi < n:
            cost += t[-1] - pos
        return cost, None

    def branches(tie):
        lo, hi, _ = tie
        return (lo - 1, hi, t[lo]), (lo, hi + 1, t[hi])

    def finish_cost(state, memo):
        stack = [] if state in memo else [(state, *walk(state, None))]
        while stack:
            current, cost, tie = stack[-1]
            if tie is not None:
                pair = branches(tie)
                missing = [b for b in pair if b not in memo]
                if missing:
                    stack.extend((b, *walk(b, None)) for b in missing)
                    continue
                _, hi, pos = tie
                cost += t[hi] - pos + min(memo[b] for b in pair)
            memo[current] = cost
            stack.pop()
        return memo[state]

    hi = bisect_left(t, head)
    order = []
    memo = {}
    state = (hi - 1, hi, head)
    total = 0
    while True:
        cost, tie = walk(state, order)
        total += cost
        if tie is None:
            return tuple(order), total
        below, above = branches(tie)
        state = below if finish_cost(below, memo) <= finish_cost(above, memo) else above
        total += abs(state[2] - tie[2])
        order.append(state[2])


def _cluster_chain(m, k, gap=1):
    """Tracks 0..m-1 below the head and k requests above it whose gaps
    double: every step is an exact tie between the next chain request and
    the top of the cluster, so the lookahead prices the cluster k times."""
    head = m - 1 + gap
    return list(range(m)) + [head + gap * (2**i - 1) for i in range(1, k + 1)], head


_POWER_HEAD = 2**20
sstf_families = {
    "tie_heavy": st.tuples(tie_heavy_queues, st.integers(95, 105)),
    "wide_uniform": st.tuples(
        st.lists(st.integers(0, 10**6), max_size=60), st.integers(0, 10**6)
    ),
    "dense": st.tuples(st.lists(st.integers(0, 5), max_size=60), st.integers(-1, 6)),
    "power_of_two": st.tuples(
        st.lists(
            st.tuples(st.sampled_from((-1, 1)), st.integers(0, 19)).map(
                lambda se: _POWER_HEAD + se[0] * 2 ** se[1]
            ),
            max_size=40,
        ),
        st.just(_POWER_HEAD),
    ),
    "cluster_chain": st.builds(
        _cluster_chain, st.integers(1, 300), st.integers(0, 40), st.integers(1, 4)
    ),
}


@pytest.mark.parametrize("family", sorted(sstf_families))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sstf_matches_one_step_reference(family, data):
    queue, head = data.draw(sstf_families[family])
    order, total = _reference_sstf(queue, head)
    s = schedule_sstf(instance(queue, head))
    assert s.service_order == order
    assert s.total_seek == total


def _counting_bisects(mp):
    """Replace the bisects ``seeksim.schedulers`` calls with counting
    wrappers; returns the one-element list holding the count."""
    calls = [0]

    def counting(bisect):
        def wrapper(*args):
            calls[0] += 1
            return bisect(*args)

        return wrapper

    mp.setattr(schedulers, "bisect_left", counting(bisect_left))
    mp.setattr(schedulers, "bisect_right", counting(bisect_right))
    return calls


@pytest.mark.parametrize("family", sorted(sstf_families))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sstf_walk_jumps_stay_within_the_stated_bound(family, data):
    # _walk's docstring: at most 2*log2(span) + 2 jumps (one bisect each) per
    # walk, where span covers the sorted tracks and the walk's start track.
    queue, head = data.draw(sstf_families[family])
    walk = schedulers._walk
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_bisects(mp)

        def checked_walk(t, state, order):
            before = calls[0]
            result = walk(t, state, order)
            jumps, pos = calls[0] - before, state[2]
            assert jumps == 0 or jumps <= 2 * math.log2(max(t[-1], pos) - min(t[0], pos)) + 2
            return result

        mp.setattr(schedulers, "_walk", checked_walk)
        schedule_sstf(instance(queue, head))


def _memo_peak(queue, head):
    """The most entries the SSTF lookahead's memo holds while scheduling."""
    finish_cost, peak = schedulers._finish_cost, [0]

    def recording(t, state, memo):
        cost = finish_cost(t, state, memo)
        peak[0] = max(peak[0], len(memo))
        return cost

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedulers, "_finish_cost", recording)
        schedule_sstf(instance(queue, head))
    return peak[0]


@pytest.mark.parametrize("family", sorted(sstf_families))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sstf_memo_stays_within_the_stated_bound(family, data):
    # _finish_cost's docstring: at most two tie states per distinct track and
    # two priced branches per tie.
    queue, head = data.draw(sstf_families[family])
    assert _memo_peak(queue, head) <= 4 * len(set(queue)) + 4


def test_sstf_tie_chain_memo_is_linear_in_distinct_tracks():
    queue, head = _cluster_chain(4 * 10**4, 400)
    assert _memo_peak(queue, head) <= 4 * len(set(queue)) + 4


@pytest.mark.parametrize("up", (True, False))
def test_sstf_serves_a_run_with_one_bisect(up):
    # A thousand requests in a row next to the head and one far away on the
    # other side: the run is one jump, where a walk that stepped one request
    # at a time would take a thousand bisects.
    head, sign = 10**6, 1 if up else -1
    queue = [head + sign * i for i in range(1, 1001)] + [head - sign * head]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_bisects(mp)
        s = schedule_sstf(instance(queue, head))
    assert s.service_order[:1000] == tuple(queue[:1000])
    assert calls[0] <= 2  # the starting position and the one jump


def test_sstf_tie_chain_bisects_grow_with_the_chain_not_the_cluster():
    # Deterministic bound: four times the cluster and four times the chain
    # cost at most four times the bisects (195 -> 524 when this was written),
    # where pricing each tie one request at a time cost Theta(k * m).
    counts = []
    for m, k in ((10**4, 100), (4 * 10**4, 400)):
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_bisects(mp)
            schedule_sstf(instance(*_cluster_chain(m, k)))
            counts.append(calls[0])
    assert counts[1] <= 4 * counts[0] + 8


def test_sstf_tie_chain_scales_near_linearly():
    # Loose scaling check, no absolute time: scaling the cluster and the
    # chain by 4 each may cost at most 8 times as long (the one-step walk
    # took about 16 times, Theta(k * m)).
    def best_of_5(m, k):
        queue, head = _cluster_chain(m, k)
        best = float("inf")
        for _ in range(5):
            inst = instance(queue, head)  # fresh, so each run sorts its tracks
            start = time.perf_counter()
            schedule_sstf(inst)
            best = min(best, time.perf_counter() - start)
        return best

    assert best_of_5(4 * 10**4, 400) < 8 * best_of_5(10**4, 100)


# ---------------------------------------------------------------- SCAN

def test_scan_case1_sweeps_up_to_disk_end():
    s = schedule_scan(case(1))
    assert s.service_order == (46, 62, 74, 111, 151, 170, 25, 10)
    assert s.preliminary_moves == (180,)
    assert s.head_path() == (45, 46, 62, 74, 111, 151, 170, 180, 25, 10)
    assert s.total_seek == 305


def test_scan_case2_sweeps_down():
    s = schedule_scan(case(2))
    assert s.preliminary_moves == (0,)
    assert s.service_order == (63, 30, 24, 21, 16, 75, 80, 116)
    assert s.total_seek == 182


def test_scan_case3():
    s = schedule_scan(case(3))
    assert s.total_seek == 285
    assert s.preliminary_moves == (0,)


def test_scan_request_at_physical_end_is_serviced_there():
    s = schedule_scan(instance([50, 180], 45, GEOM))
    assert s.service_order == (50, 180)
    assert s.preliminary_moves == ()
    assert s.total_seek == 135


def test_scan_runs_to_end_even_with_nothing_behind():
    s = schedule_scan(instance([50], 45, GEOM))
    assert s.preliminary_moves == (180,)
    assert s.total_seek == 135


@pytest.mark.parametrize("run", [schedule_scan, schedule_cscan, schedule_look])
def test_downward_sweep_ending_on_min_track_adds_no_stop(run):
    # mirror of test_scan_request_at_physical_end_is_serviced_there
    s = run(instance([130, 0], 135, GEOM))
    assert s.service_order == (130, 0)
    assert s.preliminary_moves == ()
    assert s.total_seek == 135


@pytest.mark.parametrize(
    "run,moves,steps",
    [
        (schedule_scan, (0,), (0, 0, 30, 10, 10, 100)),
        (schedule_cscan, (0, 180), (0, 0, 30, 10, 10, 180, 80)),
        (schedule_look, (), (0, 0, 30, 10, 90)),
    ],
)
def test_head_on_request_sweeping_down_services_it_first(run, moves, steps):
    # two below vs one above: the requests at the head go first, then down
    s = run(instance([50, 20, 100, 10, 50], 50, GEOM))
    assert s.service_order == (50, 50, 20, 10, 100)
    assert s.preliminary_moves == moves
    assert s.step_seeks == steps


# ---------------------------------------------------------------- C-SCAN

def test_cscan_case1_wrap_costs_full_width():
    s = schedule_cscan(case(1))
    assert s.service_order == (46, 62, 74, 111, 151, 170, 10, 25)
    assert s.preliminary_moves == (180, 0)
    assert s.step_seeks == (1, 16, 12, 37, 40, 19, 10, 180, 10, 15)
    assert s.total_seek == 340


def test_cscan_case2():
    s = schedule_cscan(case(2))
    assert s.service_order == (63, 30, 24, 21, 16, 116, 80, 75)
    assert s.preliminary_moves == (0, 180)
    assert s.total_seek == 351


def test_cscan_case3():
    s = schedule_cscan(case(3))
    assert s.total_seek == 325


def test_cscan_no_wrap_when_nothing_remains():
    s = schedule_cscan(instance([50], 45, GEOM))
    assert s.preliminary_moves == (180,)
    assert s.total_seek == 135


def test_cscan_wrap_landing_on_requested_end_track():
    # direction ties 1v1, nearer extreme is 0 -> sweep down; wrap lands on a
    # serviced request at 180
    s = schedule_cscan(instance([0, 180], 45, GEOM))
    assert s.service_order == (0, 180)
    assert s.preliminary_moves == ()
    assert s.total_seek == 225


# ---------------------------------------------------------------- LOOK

def test_look_case1():
    s = schedule_look(case(1))
    assert s.service_order == (46, 62, 74, 111, 151, 170, 25, 10)
    assert s.preliminary_moves == ()
    assert s.total_seek == 285


def test_look_case2():
    s = schedule_look(case(2))
    assert s.service_order == (63, 30, 24, 21, 16, 75, 80, 116)
    assert s.total_seek == 150


def test_look_case3():
    s = schedule_look(case(3))
    assert s.service_order == (110, 90, 64, 54, 40, 33, 25, 160)
    assert s.total_seek == 235


def test_look_direction_majority_wins():
    # two below vs one above: sweep down first
    s = schedule_look(instance([10, 20, 100], 50))
    assert s.service_order == (20, 10, 100)


def test_look_direction_tie_goes_to_nearer_extreme():
    # one each side; 60 is nearer than 10 -> up first
    s = schedule_look(instance([10, 60], 50))
    assert s.service_order == (60, 10)
    assert s.total_seek == 60


def test_look_full_tie_sweeps_up():
    s = schedule_look(instance([40, 60], 50))
    assert s.service_order == (60, 40)
    assert s.total_seek == 30


# ---------------------------------------------------------------- ODSA

def test_odsa_case1_jumps_to_nearer_low_extreme():
    s = schedule_odsa(case(1))
    assert s.service_order == (10, 25, 46, 62, 74, 111, 151, 170)
    assert s.step_seeks == (35, 15, 21, 16, 12, 37, 40, 19)
    assert s.total_seek == 195
    assert s.preliminary_moves == ()


def test_odsa_case2_tie_starts_low():
    s = schedule_odsa(case(2))
    assert s.service_order == (16, 21, 24, 30, 63, 75, 80, 116)
    assert s.total_seek == 150


def test_odsa_case3_jumps_high_and_sweeps_down():
    s = schedule_odsa(case(3))
    assert s.service_order == (160, 110, 90, 64, 54, 40, 33, 25)
    assert s.total_seek == 170


def test_odsa_head_outside_span():
    # oracle over both permutations: [50,10] costs 90, [10,50] costs 130
    s = schedule_odsa(instance([10, 50], 100))
    assert s.service_order == (50, 10)
    assert s.total_seek == 90
    assert brute_force_optimal(instance([10, 50], 100)).total_seek == 90


def test_odsa_plan_case1():
    s = schedule_odsa(instance([25, 10, 151, 170, 62, 46, 74, 111], 45))
    assert (s.service_order[0], s.service_order[-1]) == (10, 170)
    assert s.step_seeks[0] == 35


def test_odsa_plan_tie_prefers_low_end():
    s = schedule_odsa(instance([16, 116], 66))
    assert s.service_order == (16, 116)
    assert s.step_seeks[0] == 50


# ------------------------------------------------------ optimal-order oracle

def test_oracle_matches_odsa_on_case1():
    assert brute_force_optimal(case(1)).total_seek == 195


def test_oracle_single_request():
    s = brute_force_optimal(instance([70], 45))
    assert s.total_seek == 25
    assert s.service_order == (70,)


def test_oracle_empty_queue():
    assert brute_force_optimal(instance([], 45)).total_seek == 0


def test_oracle_rejects_queue_over_bound():
    inst = instance(list(range(ORACLE_MAX_REQUESTS + 1)), 45)
    with pytest.raises(SchedulingError, match="^2001 requests exceed the oracle bound of 2000$"):
        brute_force_optimal(inst)
    assert "tracks" not in inst.__dict__  # refused before the sort


def test_oracle_accepts_nine_requests():
    s = brute_force_optimal(instance(list(range(0, 90, 10)), 45))
    assert s.total_seek == 115  # min(|45-0|, |45-80|) + span


@pytest.mark.parametrize("n", [10, ORACLE_MAX_REQUESTS])
def test_oracle_accepts_queue_up_to_bound(n):
    rng = random.Random(n)
    queue = [rng.randint(0, 10**6) for _ in range(n)]
    head = 500_000
    lo, hi = min(queue), max(queue)
    # the lexicographically smallest optimal order: one ascending sweep when
    # the low end is no farther, else up from the head and then back down
    if head - lo <= hi - head:
        want = sorted(queue)
    else:
        up, down = [t for t in queue if t >= head], [t for t in queue if t < head]
        want = sorted(up) + sorted(down, reverse=True)
    s = brute_force_optimal(instance(queue, head))
    assert s.service_order == tuple(want)
    assert s.total_seek == min(abs(head - lo), abs(head - hi)) + (hi - lo)


def test_oracle_tie_breaks_lexicographically():
    s = brute_force_optimal(instance([40, 60], 50))
    assert s.service_order == (40, 60)


def _oracle_peak_bytes(n):
    # Tracks in 0..3 keep every cost one of CPython's cached small ints, so
    # tracemalloc sees only the lists and tables, not millions of new ints
    # that would make tracing slow.
    rng = random.Random(n)
    inst = instance([rng.randint(0, 3) for _ in range(n)], 2)
    tracemalloc.start()
    try:
        brute_force_optimal(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_grows_linearly():
    # The DP keeps only the cost-to-go of two block widths: 4x the requests
    # should take about 4x the memory, where an O(n^2) table takes 16x.
    assert _oracle_peak_bytes(2000) <= 6 * _oracle_peak_bytes(500)


# ---------------------------------------------------------------- edges

@pytest.mark.parametrize(
    "run",
    [
        lambda: schedule_fifo(instance([], 45)),
        lambda: schedule_sstf(instance([], 45)),
        lambda: schedule_scan(instance([], 45, GEOM)),
        lambda: schedule_cscan(instance([], 45, GEOM)),
        lambda: schedule_look(instance([], 45)),
        lambda: schedule_odsa(instance([], 45)),
    ],
)
def test_empty_queue_gives_zero_seek_schedule(run):
    s = run()
    assert s.total_seek == 0
    assert s.service_order == ()
    assert s.preliminary_moves == ()


@pytest.mark.parametrize(
    "run",
    [
        lambda: schedule_sstf(instance([45, 45], 45)),
        lambda: schedule_scan(instance([45, 45], 45, GEOM)),
        lambda: schedule_cscan(instance([45, 45], 45, GEOM)),
        lambda: schedule_look(instance([45, 45], 45)),
        lambda: schedule_odsa(instance([45, 45], 45)),
    ],
)
def test_all_requests_at_head_cost_nothing(run):
    s = run()
    assert s.total_seek == 0
    assert s.service_order == (45, 45)
