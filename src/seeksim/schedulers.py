"""The six scheduling algorithms plus an exact optimal-order oracle.

Every scheduler is a pure function mapping a validated Instance to a
Schedule. FIFO reads the queue in arrival order; every other scheduler
depends only on the multiset of requests and reads the instance's sorted
``tracks``, its head and, for SCAN and C-SCAN, its geometry. Shared
conventions:

- Requests already under the head are serviced first at zero cost and are
  counted on neither side when a sweep direction is chosen.
- Duplicate tracks are serviced consecutively at zero incremental seek.
- An empty queue yields an empty schedule with total_seek 0.

Sweep direction (SCAN, C-SCAN, LOOK): move toward the side holding more
pending requests; if the sides tie, toward the nearer extreme pending track;
if those distances also tie, upward. The lower tiers keep LOOK's total_seek
invariant under reflection of the whole instance. SCAN and C-SCAN run on to a
disk end, so where the upward default fires a mirror can change their total.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .model import Instance, Schedule, SchedulingError, Track

# Larger queues are refused: the oracle's O(n^2) time would grow past a few
# seconds.
ORACLE_MAX_REQUESTS = 2000


def schedule_fifo(instance: Instance) -> Schedule:
    """Service requests in arrival order."""
    return Schedule("FIFO", instance.head, instance.queue)


# A state of the SSTF walk over the sorted tracks t: (lo, hi, pos). The
# serviced requests are exactly t[lo + 1] .. t[hi - 1], pos is the track the
# head stands on, and t[lo] / t[hi] are the nearest pending requests below /
# above (lo < 0 or hi == len(t) when that side is empty).
_State = tuple[int, int, Track]


def _walk(
    t: tuple[Track, ...], state: _State, order: list[Track] | None
) -> tuple[int, _State | None]:
    """Take SSTF's forced steps from ``state``, appending each serviced track
    to ``order`` when one is given.

    Each jump serves a run with one bisect: if d_lo < d_hi, every pending
    track above pos - d_hi stays strictly nearer than t[hi], so t[k..lo] go
    down in turn (a step up is the mirror image). Every track from t[lo] up
    lies above pos - d_hi, so the bisect needs no bounds. The farther
    distance at a jump, at least 1 and at most the span of tracks and head,
    doubles within two jumps, so a walk makes at most 2·log2(span) + 2 jumps.

    Returns the seek cost of the steps taken and the state at the first
    exact equidistant tie, or None as the state once every request is
    serviced (after one side empties, the other is taken in one run).
    """
    lo, hi, pos = state
    n = len(t)
    cost = 0
    while lo >= 0 and hi < n:
        d_lo, d_hi = pos - t[lo], t[hi] - pos
        if d_lo < d_hi:
            k = bisect_right(t, pos - d_hi)
            if order is not None:
                order += t[k : lo + 1][::-1]
            cost, pos, lo = cost + pos - t[k], t[k], k - 1
        elif d_hi < d_lo:
            k = bisect_left(t, pos + d_lo) - 1
            if order is not None:
                order += t[hi : k + 1]
            cost, pos, hi = cost + t[k] - pos, t[k], k + 1
        else:
            return cost, (lo, hi, pos)
    if order is not None:
        order.extend(reversed(t[: lo + 1]))
        order.extend(t[hi:])
    if lo >= 0:
        cost += pos - t[0]
    elif hi < n:
        cost += t[-1] - pos
    return cost, None


def _tie_branches(t: tuple[Track, ...], tie: _State) -> tuple[_State, _State]:
    """The states after servicing the lower, or the upper, of the two
    equidistant requests at ``tie``."""
    lo, hi, _ = tie
    return (lo - 1, hi, t[lo]), (lo, hi + 1, t[hi])


def _finish_cost(t: tuple[Track, ...], state: _State, memo: dict[_State, int]) -> int:
    """Seek cost for SSTF to service every pending request from ``state``.

    Nested ties are resolved with an explicit stack instead of recursion: a
    state whose walk stops at a tie waits until both branches are priced.
    ``memo`` caches every priced state across calls. A tie state has the
    head at one end of the serviced block: at the low end, pos = t[lo + 1],
    the tie fixes t[hi] = 2·pos - t[lo] (the high end is the mirror image).
    Walks serve whole runs of equal tracks, so block ends fall on value
    boundaries, and there are at most two tie states per distinct track and
    two priced branches per tie. Each is priced by one O(log span)-jump walk,
    so the walks cost O(d · log span · log n) for d distinct tracks.
    """
    stack = [] if state in memo else [(state, *_walk(t, state, None))]
    while stack:
        current, cost, tie = stack[-1]
        if tie is not None:
            branches = _tie_branches(t, tie)
            missing = [b for b in branches if b not in memo]
            if missing:
                stack.extend((b, *_walk(t, b, None)) for b in missing)
                continue
            _, hi, pos = tie
            cost += t[hi] - pos + min(memo[b] for b in branches)
        memo[current] = cost
        stack.pop()
    return memo[state]


def schedule_sstf(instance: Instance) -> Schedule:
    """Repeatedly service the pending request nearest the current head.

    The serviced requests always form one contiguous block of the sorted
    tracks, so the walk keeps the nearest pending request below and above and
    serves each run with one bisect: O(log(span) · log(n)) per walk. When
    the two are equidistant, the side from which finishing is cheaper wins
    (equal cost resolves to the lower track); this lookahead makes total_seek
    independent of translation and reflection of the instance. It is
    memoized on the walk state, and a tie state has the head at one end of
    the serviced block, so there are at most two tie states per distinct
    track: the walks cost O(d · log span · log n), where d is the number of
    distinct tracks (see _finish_cost).
    """
    t, head = instance.tracks, instance.head
    hi = bisect_left(t, head)
    order: list[Track] = []
    memo: dict[_State, int] = {}
    state = (hi - 1, hi, head)
    while True:
        _, tie = _walk(t, state, order)
        if tie is None:
            return Schedule("SSTF", head, tuple(order))
        below, above = _tie_branches(t, tie)
        state = below if _finish_cost(t, below, memo) <= _finish_cost(t, above, memo) else above
        order.append(state[2])


def _sweeps_up(h: Track, below: tuple[Track, ...], above: tuple[Track, ...]) -> bool:
    """Whether the sweep goes up first, given the sorted pending tracks on
    each side. See the module docstring."""
    if len(above) != len(below):
        return len(above) > len(below)
    return above[-1] - h <= h - below[0]


def _sweep(name: str, instance: Instance, end: str) -> Schedule:
    """The elevator sweep behind SCAN, C-SCAN and LOOK.

    Service the requests at the head, then everything on the chosen side;
    ``end`` says where that first leg stops: at the physical disk end
    ("physical"), at the physical end followed by a jump to the opposite end
    ("wrap"), or at the extreme pending request ("request"). The second leg
    runs back over the other side ("physical", "request") or on in the same
    direction after the jump ("wrap"). End points without a request there
    are unserviced stops.
    """
    tracks, head, geometry = instance.tracks, instance.head, instance.geometry
    lo, hi = bisect_left(tracks, head), bisect_right(tracks, head)
    below, above = tracks[:lo], tracks[hi:]
    if not below and not above:
        return Schedule(name, head, tracks)
    if _sweeps_up(head, below, above):
        first, back, near, far = tracks[lo:], below[::-1], geometry.max_track, geometry.min_track
    else:
        first, back, near, far = tracks[:hi][::-1], above, geometry.min_track, geometry.max_track
    second = back[::-1] if end == "wrap" else back
    moves = []
    if end != "request" and first[-1] != near:
        moves.append(near)
    if end == "wrap" and second and second[0] != far:
        moves.append(far)
    idle = tuple(range(len(first), len(first) + len(moves)))
    return Schedule(name, head, first + tuple(moves) + second, idle)


def schedule_scan(instance: Instance) -> Schedule:
    """Elevator sweep: service everything in the chosen direction, run on to
    the physical disk end (an unserviced stop unless a request sits there),
    then reverse and stop at the last remaining request."""
    return _sweep("SCAN", instance, "physical")


def schedule_cscan(instance: Instance) -> Schedule:
    """Circular sweep: like SCAN up to the physical end, then wrap to the
    opposite end at a cost of the full disk width and continue in the same
    direction, stopping at the last remaining request. The wrap landing is an
    unserviced stop unless a request sits on that end track."""
    return _sweep("C-SCAN", instance, "wrap")


def schedule_look(instance: Instance) -> Schedule:
    """Like SCAN, but reverse at the extreme pending request instead of the
    physical end, so every stop services a request."""
    return _sweep("LOOK", instance, "request")


def schedule_odsa(instance: Instance) -> Schedule:
    """Single monotone sweep over the sorted tracks: jump straight to the
    nearer extreme (servicing only the request it lands on; a tie starts from
    the low end), then sweep across to the far extreme servicing everything
    in passing.

    total_seek = min(|head-lowest|, |head-highest|) + (highest - lowest),
    which is the minimum possible for a static queue.
    """
    tracks, head = instance.tracks, instance.head
    if tracks and abs(head - tracks[0]) > abs(head - tracks[-1]):
        tracks = tracks[::-1]
    return Schedule("ODSA", head, tracks)


def brute_force_optimal(instance: Instance) -> Schedule:
    """Exact oracle: the cheapest service order, by dynamic programming over
    the blocks of the sorted tracks.

    Some cheapest order always services a growing contiguous block of
    ``t = instance.tracks``: each request is taken when the head first passes
    it. A state ``(i, j, end)`` means ``t[i..j]`` are serviced and the head
    stands at ``t[i]`` (end 0) or ``t[j]`` (end 1); each step extends the
    block down to ``t[i-1]`` or up to ``t[j+1]``. The cost-to-go of every
    state is filled by decreasing ``j - i``: O(n^2) time, and O(n) memory,
    since only the blocks one wider are kept. It picks the first stop
    x = t[k], the lowest optimal one; the rest of the order is the sweep
    up through ``t[k+1:]`` and then down through ``t[:k]``.

    Proof, with L = t[0] and H = t[-1]. If k = 0, the cheapest finish
    climbs to H without turning, in ascending order. If k > 0, an order
    from x that reaches L before H costs at least |head - x| + (x - L) +
    (H - L) >= |head - L| + (H - L), the cost of starting at index 0, so it
    is not optimal, as index 0 is not; and t[k - 1] < x, or index k - 1
    would leave the same requests pending and be optimal too. An order
    from x that reaches H first costs at least |head - x| + (H - x) +
    (H - L), and only one that climbs to H without going below x and then
    descends to L without turning costs that. The sweep is one, and the
    lexicographically smallest: its climb ascends and the descent's order
    is forced. So ties resolve as an exhaustive search over every order
    would resolve them. The search never consults ODSA's closed form, so it
    can check it.

    Raises SchedulingError beyond ORACLE_MAX_REQUESTS requests, before the
    tracks are sorted.
    """
    n = len(instance.queue)
    if n > ORACLE_MAX_REQUESTS:
        raise SchedulingError(f"{n} requests exceed the oracle bound of {ORACLE_MAX_REQUESTS}")
    t, head = instance.tracks, instance.head
    if not n:
        return Schedule("OPTIMAL", head, ())
    # Cost-to-go of the blocks of the current width, indexed by i, with the
    # head at the low end and at the high end; the full block costs nothing.
    at_low = at_high = [0]
    for width in range(n - 2, -1, -1):
        # From a track x in block (i, i + width), stepping down and finishing
        # costs x + down[i - 1]; stepping up and finishing costs up[i] - x.
        # The lowest block can only step up and the highest only down.
        down = [c - p for c, p in zip(at_low, t)]
        up = [c + q for c, q in zip(at_high, t[width + 1 :])]
        new_low, new_high = [up[0] - t[0]], [up[0] - t[width]]
        for a, b, d, u in zip(t[1:], t[width + 1 :], down, up[1:]):
            new_low.append(a + d if a + d <= u - a else u - a)
            new_high.append(b + d if b + d <= u - b else u - b)
        new_low.append(t[n - 1 - width] + down[-1])
        new_high.append(t[n - 1] + down[-1])
        at_low, at_high = new_low, new_high
    first = min(range(n), key=lambda k: abs(head - t[k]) + at_low[k])
    return Schedule("OPTIMAL", head, t[first:] + t[:first][::-1])
