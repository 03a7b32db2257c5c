"""The six scheduling algorithms plus an exhaustive permutation oracle.

Every scheduler is a pure function mapping (queue, head[, geometry]) to a
Schedule. Shared conventions:

- Requests already under the head are serviced first at zero cost and are
  counted on neither side when a sweep direction is chosen.
- Duplicate tracks are serviced consecutively at zero incremental seek.
- An empty queue yields an empty schedule with total_seek 0.

Sweep direction (SCAN, C-SCAN, LOOK): move toward the side holding more
pending requests; if the sides tie, toward the nearer extreme pending track;
if those distances also tie, upward. The two lower tiers only engage on ties,
where they keep total_seek invariant under reflection of the whole instance
(the final tier fires only when both sweeps cost the same).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import permutations
from typing import Literal, Sequence

from .model import DiskGeometry, Schedule, SchedulingError, Track

BRUTE_FORCE_MAX_REQUESTS = 9


class QueueTooLargeError(SchedulingError):
    """Queue exceeds the factorial-search bound of the oracle."""


@dataclass(frozen=True)
class OdsaPlan:
    """Sweep plan for the single-sweep scheduler: the extreme requested
    tracks, the cost of jumping to the nearer one, and which end the sweep
    starts from."""

    lowest: Track
    highest: Track
    initial_seek: int
    start_end: Literal["low", "high"]


def _served(algorithm: str, start: Track, order: Sequence[Track]) -> Schedule:
    return Schedule(algorithm, start, tuple(order))


def schedule_fifo(queue: Sequence[Track], head: Track) -> Schedule:
    """Service requests in arrival order."""
    return _served("FIFO", head, queue)


def _sstf_run(pos: Track, pending: list[Track]) -> tuple[int, list[Track]]:
    """Greedy nearest-request order over a sorted pending list.

    When two pending tracks are equidistant, both continuations are evaluated
    and the cheaper one wins (equal cost resolves to the lower track). The
    lookahead makes total_seek independent of translation and reflection of
    the instance; each simultaneous tie doubles the work, so cost grows with
    the number of exact equidistant ties encountered.
    """
    total = 0
    order: list[Track] = []
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
                t_lo, o_lo = _sstf_run(lo, pending[: i - 1] + pending[i:])
                t_hi, o_hi = _sstf_run(hi, pending[:i] + pending[i + 1 :])
                if t_hi < t_lo:
                    return total + d_hi + t_hi, order + [hi] + o_hi
                return total + d_lo + t_lo, order + [lo] + o_lo
        nxt = pending.pop(idx)
        total += abs(nxt - pos)
        order.append(nxt)
        pos = nxt
    return total, order


def schedule_sstf(queue: Sequence[Track], head: Track) -> Schedule:
    """Repeatedly service the pending request nearest the current head."""
    _, order = _sstf_run(head, sorted(queue))
    return _served("SSTF", head, order)


def _sweep_direction(h: Track, below: list[Track], above: list[Track]) -> int:
    """+1 for an upward sweep, -1 for downward, given the sorted pending
    tracks on each side. See the module docstring."""
    if len(above) != len(below):
        return 1 if len(above) > len(below) else -1
    up_leg = above[-1] - h
    down_leg = h - below[0]
    if up_leg != down_leg:
        return 1 if up_leg < down_leg else -1
    return 1


def _sweep(
    name: str,
    queue: Sequence[Track],
    head: Track,
    end: Literal["physical", "wrap", "request"],
    geometry: DiskGeometry | None,
) -> Schedule:
    """The elevator sweep behind SCAN, C-SCAN and LOOK.

    Service the requests at the head, then everything on the chosen side;
    ``end`` says where that first leg stops: at the physical disk end
    ("physical"), at the physical end followed by a jump to the opposite end
    ("wrap"), or at the extreme pending request ("request"). The second leg
    runs back over the other side ("physical", "request") or on in the same
    direction after the jump ("wrap"). End points without a request there
    are unserviced stops.
    """
    tracks = sorted(queue)
    lo, hi = bisect_left(tracks, head), bisect_right(tracks, head)
    below, above = tracks[:lo], tracks[hi:]
    if not below and not above:
        return _served(name, head, tracks)
    g = geometry if geometry is not None else DiskGeometry()
    if _sweep_direction(head, below, above) > 0:
        first, back, near, far = tracks[lo:], below[::-1], g.max_track, g.min_track
    else:
        first, back, near, far = tracks[:hi][::-1], above, g.min_track, g.max_track
    second = back[::-1] if end == "wrap" else back
    moves = []
    if end != "request" and first[-1] != near:
        moves.append(near)
    if end == "wrap" and second and second[0] != far:
        moves.append(far)
    idle = tuple(range(len(first), len(first) + len(moves)))
    return Schedule(name, head, tuple(first + moves + second), idle)


def schedule_scan(queue: Sequence[Track], head: Track, geometry: DiskGeometry | None = None) -> Schedule:
    """Elevator sweep: service everything in the chosen direction, run on to
    the physical disk end (an unserviced stop unless a request sits there),
    then reverse and stop at the last remaining request."""
    return _sweep("SCAN", queue, head, "physical", geometry)


def schedule_cscan(queue: Sequence[Track], head: Track, geometry: DiskGeometry | None = None) -> Schedule:
    """Circular sweep: like SCAN up to the physical end, then wrap to the
    opposite end at a cost of the full disk width and continue in the same
    direction, stopping at the last remaining request. The wrap landing is an
    unserviced stop unless a request sits on that end track."""
    return _sweep("C-SCAN", queue, head, "wrap", geometry)


def schedule_look(queue: Sequence[Track], head: Track) -> Schedule:
    """Like SCAN, but reverse at the extreme pending request instead of the
    physical end, so every stop services a request."""
    return _sweep("LOOK", queue, head, "request", None)


def plan_odsa(queue: Sequence[Track], head: Track) -> OdsaPlan:
    """Pick the sweep for the single-sweep scheduler: jump to whichever
    extreme requested track is nearer the head (ties start from the low end)
    and cross to the far extreme."""
    if not queue:
        raise SchedulingError("cannot plan a sweep for an empty queue")
    lowest, highest = min(queue), max(queue)
    to_low = abs(head - lowest)
    to_high = abs(head - highest)
    if to_low <= to_high:
        return OdsaPlan(lowest, highest, to_low, "low")
    return OdsaPlan(lowest, highest, to_high, "high")


def schedule_odsa(queue: Sequence[Track], head: Track) -> Schedule:
    """Single monotone sweep: sort the queue, jump straight to the nearer
    extreme (servicing only the request it lands on), then sweep across to
    the far extreme servicing everything in passing.

    total_seek = min(|head-lowest|, |head-highest|) + (highest - lowest),
    which is the minimum possible for a static queue.
    """
    if not queue:
        return Schedule("ODSA", head, ())
    plan = plan_odsa(queue, head)
    order = sorted(queue, reverse=plan.start_end == "high")
    return _served("ODSA", head, order)


def brute_force_optimal(queue: Sequence[Track], head: Track) -> Schedule:
    """Exhaustive oracle: try every service order and keep the cheapest.

    Ties resolve to the lexicographically smallest service sequence. Bounded
    at 9 requests; raises QueueTooLargeError beyond that so callers can skip
    the comparison.
    """
    if len(queue) > BRUTE_FORCE_MAX_REQUESTS:
        raise QueueTooLargeError(
            f"{len(queue)} requests exceed the oracle bound of {BRUTE_FORCE_MAX_REQUESTS}"
        )
    best_total: int | None = None
    best_order: tuple[Track, ...] = ()
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
    return _served("OPTIMAL", head, best_order)
