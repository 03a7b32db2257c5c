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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations
from typing import Literal

from .model import (
    DiskGeometry,
    HeadLike,
    QueueLike,
    Schedule,
    SchedulingError,
    Track,
    Visit,
    as_head,
    as_queue,
)

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


def _inputs(queue: QueueLike, head: HeadLike) -> tuple[list[Track], Track]:
    return list(as_queue(queue)), as_head(head).position


def _served(algorithm: str, start: Track, order: list[Track]) -> Schedule:
    return Schedule(algorithm, start, tuple(Visit(t) for t in order))


def schedule_fifo(queue: QueueLike, head: HeadLike) -> Schedule:
    """Service requests in arrival order."""
    tracks, h = _inputs(queue, head)
    return _served("FIFO", h, tracks)


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


def schedule_sstf(queue: QueueLike, head: HeadLike) -> Schedule:
    """Repeatedly service the pending request nearest the current head."""
    tracks, h = _inputs(queue, head)
    _, order = _sstf_run(h, sorted(tracks))
    return _served("SSTF", h, order)


def _split(tracks: list[Track], h: Track) -> tuple[list[Track], list[Track], list[Track]]:
    below = [t for t in tracks if t < h]
    at = [t for t in tracks if t == h]
    above = [t for t in tracks if t > h]
    return below, at, above


def _sweep_direction(h: Track, below: list[Track], above: list[Track]) -> int:
    """+1 for an upward sweep, -1 for downward. See the module docstring."""
    if len(above) != len(below):
        return 1 if len(above) > len(below) else -1
    up_leg = max(above) - h
    down_leg = h - min(below)
    if up_leg != down_leg:
        return 1 if up_leg < down_leg else -1
    return 1


def schedule_scan(queue: QueueLike, head: HeadLike, geometry: DiskGeometry | None = None) -> Schedule:
    """Elevator sweep: service everything in the chosen direction, run on to
    the physical disk end (an unserviced stop unless a request sits there),
    then reverse and stop at the last remaining request."""
    tracks, h = _inputs(queue, head)
    g = geometry if geometry is not None else DiskGeometry()
    if not tracks:
        return Schedule("SCAN", h, ())
    below, at, above = _split(tracks, h)
    if not below and not above:
        return _served("SCAN", h, at)
    direction = _sweep_direction(h, below, above)
    if direction > 0:
        first, end, second = sorted(at + above), g.max_track, sorted(below, reverse=True)
    else:
        first, end, second = sorted(at + below, reverse=True), g.min_track, sorted(above)
    visits = [Visit(t) for t in first]
    if first[-1] != end:
        visits.append(Visit(end, serviced=False))
    visits.extend(Visit(t) for t in second)
    return Schedule("SCAN", h, tuple(visits))


def schedule_cscan(queue: QueueLike, head: HeadLike, geometry: DiskGeometry | None = None) -> Schedule:
    """Circular sweep: like SCAN up to the physical end, then wrap to the
    opposite end at a cost of the full disk width and continue in the same
    direction, stopping at the last remaining request. The wrap landing is an
    unserviced stop unless a request sits on that end track."""
    tracks, h = _inputs(queue, head)
    g = geometry if geometry is not None else DiskGeometry()
    if not tracks:
        return Schedule("C-SCAN", h, ())
    below, at, above = _split(tracks, h)
    if not below and not above:
        return _served("C-SCAN", h, at)
    direction = _sweep_direction(h, below, above)
    if direction > 0:
        first, end, wrap_end = sorted(at + above), g.max_track, g.min_track
        second = sorted(below)
    else:
        first, end, wrap_end = sorted(at + below, reverse=True), g.min_track, g.max_track
        second = sorted(above, reverse=True)
    visits = [Visit(t) for t in first]
    if first[-1] != end:
        visits.append(Visit(end, serviced=False))
    if second:
        if second[0] != wrap_end:
            visits.append(Visit(wrap_end, serviced=False))
        visits.extend(Visit(t) for t in second)
    return Schedule("C-SCAN", h, tuple(visits))


def schedule_look(queue: QueueLike, head: HeadLike) -> Schedule:
    """Like SCAN, but reverse at the extreme pending request instead of the
    physical end, so every stop services a request."""
    tracks, h = _inputs(queue, head)
    if not tracks:
        return Schedule("LOOK", h, ())
    below, at, above = _split(tracks, h)
    if not below and not above:
        return _served("LOOK", h, at)
    if _sweep_direction(h, below, above) > 0:
        order = sorted(at + above) + sorted(below, reverse=True)
    else:
        order = sorted(at + below, reverse=True) + sorted(above)
    return _served("LOOK", h, order)


def plan_odsa(queue: QueueLike, head: HeadLike) -> OdsaPlan:
    """Pick the sweep for the single-sweep scheduler: jump to whichever
    extreme requested track is nearer the head (ties start from the low end)
    and cross to the far extreme."""
    tracks, h = _inputs(queue, head)
    if not tracks:
        raise SchedulingError("cannot plan a sweep for an empty queue")
    lowest, highest = min(tracks), max(tracks)
    to_low = abs(h - lowest)
    to_high = abs(h - highest)
    if to_low <= to_high:
        return OdsaPlan(lowest, highest, to_low, "low")
    return OdsaPlan(lowest, highest, to_high, "high")


def schedule_odsa(queue: QueueLike, head: HeadLike) -> Schedule:
    """Single monotone sweep: sort the queue, jump straight to the nearer
    extreme (servicing only the request it lands on), then sweep across to
    the far extreme servicing everything in passing.

    total_seek = min(|head-lowest|, |head-highest|) + (highest - lowest),
    which is the minimum possible for a static queue.
    """
    tracks, h = _inputs(queue, head)
    if not tracks:
        return Schedule("ODSA", h, ())
    plan = plan_odsa(tracks, h)
    order = sorted(tracks, reverse=plan.start_end == "high")
    return _served("ODSA", h, order)


def brute_force_optimal(queue: QueueLike, head: HeadLike) -> Schedule:
    """Exhaustive oracle: try every service order and keep the cheapest.

    Ties resolve to the lexicographically smallest service sequence. Bounded
    at 9 requests; raises QueueTooLargeError beyond that so callers can skip
    the comparison.
    """
    tracks, h = _inputs(queue, head)
    if len(tracks) > BRUTE_FORCE_MAX_REQUESTS:
        raise QueueTooLargeError(
            f"{len(tracks)} requests exceed the oracle bound of {BRUTE_FORCE_MAX_REQUESTS}"
        )
    best_total: int | None = None
    best_order: tuple[Track, ...] = ()
    for perm in permutations(sorted(tracks)):
        total = 0
        prev = h
        for t in perm:
            total += abs(t - prev)
            prev = t
            if best_total is not None and total >= best_total:
                break
        else:
            if best_total is None or total < best_total:
                best_total = total
                best_order = perm
    return _served("OPTIMAL", h, list(best_order))
