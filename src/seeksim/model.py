"""Core value types shared by every module (geometry, transfer constants,
instances and schedules) and the cost model that ranks schedules.

Queues are tuples of int tracks in arrival order and heads are int tracks:
exact ints wherever an Instance, a Schedule or a DiskGeometry holds them.
All types are immutable classes compared by field, not dataclasses, so
instances are safe to share across threads or processes. A value derived
from the fields is computed on first read and then stored; two threads that
read it first at the same time may both compute it, which is harmless, as
both store equal values. A Schedule stores one form however it was built,
its legs, and derives every field from them.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

Track = int

DEFAULT_MIN_TRACK = 0
DEFAULT_MAX_TRACK = 180

DEFAULT_BYTES_TO_TRANSFER = 30000
DEFAULT_BYTES_PER_TRACK = 32256
DEFAULT_ROTATION_SPEED = 120.0


class SchedulingError(ValueError):
    """Every seeksim input error; the message names the check that failed.
    ParseError and OutOfRangeError add data about the offending input."""


_ECHO_LIMIT = 20
_SHOWN_TRACKS = 3


def _echo(token: str) -> str:
    """``token`` quoted for an error message; a long one is cut to a prefix
    followed by its length."""
    if len(token) <= _ECHO_LIMIT:
        return repr(token)
    return f"{token[:_ECHO_LIMIT]!r}... ({len(token)} characters)"


class OutOfRangeError(SchedulingError):
    """One or more tracks fall outside the disk geometry. ``offending``
    holds them all; the message names the first few."""

    def __init__(self, offending: Sequence[int], geometry: "DiskGeometry"):
        self.offending = tuple(offending)
        self.geometry = geometry
        tracks = ", ".join(_echo(str(t)) for t in self.offending[:_SHOWN_TRACKS])
        if len(self.offending) > _SHOWN_TRACKS:
            tracks += f" and {len(self.offending) - _SHOWN_TRACKS} more"
        super().__init__(
            f"track(s) {tracks} outside geometry "
            f"[{_echo(str(geometry.min_track))}, {_echo(str(geometry.max_track))}]"
        )


class _Frozen:
    """Base of the value types: a subclass names its ``_fields`` and sets them
    once through ``__dict__``. Instances refuse assignment, compare and hash by
    field within one class, and print like frozen dataclasses."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class _derived:
    """A value computed from an instance's fields on first read and stored
    in its ``__dict__``, which later reads find before this descriptor. Unlike
    functools.cached_property, it takes no lock."""

    def __init__(self, compute):
        self._compute, self._name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._compute(obj)
        return value


def _int(value) -> int:
    """``value`` as an exact int, through ``operator.index``: a bool or int
    subclass is converted, and a float, str, None or Decimal raises
    SchedulingError."""
    try:
        return operator.index(value)
    except TypeError:
        raise SchedulingError(f"expected an integer track, got {_echo(repr(value))}") from None


def _ints(values: Iterable) -> tuple[int, ...]:
    """``values`` as exact ints (see _int); the first refused one is named."""
    given = tuple(values)  # a generator, too, can be scanned for the bad value
    try:
        return tuple(map(operator.index, given))
    except TypeError:
        return tuple(map(_int, given))  # raises at the first refused value


class DiskGeometry(_Frozen):
    """Inclusive track bounds of the modeled disk, exact ints (see _int)."""

    _fields = ("min_track", "max_track")

    def __init__(self, min_track: Track = DEFAULT_MIN_TRACK, max_track: Track = DEFAULT_MAX_TRACK):
        min_track, max_track = _int(min_track), _int(max_track)
        if min_track >= max_track:
            raise SchedulingError(
                f"min_track ({_echo(str(min_track))}) must be "
                f"< max_track ({_echo(str(max_track))})"
            )
        self.__dict__.update(min_track=min_track, max_track=max_track)

    def contains(self, track: Track) -> bool:
        return self.min_track <= track <= self.max_track


class TransferModel(_Frozen):
    """Constants of the transfer-time formula
    ``transfer = average_seek + 1/(2R) + B/(R*N)``.

    B = bytes_to_transfer, N = bytes_per_track, R = rotation_speed (rev/s).
    With the defaults the additive term is 961/80640 ~= 0.0119172. The
    formula mixes units (tracks plus seconds); reference reports do the
    same, so it is reproduced as-is rather than converted.
    """

    _fields = ("bytes_to_transfer", "bytes_per_track", "rotation_speed")

    def __init__(self, bytes_to_transfer: int = DEFAULT_BYTES_TO_TRANSFER,
                 bytes_per_track: int = DEFAULT_BYTES_PER_TRACK,
                 rotation_speed: float = DEFAULT_ROTATION_SPEED):
        self.__dict__.update(
            bytes_to_transfer=bytes_to_transfer, bytes_per_track=bytes_per_track,
            rotation_speed=rotation_speed,
        )
        for name, value in zip(self._fields, self._values()):
            if not 0 < value < math.inf:
                raise SchedulingError(f"{name} must be finite and positive, got {value}")
        try:
            finite = rotational_overhead(self) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise SchedulingError("rotational overhead 1/(2R) + B/(R*N) overflows a float")


def rotational_overhead(model: TransferModel) -> float:
    """The constant 1/(2R) + B/(R*N) added to every average seek."""
    r = model.rotation_speed
    return 1.0 / (2.0 * r) + model.bytes_to_transfer / (r * model.bytes_per_track)


def average_seek(schedule: Schedule) -> float:
    """Total seek divided by the number of requests."""
    n = len(schedule._tracks)
    if n < 1:
        raise SchedulingError("average seek undefined for an empty schedule")
    try:
        return schedule.total_seek / n
    except OverflowError:
        raise SchedulingError("average seek overflows a float") from None


def transfer_time(avg_seek: float, model: TransferModel) -> float:
    if not avg_seek >= 0:
        raise SchedulingError(f"average seek must be non-negative, got {avg_seek}")
    total = avg_seek + rotational_overhead(model)
    if total == math.inf:
        raise SchedulingError("transfer time overflows a float")
    return total


# A leg of a schedule (see Schedule): seq[i] to seq[j] inclusive.
_Leg = tuple[Sequence[Track], int, int]


def _leg_tracks(seq: Sequence[Track], i: int, j: int) -> Sequence[Track]:
    """The leg ``(seq, i, j)``: ``seq[i]`` to ``seq[j]``, inclusive, in walk
    order (up when i <= j, down otherwise)."""
    if i <= j:
        return seq[i : j + 1]
    return seq[i : j - 1 : -1] if j else seq[i::-1]


def _leg_runs(seq: Sequence[Track], i: int, j: int) -> Iterator[tuple[Track, int]]:
    """The leg ``(seq, i, j)`` as (track, count) runs of equal tracks, in
    walk order, one bisect per run."""
    if i <= j:
        while i <= j:
            k = bisect_right(seq, seq[i], i, j + 1)
            yield seq[i], k - i
            i = k
    else:
        while i >= j:
            k = bisect_left(seq, seq[i], j, i)
            yield seq[i], i - k + 1
            i = k - 1


def _dense(n: int, lo: Track, hi: Track, per_track: int) -> bool:
    """Whether ``n`` requests on tracks ``lo`` to ``hi`` hold at least
    ``per_track`` requests per track of that span: the test that picks a
    path by runs of equal tracks over one by request. Each caller passes its
    own threshold, set at its measured crossover."""
    return n >= per_track * (hi - lo + 1)


# Instance.tracks counting-sorts a queue of at least _COUNT_SORT_MIN_REQUESTS
# with at least _COUNT_SORT_PER_TRACK requests per track of its span, unless
# its tracks lie fewer than _COUNT_SORT_MIN_SPAN apart. CPython 3.11.7 on 2
# shared vCPUs, sorted() against counting:
# - 10^5 uniform requests: at 1 per track 25 against 30 ms, at 2 22 against
#   21, at 4 19 against 16, at 32 17 against 7, at 550 12 against 4; so
#   counting breaks even between 2 and 4 per track;
# - on few tracks timsort needs about one pass: 10^5 requests on 1 track 1.0
#   against 4.1 ms, on 2 3.4 against 4.1, on 8 5.9 against 3.8; and a short
#   queue pays Counter's set-up: 8 requests on 1 track 0.2 against 1.5 us;
# - so do short dense queues, Instance build included: at 4 per track 36
#   requests 4.6 against 8.5 us, 2048 272 against 290, 8192 1348 against
#   1251; at 8 to 550 per track 768 requests 65-82 against 67-84 us, 1024
#   97-113 against 90-111, 2048 234-265 against 167-209; so counting breaks
#   even between 768 and 1024 requests.
_COUNT_SORT_PER_TRACK = 4
_COUNT_SORT_MIN_SPAN = 8
_COUNT_SORT_MIN_REQUESTS = 1024


def _joined(parts: list[tuple[Track, ...]]) -> tuple[Track, ...]:
    """The concatenation of ``parts``: one part as it is, two in one copy
    (cheaper than a pass for the few tracks of a verify trial), more in one
    pass."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return parts[0] + parts[1]
    return tuple(chain.from_iterable(parts))


class Schedule(_Frozen):
    """Result of running one algorithm on one instance, stored as legs.

    A leg ``(seq, i, j)`` walks ``seq[i]`` to ``seq[j]`` inclusive, up when
    i <= j and down otherwise. Legs over ``_tracks``, the serviced tracks,
    service requests. Each idle stop, a preliminary move (sweep end point,
    wrap landing) that costs seek distance without completing a request, is
    a one-track leg over a one-tuple of its own. Every schedule stores only
    ``algorithm``, ``start``, ``_tracks`` and ``_legs``, plus ``_sorted``
    when a scheduler gives its legs (``_of_legs``); ``Schedule(algorithm,
    start, stops, idle)`` builds them as it validates its stops.

    Every other field is derived from the legs on first read and then
    stored: ``stops``, the full head itinerary after ``start`` in exact ints
    (see _int), ``idle``, the strictly rising indices of the idle stops, and
    the rest. ``step_seeks`` has one entry per path segment, so
    ``sum(step_seeks) == total_seek`` and idle stops count too. On sorted
    ``_tracks``, ``total_seek`` takes O(legs): a leg costs
    |first - previous end| + |last - first|. Equal stops and idle compare,
    hash and print alike, however the schedule was built.
    """

    _fields = ("algorithm", "start", "stops", "idle", "service_order", "preliminary_moves",
               "total_seek")
    _sorted = False  # whether _tracks ascend; _of_legs stores it

    def __init__(
        self, algorithm: str, start: Track, stops: Iterable[Track], idle: Iterable[int] = ()
    ):
        start, stops = _int(start), _ints(stops)
        try:
            idle = tuple(map(operator.index, idle))
            rising = all(map(operator.lt, (-1, *idle), (*idle, len(stops))))
        except TypeError:
            rising = False
        if not rising:
            raise SchedulingError(f"idle indices {_echo(str(idle))} must rise strictly in "
                                  f"[0, {len(stops)})")
        bounds = list(zip((-1, *idle), (*idle, len(stops))))
        tracks = _joined([stops[a + 1 : b] for a, b in bounds])
        legs: list[_Leg] = []
        # The k-th run of serviced stops, a + 1 to b - 1, follows k idle stops.
        for k, (a, b) in enumerate(bounds):
            if a >= 0:
                legs.append(((stops[a],), 0, 0))
            if b - a > 1:
                legs.append((tracks, a + 1 - k, b - 1 - k))
        self.__dict__.update(algorithm=algorithm, start=start, _tracks=tracks, _legs=tuple(legs))

    @classmethod
    def _of_legs(
        cls, algorithm: str, start: Track, tracks: tuple[Track, ...], legs: tuple[_Leg, ...],
        ascending: bool = True,
    ) -> Schedule:
        """The schedule that walks ``legs`` from ``start``; legs over
        ``tracks`` (sorted if ``ascending``) service requests, all others
        are idle stops."""
        schedule = cls.__new__(cls)
        schedule.__dict__.update(
            algorithm=algorithm, start=start, _tracks=tracks, _legs=legs, _sorted=ascending
        )
        return schedule

    @staticmethod
    def _seeks(start: Track, stops: tuple[Track, ...]) -> Iterator[int]:
        return map(abs, map(operator.sub, stops, chain((start,), stops)))

    @_derived
    def stops(self) -> tuple[Track, ...]:
        return _joined([_leg_tracks(*leg) for leg in self._legs])

    @_derived
    def idle(self) -> tuple[int, ...]:
        idle, at = [], 0
        for seq, i, j in self._legs:
            if seq is not self._tracks:
                idle.append(at)
            at += abs(j - i) + 1
        return tuple(idle)

    @_derived
    def service_order(self) -> tuple[Track, ...]:
        t, parts = self._tracks, []
        for leg in self._legs:  # a loop: cheaper than a comprehension for a few legs
            if leg[0] is t:
                parts.append(_leg_tracks(*leg))
        return _joined(parts)

    @_derived
    def preliminary_moves(self) -> tuple[Track, ...]:
        return tuple([seq[i] for seq, i, _ in self._legs if seq is not self._tracks])

    @_derived
    def total_seek(self) -> int:
        if not self._sorted:
            return sum(self._seeks(self.start, self.stops))
        total, pos = 0, self.start
        for seq, i, j in self._legs:
            first, last = seq[i], seq[j]
            total += abs(first - pos) + abs(last - first)
            pos = last
        return total

    @_derived
    def step_seeks(self) -> tuple[int, ...]:
        return tuple(self._seeks(self.start, self.stops))

    def head_path(self) -> tuple[Track, ...]:
        """All head positions in order, starting at the initial position."""
        # Built in one pass from the legs; ``stops`` is not kept.
        return _joined([(self.start,), *[_leg_tracks(*leg) for leg in self._legs]])


class Instance(_Frozen):
    """A validated (queue, head, geometry) triple: each track and the head
    become exact ints (see _int), and a track outside the geometry raises
    OutOfRangeError."""

    _fields = ("queue", "head", "geometry")

    def __init__(self, queue: Sequence[Track], head: Track, geometry: DiskGeometry):
        q, head = _ints(queue), _int(head)
        # The queue's lowest and highest tracks (the head's, when it is
        # empty), kept for the density test of ``tracks``.
        span = (min(q), max(q)) if q else (head, head)
        contains = geometry.contains
        if not (contains(span[0]) and contains(span[1]) and contains(head)):
            offending = [t for t in q if not contains(t)]
            if not contains(head):
                offending.append(head)
            raise OutOfRangeError(offending, geometry)
        self.__dict__.update(queue=q, head=head, geometry=geometry, _span=span)

    @_derived
    def tracks(self) -> tuple[Track, ...]:
        """The queue in ascending order, sorted once per instance. Every
        scheduler but FIFO depends only on this multiset. A queue that meets
        the three _COUNT_SORT_* thresholds (see their comment) is
        counting-sorted in O(n + span): each distinct track, in order,
        repeated by its count. Any other is sorted by comparison."""
        q, (lo, hi) = self.queue, self._span
        if (len(q) < _COUNT_SORT_MIN_REQUESTS or hi - lo < _COUNT_SORT_MIN_SPAN
                or not _dense(len(q), lo, hi, _COUNT_SORT_PER_TRACK)):
            return tuple(sorted(q))
        counts = Counter(q)
        tracks: list[Track] = []
        for t in sorted(counts):
            tracks += [t] * counts[t]
        return tuple(tracks)


def validate_instance(
    queue: Sequence[Track], head: Track, geometry: DiskGeometry = DiskGeometry()
) -> Instance:
    """Check every request and the head against the geometry.

    Returns a frozen Instance; raises OutOfRangeError listing every offending
    track. Validating an already validated instance's parts yields an equal
    Instance, so validation is idempotent. An empty queue is legal.
    """
    return Instance(queue, head, geometry)
