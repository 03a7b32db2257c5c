"""Core value types shared by every module (geometry, transfer constants,
instances and schedules) and the cost model that ranks schedules.

Queues are tuples of int tracks in arrival order and heads are plain int
tracks. All types are immutable classes compared by field, not dataclasses,
so instances are safe to share across threads or processes. A value derived
from the fields is computed on first read and then stored; two threads that
read it first at the same time may both compute it, which is harmless, as
both store equal values.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
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


class DiskGeometry(_Frozen):
    """Inclusive track bounds of the modeled disk."""

    _fields = ("min_track", "max_track")

    def __init__(self, min_track: Track = DEFAULT_MIN_TRACK, max_track: Track = DEFAULT_MAX_TRACK):
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
    n = len(schedule.service_order)
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


class Schedule(_Frozen):
    """Result of running one algorithm on one instance.

    ``stops`` is the full head itinerary after ``start`` and ``idle`` holds
    the indices of the stops that service nothing: the preliminary moves
    (sweep end points, wrap landings) that cost seek distance without
    completing a request. Everything else is derived from them on first read
    and then stored. ``step_seeks`` has one entry per path segment, so
    ``sum(step_seeks) == total_seek`` and unserviced stops count too.
    """

    _fields = ("algorithm", "start", "stops", "idle", "service_order", "preliminary_moves",
               "total_seek")

    def __init__(
        self, algorithm: str, start: Track, stops: tuple[Track, ...], idle: tuple[int, ...] = ()
    ):
        self.__dict__.update(algorithm=algorithm, start=start, stops=stops, idle=idle)

    @staticmethod
    def _seeks(start: Track, stops: tuple[Track, ...]) -> Iterator[int]:
        return map(abs, map(operator.sub, stops, chain((start,), stops)))

    @_derived
    def service_order(self) -> tuple[Track, ...]:
        service = self.stops
        for i in reversed(self.idle):
            service = service[:i] + service[i + 1 :]
        return service

    @_derived
    def preliminary_moves(self) -> tuple[Track, ...]:
        return tuple(self.stops[i] for i in self.idle)

    @_derived
    def total_seek(self) -> int:
        return sum(self._seeks(self.start, self.stops))

    @_derived
    def step_seeks(self) -> tuple[int, ...]:
        return tuple(self._seeks(self.start, self.stops))

    def head_path(self) -> tuple[Track, ...]:
        """All head positions in order, starting at the initial position."""
        return (self.start,) + self.stops


class Instance(_Frozen):
    """A validated (queue, head, geometry) triple."""

    _fields = ("queue", "head", "geometry")

    def __init__(self, queue: tuple[Track, ...], head: Track, geometry: DiskGeometry):
        self.__dict__.update(queue=queue, head=head, geometry=geometry)

    @_derived
    def tracks(self) -> tuple[Track, ...]:
        """The queue in ascending order, sorted once per instance and laid
        out in that order in memory, so each pass over it reads memory in
        sequence. Every scheduler but FIFO depends only on this multiset."""
        ordered = sorted(self.queue)
        # CPython shares one object per int in [-5, 256], and those objects
        # already lie in value order, so a copy would change nothing.
        if ordered and -5 <= ordered[0] and ordered[-1] <= 256:
            return tuple(ordered)
        # Parsed ints lie in memory in arrival order; fresh copies of the exact
        # ints, made in sorted order, are read in sequence. Others stay as is.
        return tuple([t + 0 if t.__class__ is int else t for t in ordered])


def validate_instance(
    queue: Sequence[Track], head: Track, geometry: DiskGeometry = DiskGeometry()
) -> Instance:
    """Check every request and the head against the geometry.

    Returns a frozen Instance; raises OutOfRangeError listing every offending
    track. Validating an already validated instance's parts yields an equal
    Instance, so validation is idempotent. An empty queue is legal.
    """
    q = tuple(queue)
    contains = geometry.contains
    if (q and not (contains(min(q)) and contains(max(q)))) or not contains(head):
        offending = [t for t in q if not contains(t)]
        if not contains(head):
            offending.append(head)
        raise OutOfRangeError(offending, geometry)
    return Instance(q, head, geometry)
