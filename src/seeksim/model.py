"""Core value types shared by every module: geometry, transfer constants,
instances and schedules.

Queues are tuples of int tracks in arrival order and heads are plain int
tracks. All types are frozen dataclasses holding ints and tuples, so instances
are immutable and safe to share across threads or processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

Track = int

DEFAULT_MIN_TRACK = 0
DEFAULT_MAX_TRACK = 180

# Reference disk used for the bundled benchmark cases. Only the three transfer
# constants below (bytes_to_transfer, bytes_per_track, rotation_speed) enter
# any computation; the rest is descriptive metadata.
REFERENCE_DISK_INFO = {
    "capacity_gigabytes": 400,
    "sectors_per_track": 63,
    "sector_size_bytes": 512,
    "cylinders": 16383,
    "total_sectors": 781422768,
}

DEFAULT_BYTES_TO_TRANSFER = 30000
DEFAULT_BYTES_PER_TRACK = 32256
DEFAULT_ROTATION_SPEED = 120.0


class SchedulingError(ValueError):
    """Base class for all seeksim input errors."""


class EmptyGeometryError(SchedulingError):
    """min_track >= max_track."""


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


class InvalidModelError(SchedulingError):
    """Transfer-model constant is not finite and strictly positive."""


@dataclass(frozen=True)
class DiskGeometry:
    """Inclusive track bounds of the modeled disk."""

    min_track: Track = DEFAULT_MIN_TRACK
    max_track: Track = DEFAULT_MAX_TRACK

    def __post_init__(self):
        if self.min_track >= self.max_track:
            raise EmptyGeometryError(
                f"min_track ({_echo(str(self.min_track))}) must be "
                f"< max_track ({_echo(str(self.max_track))})"
            )

    @property
    def width(self) -> int:
        return self.max_track - self.min_track

    def contains(self, track: Track) -> bool:
        return self.min_track <= track <= self.max_track


@dataclass(frozen=True)
class TransferModel:
    """Constants of the transfer-time formula
    ``transfer = average_seek + 1/(2R) + B/(R*N)``.

    B = bytes_to_transfer, N = bytes_per_track, R = rotation_speed (rev/s).
    """

    bytes_to_transfer: int = DEFAULT_BYTES_TO_TRANSFER
    bytes_per_track: int = DEFAULT_BYTES_PER_TRACK
    rotation_speed: float = DEFAULT_ROTATION_SPEED

    def __post_init__(self):
        for name in ("bytes_to_transfer", "bytes_per_track", "rotation_speed"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidModelError(f"{name} must be finite and positive, got {value}")
        try:
            finite = rotational_overhead(self) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidModelError("rotational overhead 1/(2R) + B/(R*N) overflows a float")


def rotational_overhead(model: TransferModel) -> float:
    """The constant 1/(2R) + B/(R*N) added to every average seek."""
    r = model.rotation_speed
    return 1.0 / (2.0 * r) + model.bytes_to_transfer / (r * model.bytes_per_track)


@dataclass(frozen=True)
class Schedule:
    """Result of running one algorithm on one instance.

    ``stops`` is the full head itinerary after ``start`` and ``idle`` holds
    the indices of the stops that service nothing: the preliminary moves
    (sweep end points, wrap landings) that cost seek distance without
    completing a request. Everything else is derived from them.
    ``step_seeks`` has one entry per path segment, so
    ``sum(step_seeks) == total_seek`` and unserviced stops count too; it is
    computed on first access and then cached.
    """

    algorithm: str
    start: Track
    stops: tuple[Track, ...]
    idle: tuple[int, ...] = ()
    service_order: tuple[Track, ...] = field(init=False)
    preliminary_moves: tuple[Track, ...] = field(init=False)
    total_seek: int = field(init=False)

    def __post_init__(self):
        service = self.stops
        for i in reversed(self.idle):
            service = service[:i] + service[i + 1 :]
        object.__setattr__(self, "service_order", service)
        object.__setattr__(self, "preliminary_moves", tuple(self.stops[i] for i in self.idle))
        object.__setattr__(self, "total_seek", sum(self._seeks()))

    def _seeks(self) -> Iterator[int]:
        return map(abs, map(operator.sub, self.stops, chain((self.start,), self.stops)))

    @cached_property
    def step_seeks(self) -> tuple[int, ...]:
        return tuple(self._seeks())

    def head_path(self) -> tuple[Track, ...]:
        """All head positions in order, starting at the initial position."""
        return (self.start,) + self.stops


@dataclass(frozen=True)
class Instance:
    """A validated (queue, head, geometry) triple."""

    queue: tuple[Track, ...]
    head: Track
    geometry: DiskGeometry

    @cached_property
    def tracks(self) -> tuple[Track, ...]:
        """The queue in ascending order, sorted once per instance. Every
        scheduler but FIFO depends only on this multiset."""
        return tuple(sorted(self.queue))


def validate_instance(
    queue: Sequence[Track],
    head: Track,
    geometry: DiskGeometry | None = None,
) -> Instance:
    """Check every request and the head against the geometry.

    Returns a frozen Instance; raises OutOfRangeError listing every offending
    track. Validating an already validated instance's parts yields an equal
    Instance, so validation is idempotent. An empty queue is legal.
    """
    q = tuple(queue)
    g = geometry if geometry is not None else DiskGeometry()
    if (q and not (g.contains(min(q)) and g.contains(max(q)))) or not g.contains(head):
        offending = [t for t in q if not g.contains(t)]
        if not g.contains(head):
            offending.append(head)
        raise OutOfRangeError(offending, g)
    return Instance(q, head, g)
