"""Core value types shared by every module: geometry, requests, head, transfer
constants and schedules.

All types are frozen dataclasses holding tuples, so instances are immutable and
safe to share across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

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


class OutOfRangeError(SchedulingError):
    """One or more tracks fall outside the disk geometry."""

    def __init__(self, offending: Sequence[int], geometry: "DiskGeometry"):
        self.offending = tuple(offending)
        self.geometry = geometry
        tracks = ", ".join(str(t) for t in self.offending)
        super().__init__(
            f"track(s) {tracks} outside geometry "
            f"[{geometry.min_track}, {geometry.max_track}]"
        )


class InvalidModelError(SchedulingError):
    """Transfer-model constant is not strictly positive."""


@dataclass(frozen=True)
class DiskGeometry:
    """Inclusive track bounds of the modeled disk."""

    min_track: Track = DEFAULT_MIN_TRACK
    max_track: Track = DEFAULT_MAX_TRACK

    def __post_init__(self):
        if self.min_track >= self.max_track:
            raise EmptyGeometryError(
                f"min_track ({self.min_track}) must be < max_track ({self.max_track})"
            )

    @property
    def width(self) -> int:
        return self.max_track - self.min_track

    def contains(self, track: Track) -> bool:
        return self.min_track <= track <= self.max_track


@dataclass(frozen=True)
class RequestQueue:
    """Track requests in arrival order. Duplicates are allowed and order is
    significant (FIFO consumes it)."""

    requests: tuple[Track, ...]

    def __init__(self, requests: Iterable[Track] = ()):
        object.__setattr__(self, "requests", tuple(requests))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __getitem__(self, i):
        return self.requests[i]


@dataclass(frozen=True)
class HeadState:
    """Position of the disk head when scheduling starts."""

    position: Track


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
            if getattr(self, name) <= 0:
                raise InvalidModelError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class Visit:
    """One head stop: a track plus whether a request was serviced there.

    Unserviced visits are the preliminary moves (sweep end points, wrap
    landings) that cost seek distance without completing a request.
    """

    track: Track
    serviced: bool = True


@dataclass(frozen=True)
class Schedule:
    """Result of running one algorithm on one instance.

    ``visits`` is the full head itinerary after ``start``; everything else is
    derived from it. ``step_seeks`` has one entry per path segment, so
    ``sum(step_seeks) == total_seek`` and unserviced stops count too.
    """

    algorithm: str
    start: Track
    visits: tuple[Visit, ...]
    service_order: tuple[Track, ...] = field(init=False)
    preliminary_moves: tuple[Track, ...] = field(init=False)
    step_seeks: tuple[int, ...] = field(init=False)
    total_seek: int = field(init=False)

    def __post_init__(self):
        path = self.head_path()
        seeks = tuple(abs(b - a) for a, b in zip(path, path[1:]))
        object.__setattr__(
            self, "service_order", tuple(v.track for v in self.visits if v.serviced)
        )
        object.__setattr__(
            self, "preliminary_moves", tuple(v.track for v in self.visits if not v.serviced)
        )
        object.__setattr__(self, "step_seeks", seeks)
        object.__setattr__(self, "total_seek", sum(seeks))

    def head_path(self) -> tuple[Track, ...]:
        """All head positions in order, starting at the initial position."""
        return (self.start,) + tuple(v.track for v in self.visits)


@dataclass(frozen=True)
class SeekSummary:
    """Seek statistics for one schedule: total tracks moved, tracks per
    request, and the transfer-time figure."""

    total_seek: int
    average_seek: float
    transfer_time: float


@dataclass(frozen=True)
class Instance:
    """A validated (queue, head, geometry) triple."""

    queue: RequestQueue
    head: HeadState
    geometry: DiskGeometry


QueueLike = Union[RequestQueue, Sequence[Track]]
HeadLike = Union[HeadState, Track]


def as_queue(queue: QueueLike) -> RequestQueue:
    return queue if isinstance(queue, RequestQueue) else RequestQueue(queue)


def as_head(head: HeadLike) -> HeadState:
    return head if isinstance(head, HeadState) else HeadState(head)


def validate_instance(
    queue: QueueLike,
    head: HeadLike,
    geometry: DiskGeometry | None = None,
) -> Instance:
    """Check every request and the head against the geometry.

    Returns a frozen Instance; raises OutOfRangeError listing every offending
    track. Validating an already validated instance's parts yields an equal
    Instance, so validation is idempotent. An empty queue is legal.
    """
    q = as_queue(queue)
    h = as_head(head)
    g = geometry if geometry is not None else DiskGeometry()
    offending = [t for t in q if not g.contains(t)]
    if not g.contains(h.position):
        offending.append(h.position)
    if offending:
        raise OutOfRangeError(offending, g)
    return Instance(q, h, g)
