"""Seek statistics and the transfer-time model.

The transfer figure adds two rotational terms to the average seek:
``transfer = average_seek + 1/(2R) + B/(R*N)``. With the default constants
the additive term is 961/80640 ~= 0.0119172. The formula mixes units (tracks
plus seconds); reference reports do the same, so it is reproduced as-is
rather than converted.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal

from .model import Schedule, SchedulingError, TransferModel


class EmptyScheduleError(SchedulingError):
    """Average seek is undefined for zero requests."""


def average_seek(schedule: Schedule, count: int | None = None) -> float:
    """Total seek divided by the number of requests."""
    n = len(schedule.service_order) if count is None else count
    if n < 1:
        raise EmptyScheduleError("average seek undefined for an empty schedule")
    return schedule.total_seek / n


def rotational_overhead(model: TransferModel) -> float:
    """The constant 1/(2R) + B/(R*N) added to every average seek."""
    r = model.rotation_speed
    return 1.0 / (2.0 * r) + model.bytes_to_transfer / (r * model.bytes_per_track)


def transfer_time(avg_seek: float, model: TransferModel) -> float:
    if avg_seek < 0:
        raise SchedulingError(f"average seek must be non-negative, got {avg_seek}")
    return avg_seek + rotational_overhead(model)


@dataclass(frozen=True)
class MetricRow:
    """One comparison-table line. average_seek/transfer_time are None for an
    empty queue, where the average is undefined."""

    algorithm: str
    total_seek: int
    average_seek: float | None
    transfer_time: float | None
    service_order: tuple[int, ...]


def display(value: float | None, places: int = 5) -> str:
    """Table rendering of a metric: truncated toward zero at ``places``
    decimals, trailing zeros dropped.

    Truncation (not rounding) matches how the reference tables print the
    rotational overhead: 24.3869171... appears as 24.38691.
    """
    if value is None:
        return ""
    quantum = Decimal(1).scaleb(-places)
    text = str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_DOWN))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text
