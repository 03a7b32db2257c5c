"""Seek statistics and the transfer-time model.

The transfer figure adds two rotational terms to the average seek:
``transfer = average_seek + 1/(2R) + B/(R*N)``. With the default constants
the additive term is 961/80640 ~= 0.0119172. The formula mixes units (tracks
plus seconds); reference reports do the same, so it is reproduced as-is
rather than converted.
"""

from __future__ import annotations

import math

from .model import Schedule, SchedulingError, TransferModel, rotational_overhead


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
    if avg_seek < 0:
        raise SchedulingError(f"average seek must be non-negative, got {avg_seek}")
    total = avg_seek + rotational_overhead(model)
    if total == math.inf:
        raise SchedulingError("transfer time overflows a float")
    return total


_PLACES = 5


def display(value: float | None) -> str:
    """Table rendering of a metric: truncated toward zero at ``_PLACES``
    decimals, trailing zeros dropped.

    Truncation (not rounding) matches how the reference tables print the
    rotational overhead: 24.3869171... appears as 24.38691.
    """
    if value is None:
        return ""
    from decimal import ROUND_DOWN, Context, Decimal  # slow to import; only tables need it
    exact = Decimal(repr(value))
    # Enough significant digits for every integer digit of a large value.
    context = Context(prec=max(exact.adjusted(), 0) + 1 + _PLACES)
    text = str(exact.quantize(Decimal(1).scaleb(-_PLACES), ROUND_DOWN, context))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text
