from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seeksim.model import (
    Schedule,
    SchedulingError,
    TransferModel,
    average_seek,
    rotational_overhead,
    transfer_time,
)
from seeksim.report import display

MODEL = TransferModel()

# 1/(2*120) + 30000/(120*32256) reduced
OVERHEAD = Fraction(961, 80640)


def schedule_with_total(total, n=8):
    # one hop covering the whole distance, then n-1 zero-cost repeats
    return Schedule("X", 0, (total,) * n)


def test_average_seek_case1_odsa():
    assert average_seek(schedule_with_total(195)) == 24.375


def test_average_seek_case2_fifo():
    assert average_seek(schedule_with_total(311)) == 38.875


def test_average_seek_zero_distance():
    assert average_seek(schedule_with_total(0, n=1)) == 0


def test_average_seek_rejects_empty():
    with pytest.raises(SchedulingError, match="^average seek undefined for an empty schedule$"):
        average_seek(Schedule("X", 0, ()))


def test_rotational_overhead_default_constants():
    assert rotational_overhead(MODEL) == pytest.approx(float(OVERHEAD), rel=1e-15)


def test_transfer_time_case1_odsa():
    t = transfer_time(24.375, MODEL)
    assert t == pytest.approx(24.375 + float(OVERHEAD), rel=1e-15)
    assert display(t) == "24.38691"


def test_transfer_time_case2_odsa():
    assert display(transfer_time(18.75, MODEL)) == "18.76191"


def test_transfer_time_bare_overhead():
    # the raw constant truncates to 0.01191, same as every table row's tail
    assert display(transfer_time(0.0, MODEL)) == "0.01191"


def test_transfer_time_rejects_negative_average():
    with pytest.raises(ValueError):
        transfer_time(-1.0, MODEL)


def test_transfer_time_rejects_nan_average():
    with pytest.raises(SchedulingError, match="^average seek must be non-negative, got nan$"):
        transfer_time(float("nan"), MODEL)


def test_summarize_keeps_transfer_above_average():
    schedule = schedule_with_total(195)
    avg = average_seek(schedule)
    assert schedule.total_seek == 195
    assert avg == 24.375
    assert transfer_time(avg, MODEL) > avg


def test_display_truncates_not_rounds():
    assert display(48.011917162698413) == "48.01191"
    assert display(0.0119171626984127) == "0.01191"


def test_metrics_too_large_for_a_float_raise():
    with pytest.raises(SchedulingError, match="^average seek overflows a float$"):
        average_seek(schedule_with_total(2**1100, n=2))
    with pytest.raises(SchedulingError, match="^transfer time overflows a float$"):
        transfer_time(1.7976931348623157e308, TransferModel(rotation_speed=1e-300))


def test_display_prints_large_values_in_full():
    assert display(1e24) == "1" + "0" * 24
    assert display(1.2345678901234569e23) == "123456789012345690000000"


def test_display_strips_trailing_zeros():
    assert display(48.0) == "48"
    assert display(35.625) == "35.625"
    assert display(None) == ""


@given(st.floats(min_value=0, max_value=1000, allow_nan=False))
def test_transfer_offset_is_constant(avg):
    assert transfer_time(avg, MODEL) - avg == pytest.approx(float(OVERHEAD), rel=1e-9)


@given(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0.001, max_value=1000, allow_nan=False),
)
def test_transfer_time_monotone_in_average(avg, bump):
    assert transfer_time(avg + bump, MODEL) > transfer_time(avg, MODEL)
