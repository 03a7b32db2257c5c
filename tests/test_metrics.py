import math
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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


def _quantized_display(value):
    """``display`` as a Decimal quantize: toward zero at 5 places, in a
    context with a digit for every integer digit of the value."""
    exact = Decimal(repr(value))
    context = Context(prec=max(exact.adjusted(), 0) + 1 + 5)
    text = str(exact.quantize(Decimal(1).scaleb(-5), ROUND_DOWN, context))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


# Every finite float: subnormals, reprs with exponents and values near the
# float maximum, plus the metric range the tables print.
@settings(max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(1e-05)
@example(-1e-10)
@example(-0.0)
@example(1.2345678901234569e23)
@example(99999.999999)
@example(48.011917162698413)
def test_display_matches_a_quantize_toward_zero(value):
    assert display(value) == _quantized_display(value)


def test_display_names_non_finite_values():
    assert display(math.inf) == "Infinity"
    assert display(-math.inf) == "-Infinity"
    assert display(math.nan) == "NaN"


@given(st.floats(min_value=0, max_value=1000, allow_nan=False))
def test_transfer_offset_is_constant(avg):
    assert transfer_time(avg, MODEL) - avg == pytest.approx(float(OVERHEAD), rel=1e-9)


@given(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0.001, max_value=1000, allow_nan=False),
)
def test_transfer_time_monotone_in_average(avg, bump):
    assert transfer_time(avg + bump, MODEL) > transfer_time(avg, MODEL)
