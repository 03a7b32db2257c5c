import pytest

from seeksim.model import (
    DiskGeometry,
    OutOfRangeError,
    Schedule,
    SchedulingError,
    TransferModel,
    _echo,
    validate_instance,
)

CASE1_QUEUE = [25, 10, 151, 170, 62, 46, 74, 111]


def test_default_geometry_bounds():
    g = DiskGeometry()
    assert (g.min_track, g.max_track) == (0, 180)
    assert g.contains(0) and g.contains(180) and not g.contains(181)


@pytest.mark.parametrize("lo,hi", [(5, 5), (10, 3)])
def test_geometry_rejects_empty_range(lo, hi):
    with pytest.raises(SchedulingError, match=r"^min_track \('\d+'\) must be < max_track"):
        DiskGeometry(lo, hi)


def test_transfer_model_defaults():
    m = TransferModel()
    assert (m.bytes_to_transfer, m.bytes_per_track, m.rotation_speed) == (30000, 32256, 120.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bytes_to_transfer": 0},
        {"bytes_per_track": -1},
        {"rotation_speed": 0},
        {"rotation_speed": float("nan")},
        {"rotation_speed": float("inf")},
        {"rotation_speed": 1e-320},
        {"bytes_to_transfer": 10**400},
        {"bytes_per_track": 10**400},
    ],
)
def test_transfer_model_rejects_nonpositive(kwargs):
    with pytest.raises(SchedulingError, match="must be finite and positive|overhead .* overflows"):
        TransferModel(**kwargs)


def test_validate_case1_instance():
    inst = validate_instance(CASE1_QUEUE, 45)
    assert list(inst.queue) == CASE1_QUEUE
    assert inst.head == 45
    assert inst.geometry == DiskGeometry()


def test_validate_accepts_empty_queue():
    inst = validate_instance([], 45)
    assert len(inst.queue) == 0


def test_validate_rejects_track_past_bound_by_one():
    with pytest.raises(OutOfRangeError) as err:
        validate_instance([181], 45)
    assert err.value.offending == (181,)


def test_validate_reports_every_offender():
    with pytest.raises(OutOfRangeError) as err:
        validate_instance([181, 50, 999], 200)
    assert err.value.offending == (181, 999, 200)


@pytest.mark.parametrize("queue,offending", [([15, 9, 20], (9,)), ([15, 10, 21], (21,))])
def test_validate_checks_both_ends_of_the_queue(queue, offending):
    with pytest.raises(OutOfRangeError) as err:
        validate_instance(queue, 12, DiskGeometry(10, 20))
    assert err.value.offending == offending


@pytest.mark.parametrize(
    "count,names", [(3, "'181', '182', '183'"), (5, "'181', '182', '183' and 2 more")]
)
def test_out_of_range_message_names_the_first_three(count, names):
    with pytest.raises(OutOfRangeError) as err:
        validate_instance(range(181, 181 + count), 45)
    assert str(err.value) == f"track(s) {names} outside geometry ['0', '180']"


def test_echo_cuts_only_tokens_past_the_limit():
    assert _echo("7" * 20) == repr("7" * 20)
    assert _echo("7" * 21) == repr("7" * 20) + "... (21 characters)"


def test_validate_is_idempotent():
    inst = validate_instance(CASE1_QUEUE, 45)
    again = validate_instance(inst.queue, inst.head, inst.geometry)
    assert again == inst


def test_schedule_derives_fields_from_visits():
    s = Schedule("SCAN", 45, (50, 180, 20), idle=(1,))
    assert s.service_order == (50, 20)
    assert s.preliminary_moves == (180,)
    assert s.head_path() == (45, 50, 180, 20)
    assert s.step_seeks == (5, 130, 160)
    assert s.total_seek == 295


def test_schedule_empty():
    s = Schedule("FIFO", 45, ())
    assert s.total_seek == 0
    assert s.head_path() == (45,)


def test_value_types_are_immutable():
    g = DiskGeometry()
    with pytest.raises(AttributeError):
        g.min_track = 5
    s = Schedule("FIFO", 0, (3,))
    with pytest.raises(AttributeError):
        s.total_seek = 99
