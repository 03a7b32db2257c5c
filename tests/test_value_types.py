"""The contract of the six value types: field order in repr, equality and
hashing by field, immutability, constructor checks and the values derived
on first read.

The pinned reprs are the ones the frozen-dataclass versions of these types
printed, so any code that logs or compares them sees the same text.
"""

import copy
import inspect
import pickle
import platform

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seeksim import model
from seeksim.model import (
    DiskGeometry,
    Instance,
    Schedule,
    SchedulingError,
    TransferModel,
    validate_instance,
)
from seeksim.report import CampaignSummary, ComparisonReport, emit, run_comparison
from seeksim.schedulers import schedule_scan
from seeksim.workload import generate

CASE_INSTANCE = Instance((25, 10, 151), 45, DiskGeometry())
ROW = Schedule("ODSA", 45, (25, 10, 151))

# (type, constructor args, a field, another value for it, pinned repr)
CASES = [
    (DiskGeometry, (0, 199), "max_track", 200, "DiskGeometry(min_track=0, max_track=199)"),
    (
        TransferModel, (4096, 8192, 90.5), "rotation_speed", 91.0,
        "TransferModel(bytes_to_transfer=4096, bytes_per_track=8192, rotation_speed=90.5)",
    ),
    (
        Schedule, ("SCAN", 45, (25, 10, 0, 151), (2,)), "start", 46,
        "Schedule(algorithm='SCAN', start=45, stops=(25, 10, 0, 151), idle=(2,), "
        "service_order=(25, 10, 151), preliminary_moves=(0,), total_seek=196)",
    ),
    (
        Instance, ((25, 10, 151), 45, DiskGeometry()), "head", 44,
        "Instance(queue=(25, 10, 151), head=45, "
        "geometry=DiskGeometry(min_track=0, max_track=180))",
    ),
    (
        ComparisonReport, (CASE_INSTANCE, TransferModel(), (ROW,), 1), "case_id", None,
        "ComparisonReport(instance=Instance(queue=(25, 10, 151), head=45, "
        "geometry=DiskGeometry(min_track=0, max_track=180)), "
        "model=TransferModel(bytes_to_transfer=30000, bytes_per_track=32256, "
        "rotation_speed=120.0), rows=(Schedule(algorithm='ODSA', start=45, "
        "stops=(25, 10, 151), idle=(), service_order=(25, 10, 151), preliminary_moves=(), "
        "total_seek=176),), case_id=1)",
    ),
    (
        CampaignSummary,
        (10, 3, 8, 9, 1, {"dominance:SSTF": 1}, {"queue": [1, 2], "head": 0, "checks": ["x"]}),
        "passes", 8,
        "CampaignSummary(trials=10, seed=3, max_n=8, passes=9, failures=1, "
        "check_failures={'dominance:SSTF': 1}, "
        "first_counterexample={'queue': [1, 2], 'head': 0, 'checks': ['x']})",
    ),
]
IDS = [case[0].__name__ for case in CASES]


# The fields of each type, in repr order; Schedule's last three are derived.
FIELDS = {
    DiskGeometry: ("min_track", "max_track"),
    TransferModel: ("bytes_to_transfer", "bytes_per_track", "rotation_speed"),
    Schedule: (
        "algorithm", "start", "stops", "idle", "service_order", "preliminary_moves", "total_seek",
    ),
    Instance: ("queue", "head", "geometry"),
    ComparisonReport: ("instance", "model", "rows", "case_id"),
    CampaignSummary: (
        "trials", "seed", "max_n", "passes", "failures", "check_failures", "first_counterexample",
    ),
}


def _with(cls, args, field, value):
    """``cls(*args)`` with the constructor argument named ``field`` replaced."""
    names = inspect.signature(cls).parameters
    return cls(*(value if name == field else arg for name, arg in zip(names, args)))


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_repr_is_pinned(cls, args, field, other, text):
    obj = cls(*args)
    assert repr(obj) == text
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in FIELDS[cls])
    assert text == f"{cls.__name__}({shown})"


def test_defaults_print_like_before():
    assert repr(CampaignSummary(1, 0, 8, 1, 0)) == (
        "CampaignSummary(trials=1, seed=0, max_n=8, passes=1, failures=0, "
        "check_failures={}, first_counterexample=None)"
    )
    assert repr(Schedule("ODSA", 5, ())) == (
        "Schedule(algorithm='ODSA', start=5, stops=(), idle=(), service_order=(), "
        "preliminary_moves=(), total_seek=0)"
    )


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, args, field, other, text):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a == b and not a != b
    if cls is CampaignSummary:
        # It holds dicts, so like the dataclass it was it cannot be hashed.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_a_differing_field_compares_unequal(cls, args, field, other, text):
    a, b = cls(*args), _with(cls, args, field, other)
    assert getattr(b, field) == other
    assert a != b and not a == b


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_other_types_with_equal_fields_compare_unequal(cls, args, field, other, text):
    a = cls(*args)
    twin = type("Twin", (cls,), {})(*args)
    assert repr(twin).startswith("Twin(") and repr(twin)[4:] == repr(a)[len(cls.__name__):]
    assert a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in FIELDS[cls])
    others = [c(*a_) for c, a_, *_ in CASES if c is not cls]
    assert all(a != o for o in others)


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, field, other, text):
    obj = cls(*args)
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, other)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize("cls,args,field,other,text", CASES, ids=IDS)
def test_values_survive_pickle_and_copy(cls, args, field, other, text):
    obj = cls(*args)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert clone == obj and repr(clone) == text


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: DiskGeometry(5, 5), SchedulingError,
         "min_track ('5') must be < max_track ('5')"),
        (lambda: DiskGeometry(max_track=-1), SchedulingError,
         "min_track ('0') must be < max_track ('-1')"),
        (lambda: TransferModel(bytes_to_transfer=0), SchedulingError,
         "bytes_to_transfer must be finite and positive, got 0"),
        (lambda: TransferModel(rotation_speed=float("nan")), SchedulingError,
         "rotation_speed must be finite and positive, got nan"),
        (lambda: TransferModel(rotation_speed=1e-320), SchedulingError,
         "rotational overhead 1/(2R) + B/(R*N) overflows a float"),
        (lambda: generate(0), SchedulingError, "count must be >= 1, got 0"),
        (lambda: generate(1, seed=-1), SchedulingError, "seed must fit in 64 unsigned bits"),
        (lambda: generate(1, seed=2**64), SchedulingError, "seed must fit in 64 unsigned bits"),
    ],
)
def test_constructor_errors_keep_class_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_keyword_construction_and_defaults():
    assert DiskGeometry(max_track=9) == DiskGeometry(0, 9)
    assert TransferModel(rotation_speed=60.0) == TransferModel(30000, 32256, 60.0)
    assert generate(count=4, seed=2) == generate(4, DiskGeometry(), 2)
    assert ComparisonReport(CASE_INSTANCE, TransferModel(), (ROW,)).case_id is None
    assert Schedule("FIFO", 1, (2,)).idle == ()


def test_campaign_summary_gets_a_new_dict_each_time():
    a, b = CampaignSummary(1, 0, 8, 1, 0), CampaignSummary(1, 0, 8, 1, 0)
    assert a.check_failures == {} and b.check_failures == {}
    assert a.check_failures is not b.check_failures
    a.check_failures["x"] = 1
    assert b.check_failures == {} and CampaignSummary(1, 0, 8, 1, 0).check_failures == {}


def test_step_seeks_is_computed_once(monkeypatch):
    schedule = schedule_scan((25, 10, 151), 45, DiskGeometry())
    total = schedule.total_seek  # derived on its own first read, before the patch
    calls = []
    seeks = Schedule._seeks
    monkeypatch.setattr(Schedule, "_seeks", staticmethod(lambda *a: calls.append(1) or seeks(*a)))
    first = schedule.step_seeks
    assert first == (20, 15, 10, 151) and sum(first) == total == schedule.total_seek
    assert schedule.step_seeks is first and len(calls) == 1


DERIVED = ("service_order", "preliminary_moves", "total_seek", "step_seeks")


@st.composite
def _schedules(draw):
    """(start, stops, idle, the derived fields in a drawn read order)."""
    tracks = st.integers(-10**6, 10**6)
    stops = tuple(draw(st.lists(tracks, max_size=12)))
    idle = tuple(sorted(draw(st.sets(st.integers(0, len(stops) - 1)) if stops else st.just(()))))
    return draw(tracks), stops, idle, draw(st.permutations(DERIVED))


@given(_schedules())
@example((45, (25, 10, 0, 151), (2,), DERIVED))
@example((45, (25, 10, 151), (), DERIVED[::-1]))
@example((5, (), (), DERIVED))
def test_derived_fields_match_the_eager_formulas(drawn):
    start, stops, idle, order = drawn
    schedule = Schedule("SCAN", start, stops, idle)
    assert set(schedule.__dict__) == {"algorithm", "start", "stops", "idle"}
    path = (start, *stops)
    expected = {
        "service_order": tuple(t for i, t in enumerate(stops) if i not in idle),
        "preliminary_moves": tuple(stops[i] for i in idle),
        "total_seek": sum(abs(b - a) for a, b in zip(path, path[1:])),
        "step_seeks": tuple(abs(b - a) for a, b in zip(path, path[1:])),
    }
    for name in order:
        value = getattr(schedule, name)
        assert value == expected[name]
        assert schedule.__dict__[name] is value and getattr(schedule, name) is value
    assert schedule == Schedule("SCAN", start, stops, idle)


def test_head_paths_leave_the_derived_fields_unread():
    report = run_comparison(validate_instance((25, 10, 151, 170, 62), 45))
    for format in ("csv", "json"):
        emit(report.rows, format)
    assert len(report.rows) == 6
    for row in report.rows:
        assert not {"total_seek", "service_order", "preliminary_moves"} & row.__dict__.keys()


def test_tracks_are_sorted_once(monkeypatch):
    instance = validate_instance((25, 10, 151, 10), 45)
    calls = []
    monkeypatch.setattr(model, "sorted", lambda q: calls.append(1) or sorted(q), raising=False)
    first = instance.tracks
    assert first == (10, 10, 25, 151)
    assert instance.tracks is first and len(calls) == 1
    # The cached value is not a field: equality and repr ignore it.
    assert instance == validate_instance((25, 10, 151, 10), 45)
    assert "tracks" not in repr(instance)


class _Track(int):
    """An int subclass, as a library caller might pass."""


@given(st.lists(st.one_of(
    st.integers(-300, 10**6), st.booleans(), st.floats(-1e3, 1e6), st.integers(0, 999).map(_Track),
)))
@example([True, 1.5, _Track(300), 300, 1, 0.0, False, _Track(1)])
def test_tracks_sort_the_queue_and_keep_each_type(queue):
    tracks = Instance(tuple(queue), 0, DiskGeometry()).tracks
    ordered = sorted(queue)
    assert tracks == tuple(ordered)
    # The sort is stable, so tracks[i] came from ordered[i]. Only exact ints
    # are copied: a bool, float or int subclass is the caller's own object.
    for t, source in zip(tracks, ordered):
        assert type(t) is type(source)
        assert t is source or type(t) is int


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="object identity of ints")
def test_tracks_are_fresh_copies_of_the_queue_ints():
    # CPython caches the ints up to 256, so only the larger ones can be
    # fresh copies; a tracks that returned the queue's own objects fails.
    queue = generate(500, DiskGeometry(0, 10**6), seed=7)
    ids = set(map(id, queue))
    large = [t for t in validate_instance(queue, 0, DiskGeometry(0, 10**6)).tracks if t > 256]
    assert len(large) > 400
    assert not any(id(t) in ids for t in large)
