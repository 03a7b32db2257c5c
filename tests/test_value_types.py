"""The contract of the six value types: field order in repr, equality and
hashing by field, immutability, constructor checks and the values derived
on first read.

The pinned reprs are the ones the frozen-dataclass versions of these types
printed, so any code that logs or compares them sees the same text.
"""

import copy
import inspect
import itertools
import pickle
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seeksim import model
from seeksim.model import (
    DiskGeometry,
    Instance,
    OutOfRangeError,
    Schedule,
    SchedulingError,
    TransferModel,
    average_seek,
    validate_instance,
)
from seeksim.report import CampaignSummary, ComparisonReport, emit, run_comparison
from seeksim.schedulers import (
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
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
        (lambda: Instance((5, 2.5), 4, DiskGeometry()), SchedulingError,
         "expected an integer track, got '2.5'"),
        (lambda: Instance((181,), 45, DiskGeometry()), OutOfRangeError,
         "track(s) '181' outside geometry ['0', '180']"),
        (lambda: DiskGeometry("a", "b"), SchedulingError,
         "expected an integer track, got \"'a'\""),
        (lambda: DiskGeometry(0, None), SchedulingError, "expected an integer track, got 'None'"),
        (lambda: DiskGeometry(0, float("inf")), SchedulingError,
         "expected an integer track, got 'inf'"),
        (lambda: Schedule("X", 0, (10, 20, 2.5)), SchedulingError,
         "expected an integer track, got '2.5'"),
        # Idle indices must rise strictly within the stops: out of order,
        # repeated, negative or past the last stop, they are refused.
        (lambda: Schedule("X", 0, (10, 20, 30, 40), (2, 0)), SchedulingError,
         "idle indices '(2, 0)' must rise strictly in [0, 4)"),
        (lambda: Schedule("X", 0, (10, 20, 30, 40), (1, 1)), SchedulingError,
         "idle indices '(1, 1)' must rise strictly in [0, 4)"),
        (lambda: Schedule("X", 0, (10, 20, 30, 40), (-1,)), SchedulingError,
         "idle indices '(-1,)' must rise strictly in [0, 4)"),
        (lambda: Schedule("X", 0, (10, 20, 30, 40), (5,)), SchedulingError,
         "idle indices '(5,)' must rise strictly in [0, 4)"),
        (lambda: Schedule("X", 0, (10, 20), (1.0,)), SchedulingError,
         "idle indices '(1.0,)' must rise strictly in [0, 2)"),
    ],
)
def test_constructor_errors_keep_class_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_stops_built_fields_take_one_pass_over_the_stops():
    # Every other one of 2 * 10^5 stops is idle. Cutting the idle stops out
    # one at a time would copy the service order 10^5 times: minutes, where
    # one pass takes milliseconds.
    s = Schedule("X", 0, (0, 1) * 10**5, range(1, 2 * 10**5, 2))
    assert s.service_order == (0,) * 10**5 and s.preliminary_moves == (1,) * 10**5
    assert s.total_seek == 2 * 10**5 - 1 and average_seek(s) == s.total_seek / 10**5


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
    schedule = schedule_scan(validate_instance((25, 10, 151), 45, DiskGeometry()))
    total = schedule.total_seek  # derived on its own first read, before the patch
    calls = []
    seeks = Schedule._seeks
    monkeypatch.setattr(Schedule, "_seeks", staticmethod(lambda *a: calls.append(1) or seeks(*a)))
    first = schedule.step_seeks
    assert first == (20, 15, 10, 151) and sum(first) == total == schedule.total_seek
    assert schedule.step_seeks is first and len(calls) == 1


DERIVED = ("service_order", "preliminary_moves", "total_seek", "step_seeks")


# What ``Schedule(...)`` stores before any read: its legs over its serviced
# tracks. A scheduler's schedule stores ``_sorted`` too: whether they ascend.
STORED = {"algorithm", "start", "_tracks", "_legs"}


def _assert_legs_well_formed(schedule):
    """Each leg's ends lie inside the sequence it walks, and a leg over any
    sequence but the serviced tracks is one idle stop."""
    for seq, i, j in schedule._legs:
        assert 0 <= i < len(seq) and 0 <= j < len(seq)
        assert seq is schedule._tracks or len(seq) == 1


@st.composite
def _schedules(draw):
    """(start, stops, idle, the fields derived from legs in a drawn read order)."""
    tracks = st.integers(-10**6, 10**6)
    stops = tuple(draw(st.lists(tracks, max_size=12)))
    idle = tuple(sorted(draw(st.sets(st.integers(0, len(stops) - 1)) if stops else st.just(()))))
    return draw(tracks), stops, idle, draw(st.permutations(("stops", "idle", *DERIVED)))


@given(_schedules())
@example((45, (25, 10, 0, 151), (2,), ("stops", "idle", *DERIVED)))
@example((45, (25, 10, 151), (), DERIVED[::-1]))
@example((45, (25, 25, 25), (0, 2), ("idle", *DERIVED)))
@example((5, (), (), DERIVED))
def test_derived_fields_match_the_eager_formulas(drawn):
    start, stops, idle, order = drawn
    schedule = Schedule("SCAN", start, stops, idle)
    assert set(schedule.__dict__) == STORED
    _assert_legs_well_formed(schedule)
    path = (start, *stops)
    expected = {
        "stops": stops,
        "idle": idle,
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


SCHEDULERS = (schedule_fifo, schedule_sstf, schedule_scan, schedule_cscan, schedule_look,
              schedule_odsa, brute_force_optimal)
# Duplicates, a request under the head, idle stops at both disk ends for C-SCAN.
SCHEDULED = validate_instance((25, 10, 151, 170, 62, 46, 74, 111, 45, 46), 45)


def _twin(schedule):
    """The schedule built from ``schedule``'s stops and idle indices."""
    return Schedule(schedule.algorithm, schedule.start, schedule.stops, schedule.idle)


@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda f: f.__name__)
def test_scheduler_output_is_its_stops_built_twin(scheduler):
    twin = _twin(scheduler(SCHEDULED))
    for schedule in (scheduler(SCHEDULED), _twin(scheduler(SCHEDULED))):
        assert schedule == twin and twin == schedule and not schedule != twin
        assert hash(schedule) == hash(twin) and len({schedule, twin}) == 1
        assert repr(schedule) == repr(twin)


@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda f: f.__name__)
def test_scheduler_output_survives_pickle_and_copy(scheduler):
    twin = _twin(scheduler(SCHEDULED))
    for make, read in itertools.product((scheduler, lambda inst: _twin(scheduler(inst))),
                                        (None, repr, lambda s: s.stops)):
        # Unread, a schedule carries only its legs; read, its derived fields
        # as well, or its stops alone beside the legs. Legs over its tracks
        # are told from idle stops by identity: a clone that lost it would
        # service them.
        made = [make(SCHEDULED) for _ in range(3)]
        if read:
            for schedule in made:
                read(schedule)
        a, b, c = made
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(b), copy.deepcopy(c)):
            assert clone == twin and hash(clone) == hash(twin) and repr(clone) == repr(twin)
            assert clone.step_seeks == twin.step_seeks
            assert clone.head_path() == twin.head_path()


@st.composite
def _scheduled(draw):
    """(scheduler, instance, the fields derived from legs in a drawn read
    order) on any geometry, the head inside it."""
    low = draw(st.integers(-50, 50))
    geometry = DiskGeometry(low, draw(st.integers(low + 1, low + 60)))
    inside = st.integers(geometry.min_track, geometry.max_track)
    instance = validate_instance(draw(st.lists(inside, max_size=10)), draw(inside), geometry)
    order = draw(st.permutations(("stops", "idle", *DERIVED, "head_path")))
    return draw(st.sampled_from(SCHEDULERS)), instance, order


@given(_scheduled())
@example((schedule_cscan, validate_instance((25, 10, 151), 45), ("head_path",) + DERIVED))
@example((schedule_scan, validate_instance((), 45), ("total_seek", "stops")))
@example((schedule_fifo, validate_instance((25, 10, 151), 45), ("total_seek", "stops")))
def test_legs_built_fields_match_the_eager_formulas(drawn):
    scheduler, instance, order = drawn
    stops, idle = scheduler(instance).stops, scheduler(instance).idle
    path = (instance.head, *stops)
    expected = {
        "stops": stops,
        "idle": idle,
        "service_order": tuple(t for i, t in enumerate(stops) if i not in idle),
        "preliminary_moves": tuple(stops[i] for i in idle),
        "total_seek": sum(abs(b - a) for a, b in zip(path, path[1:])),
        "step_seeks": tuple(abs(b - a) for a, b in zip(path, path[1:])),
        "head_path": path,
    }
    schedule = scheduler(instance)
    assert set(schedule.__dict__) == STORED | {"_sorted"}
    assert schedule._sorted is (scheduler is not schedule_fifo)
    _assert_legs_well_formed(schedule)
    for name in order:
        if name == "head_path":
            assert schedule.head_path() == path
            continue
        value = getattr(schedule, name)
        assert value == expected[name]
        assert schedule.__dict__[name] is value and getattr(schedule, name) is value
    if instance.queue:
        assert average_seek(scheduler(instance)) == expected["total_seek"] / len(instance.queue)
    assert schedule == Schedule(schedule.algorithm, instance.head, stops, idle)


def test_head_paths_leave_the_derived_fields_unread():
    report = run_comparison(validate_instance((25, 10, 151, 170, 62), 45))
    for format in ("csv", "json"):
        emit(report.rows, format)
    assert len(report.rows) == 6
    for row in report.rows:
        assert not {"total_seek", "service_order", "preliminary_moves"} & row.__dict__.keys()
        # A path is made from the legs, and its stops are not kept.
        assert not {"stops", "idle"} & row.__dict__.keys()


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


class _Index:
    """A non-int type that an int can be taken from, through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


_INT_LIKES = st.one_of(
    st.integers(-300, 10**6), st.booleans(), st.integers(-999, 999).map(_Track),
    st.integers(-999, 999).map(_Index),
)
# The last: a type whose __index__ returns a float, which operator.index refuses.
_NOT_INTS = st.one_of(st.floats(), st.text(max_size=30), st.none(), st.decimals(),
                      st.floats().map(_Index))


@given(
    st.lists(_INT_LIKES, max_size=12), _INT_LIKES,
    # A value no Instance takes, and where it goes: the head at -1, else at
    # that index of the queue (or its end).
    st.none() | st.tuples(_NOT_INTS, st.integers(-1, 12)),
)
@example([True, _Track(300), 300, 1, False, _Track(1), _Index(7)], True, None)
@example([1, 2], 0, (1.0, 1))
@example([1, 2], 0, (Decimal(1), -1))
@example([], 0, (None, -1))
@example([1, 3], 5, (_Index(1.5), 1))
def test_instances_hold_exact_int_tracks_and_refuse_anything_else(queue, head, bad):
    geometry = DiskGeometry(-1000, 10**6)
    if bad is not None:
        value, at = bad
        if at < 0:
            head = value
        else:
            queue = queue[:at] + [value] + queue[at:]
    # Each maker, and the tracks it holds of those it was given: an
    # instance's queue and head, a schedule's stops and start, and a
    # geometry's lower bound, which is the refused value when there is one.
    low = head if bad is None else value
    makes = (
        (lambda: validate_instance(queue, head, geometry), lambda i: (*i.queue, i.head)),
        (lambda: Instance(iter(queue), head, geometry), lambda i: (*i.queue, i.head)),
        (lambda: Schedule("X", head, iter(queue)), lambda s: (*s.stops, s.start)),
    )
    for make, held in (*makes, (lambda: DiskGeometry(low, 2 * 10**6), lambda g: (g.min_track,))):
        if bad is not None:
            with pytest.raises(SchedulingError) as info:
                make()
            assert str(info.value) == f"expected an integer track, got {model._echo(repr(value))}"
            continue
        made = make()
        given = (low,) if isinstance(made, DiskGeometry) else (*queue, head)
        for got, want in zip(held(made), given, strict=True):
            assert type(got) is int and got == int(want)
        if isinstance(made, Instance):
            assert made.tracks == tuple(sorted(map(int, queue)))


@pytest.mark.parametrize("span, n, counted", [
    # Tracks 3 to 11 lie _COUNT_SORT_MIN_SPAN apart; a dense queue on them is
    # counting-sorted from _COUNT_SORT_MIN_REQUESTS requests on.
    (9, model._COUNT_SORT_MIN_REQUESTS, True),
    (9, model._COUNT_SORT_MIN_REQUESTS - 1, False),
    # 300 tracks, counting-sorted from _COUNT_SORT_PER_TRACK requests per
    # track on (both counts above _COUNT_SORT_MIN_REQUESTS).
    (300, 300 * model._COUNT_SORT_PER_TRACK, True),
    (300, 300 * model._COUNT_SORT_PER_TRACK - 1, False),
    # Tracks 3 to 10 lie 7 apart, fewer than _COUNT_SORT_MIN_SPAN.
    (8, 2 * model._COUNT_SORT_MIN_REQUESTS, False),
])
def test_tracks_sort_the_queue_on_either_side_of_the_counting_sort_thresholds(
    monkeypatch, span, n, counted
):
    # Tracks 3 to 2 + span, each drawn in turn (7 is prime to every span).
    queue = [3 + i * 7 % span for i in range(n)][::-1]
    assert set(queue) == set(range(3, 3 + span))
    calls = []
    monkeypatch.setattr(model, "Counter", lambda q: calls.append(q) or Counter(q))
    assert validate_instance(queue, 0, DiskGeometry(0, 400)).tracks == tuple(sorted(queue))
    assert bool(calls) == counted


@given(st.integers(-3, 3), st.integers(0, 12).flatmap(
    lambda span: st.lists(st.integers(0, span), max_size=80)))
@example(0, [])
def test_tracks_are_the_sorted_queue(low, queue):
    queue = [low + t for t in queue]
    assert validate_instance(queue, low, DiskGeometry(-3, 20)).tracks == tuple(sorted(queue))
