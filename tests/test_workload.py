import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seeksim import workload
from seeksim.model import DiskGeometry, SchedulingError
from seeksim.workload import (
    ParseError,
    _parse_track,
    generate,
    parse_requests,
    reference_case,
    render_requests,
)


def test_case1_fixture():
    queue, head, geometry = reference_case(1)
    assert list(queue) == [25, 10, 151, 170, 62, 46, 74, 111]
    assert head == 45
    assert geometry == DiskGeometry(0, 180)


def test_case2_and_case3_heads():
    assert reference_case(2)[1] == 66
    assert reference_case(3)[1] == 125
    assert list(reference_case(3)[0]) == [25, 33, 54, 64, 40, 90, 110, 160]


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_unknown_case_rejected(bad):
    with pytest.raises(SchedulingError, match=r"^unknown case '-?\d'; choose 1, 2 or 3$"):
        reference_case(bad)


def test_unknown_case_error_is_short():
    with pytest.raises(SchedulingError, match="^unknown case ") as err:
        reference_case(int("7" * 4000))
    assert len(str(err.value)) < 100 and "4000 characters" in str(err.value)


def test_workload_spec_rejects_zero_count():
    with pytest.raises(ValueError):
        generate(count=0)


def test_workload_spec_rejects_seed_beyond_64_bits():
    with pytest.raises(ValueError):
        generate(count=3, seed=2**64)
    with pytest.raises(ValueError):
        generate(count=3, seed=-1)


def test_generate_accepts_its_smallest_count_and_seed():
    assert len(generate(1, seed=0)) == 1
    assert generate(8) == generate(8, seed=0)


def test_generate_is_deterministic_per_seed():
    queue = generate(count=8, seed=1234)
    assert generate(count=8, seed=1234) == queue
    assert generate(count=8, seed=1235) != queue


def test_generate_respects_geometry():
    queue = generate(count=200, geometry=DiskGeometry(10, 20), seed=7)
    assert len(queue) == 200
    assert all(10 <= t <= 20 for t in queue)


def test_parse_comma_separated():
    queue, head = parse_requests("25,10,151")
    assert list(queue) == [25, 10, 151]
    assert head is None


def test_parse_head_directive():
    queue, head = parse_requests("head 45\n25 10")
    assert head == 45
    assert list(queue) == [25, 10]


def test_parse_mixed_separators_comments_blanks():
    text = "# batch\nhead 66\n\n16, 75 24\n21\t30 # trailing\n"
    queue, head = parse_requests(text)
    assert head == 66
    assert list(queue) == [16, 75, 24, 21, 30]


def test_parse_rejects_non_integer_token():
    with pytest.raises(ParseError) as err:
        parse_requests("25,x")
    assert err.value.line == 1
    assert err.value.column == 4


@pytest.mark.parametrize("text,column", [("head d", 6), ("head head", 6), ("  head a", 8)])
def test_bad_head_value_column_points_at_the_value(text, column):
    with pytest.raises(ParseError) as err:
        parse_requests(text)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize(
    "text,converted",
    [
        # The comment is cut out before the one split, which converts the rest.
        ("head 5\n1 2\n3 # c\n", ["5", "1", "2", "3"]),
        # Without one the body is one split, and track 0 passes it.
        ("head 5\n0 1\n", ["5", "0", "1"]),
    ],
)
def test_parse_converts_each_token_once(monkeypatch, text, converted):
    calls = []
    monkeypatch.setattr(workload, "int", lambda s: calls.append(s) or int(s), raising=False)
    parse_requests(text)
    assert calls == converted


def test_queue_comes_only_from_the_split(monkeypatch):
    # Comments before, inside and after the body leave one path: only the
    # head value goes through _parse_track, and the split converts the rest.
    calls = []
    parse_track = workload._parse_track
    monkeypatch.setattr(workload, "_parse_track", lambda *a: calls.append(a) or parse_track(*a))
    assert parse_requests("# c\nhead 5\n1, 2 # x\n3\n") == ((1, 2, 3), 5)
    assert calls == [("5", 2, 6)]


def test_split_and_token_scan_agree_on_whitespace_and_line_ends():
    # The premise of parse_requests' one split: str.split() and the regex's
    # \s split at the same characters, and every str.splitlines boundary is
    # whitespace to both.
    every = "".join(map(chr, range(0x110000)))
    spaces = "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\s", every)) == spaces
    # Joined with "#", no two boundaries are adjacent ("\r\n" is one).
    lines = "#".join(every).splitlines(keepends=True)
    assert {line[-1] for line in lines[:-1]} <= set(spaces)


@pytest.mark.parametrize("text", ["#".join(map(chr, range(0x110000))), "a\r\nb\r\rc\n\r", ""])
def test_lazy_lines_split_like_splitlines(text):
    # parse_requests reads lines one at a time, at str.splitlines' boundaries.
    assert list(workload._lines(text)) == text.splitlines(keepends=True)


def test_parse_rejects_fractional_track():
    with pytest.raises(ParseError):
        parse_requests("4.5")


def test_parse_rejects_negative_track():
    with pytest.raises(ParseError, match="track must be non-negative, got '-3'$") as err:
        parse_requests("10\n-3")
    assert err.value.line == 2


def test_parse_rejects_late_head_directive():
    with pytest.raises(ParseError):
        parse_requests("10\nhead 45")


def test_parse_rejects_duplicate_head():
    with pytest.raises(ParseError):
        parse_requests("head 45\nhead 46")


def test_parse_rejects_malformed_head():
    with pytest.raises(ParseError):
        parse_requests("head")
    with pytest.raises(ParseError):
        parse_requests("head 4 5")


@pytest.mark.parametrize("text", ["head,5 6\n1\n", "head,5 6", "head;5 6\n"])
def test_head_keyword_glued_to_a_value_is_a_bad_token(text):
    # Once read as "head 6", dropping the 5 without an error.
    with pytest.raises(ParseError, match="expected an integer track, got 'head") as err:
        parse_requests(text)
    assert (err.value.line, err.value.column) == (1, 1)


def test_render_round_trip_with_head():
    queue, head, _ = reference_case(1)
    text = render_requests(queue, head)
    parsed_queue, parsed_head = parse_requests(text)
    assert parsed_queue == queue
    assert parsed_head == head


@pytest.mark.parametrize(
    "queue, head, shown", [((3, -1, 5), 2, "'-1'"), ((3, 5), -4, "'-4'"), ((-2,), None, "'-2'")]
)
def test_render_refuses_a_negative_track(queue, head, shown):
    with pytest.raises(SchedulingError, match=f"no negative track, got {shown}$"):
        render_requests(queue, head)


def test_render_accepts_track_and_head_0():
    assert parse_requests(render_requests((0, 3), 0)) == ((0, 3), 0)


def test_render_empty_queue():
    queue, head = parse_requests(render_requests(*parse_requests("")))
    assert len(queue) == 0 and head is None


@given(
    st.lists(st.integers(0, 180), max_size=20),
    st.one_of(st.none(), st.integers(0, 180)),
)
def test_parse_render_round_trip(tracks, head_pos):
    queue = tuple(tracks)
    parsed_queue, parsed_head = parse_requests(render_requests(queue, head_pos))
    assert parsed_queue == queue
    assert parsed_head == head_pos


def _reference_parse_requests(text):
    """The token-by-token regex parser that parse_requests replaced with a
    bulk split per line; the reference for its values and its errors."""
    tracks = []
    head = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if re.match(r"^head(\s|$)", line.strip()):
            if head is not None:
                raise ParseError("duplicate head directive", lineno, 1)
            if tracks:
                raise ParseError("head directive must precede all requests", lineno, 1)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'head <int>'", lineno, 1)
            head = _parse_track(parts[1], lineno, line.rindex(parts[1]) + 1)
            continue
        for match in re.finditer(r"[^,\s]+", line):
            tracks.append(_parse_track(match.group(), lineno, match.start() + 1))
    return tuple(tracks), head


_TOKENS = st.one_of(
    st.integers(-50, 10**6).map(str),
    st.sampled_from(
        ["-0", "+7", "1_000", "1__0", "_1", "007", "4.5", "x", "12a", "-", "\u0663", "7" * 30]
    ),
)
_SEPARATORS = st.sampled_from(
    [",", " ", ", ", ",,", "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x1c", "\u200b"]
)
_DIRECTIVES = st.sampled_from(
    [
        "head 5", "  head\t7", "head -1", "head x", "head", "head 5 6", "header 3", "head,5",
        "head d", "head head", "head,5 6",
    ]
)


@st.composite
def _request_lines(draw):
    tokens = draw(st.lists(_TOKENS, max_size=6))
    line = draw(_SEPARATORS) if draw(st.booleans()) else ""
    for token in tokens:
        line += token + draw(_SEPARATORS)
    if draw(st.booleans()):
        line += "# " + draw(st.sampled_from(["junk, -1", "head 9", "x"]))
    return line


_REQUEST_TEXT = st.lists(st.one_of(_request_lines(), _DIRECTIVES), max_size=6).flatmap(
    lambda lines: st.sampled_from(["\n", "\r\n", "\u2028"]).map(lambda eol: eol.join(lines))
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.line, exc.column, str(exc)


# The benchmark's request-file layout: a comment line, a head line, then ten
# comma-separated tracks per line.
_BULK_LINES = [", ".join(str(7 * i + j) for j in range(10)) for i in range(0, 40, 10)]
_BULK_TEXT = "# 40 seeded uniform requests\nhead 90\n" + "\n".join(_BULK_LINES) + "\n"


@settings(max_examples=400)
@given(_REQUEST_TEXT)
@example(_BULK_TEXT)
@example(_BULK_TEXT.replace("\n", "\r\n"))
@example(_BULK_TEXT + "# trailing comment\n")
@example("head 5\n1, 2\n3 # first comment after the body starts\n4\n")
@example("1, 2\nhead 5\n3\n")
@example("head 5\n1, 2\nhead 6\n")
@example("# c\nhead 5\n1, 2\n3, 4\n5, -6, 7\n")
@example("# c\nhead 5\n1, 2\n3, 4\n5, x7, 7\n")
@example("# c\nhead 5\n1, 2\n3, 4\n5, " + "7" * 5000 + "\n")
@example("# c\nhead 5\n, ,\n,\n \t\n")
@example(",\n1\n")
@example(",\nhead 5\n1\n")
@example("head 5\n1 # c\n2, x\n")
@example("1 # c\nhead 5\n")
@example("# c\x0chead 5\x1e1, 2\r3\x854\u2029x5\x1d6\n")
@example("# c\rhead 5\x0b\x1c1\u20282\r\nhead 6\n")
def test_parse_matches_regex_reference(text):
    assert _outcome(parse_requests, text) == _outcome(_reference_parse_requests, text)
