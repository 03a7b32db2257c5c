"""Benchmark-case fixtures, seeded workload generation, and the request file
format.

Request files are line-oriented UTF-8 text: non-negative integer tracks
separated by commas and/or whitespace, ``#`` comments and blank lines
ignored, with one optional leading directive line ``head <int>`` giving the
initial head position. Example::

    # morning batch
    head 45
    25, 10, 151
    170 62
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

from .model import DiskGeometry, SchedulingError, _echo


class ParseError(SchedulingError):
    """Malformed request file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


# The three published benchmark instances: (requests in arrival order, head).
BENCHMARK_CASES: dict[int, tuple[tuple[int, ...], int]] = {
    1: ((25, 10, 151, 170, 62, 46, 74, 111), 45),
    2: ((16, 75, 24, 21, 30, 80, 116, 63), 66),
    3: ((25, 33, 54, 64, 40, 90, 110, 160), 125),
}


def reference_case(case_id: int) -> tuple[tuple[int, ...], int, DiskGeometry]:
    """Return one of the three bundled benchmark instances."""
    try:
        tracks, head = BENCHMARK_CASES[case_id]
    except KeyError:
        raise SchedulingError(f"unknown case {_echo(str(case_id))}; choose 1, 2 or 3") from None
    return tracks, head, DiskGeometry()


def _seeded_rng(seed: int):
    """Return a random.Random seeded with ``seed``."""
    import random  # only gen and verify draw, so a run need not load it
    if not 0 <= seed < 2**64:  # random.Random(-N) draws exactly Random(N)'s values
        raise SchedulingError("seed must fit in 64 unsigned bits")
    return random.Random(seed)


def generate(count: int, geometry: DiskGeometry = DiskGeometry(), seed: int = 0) -> tuple[int, ...]:
    """Draw ``count`` tracks uniformly over the geometry, inclusive of both
    bounds. Deterministic per seed: uses the stdlib Mersenne Twister
    (random.Random), whose integer draws are stable across builds for a
    given CPython random-module implementation."""
    if count < 1:
        raise SchedulingError(f"count must be >= 1, got {count}")
    rng = _seeded_rng(seed)
    return tuple(rng.randint(geometry.min_track, geometry.max_track) for _ in range(count))


# The keyword ends at whitespace or the line's end: "head,5 6" is a line of
# tokens, whose first, "head", fails as a track.
_HEAD_DIRECTIVE = re.compile(r"\s*head(?:\s|$)")
_TOKEN = re.compile(r"[^,\s]+")


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines(keepends=True)``, split one run up to a "\\n" at a
    time, so that reading the first lines splits no more of the text."""
    for run in re.finditer(r"[^\n]*\n?", text):
        yield from run.group().splitlines(keepends=True)


# The queue's tokens go through a table of the distinct tokens' ints when
# the first _PREFIX of them repeat each distinct token _PER_DISTINCT times on
# average, so a dense queue (10^5 requests on [0, 180] repeat 181 tokens)
# calls int() once per distinct token. Converting 10^5 tokens, CPython 3.11.7
# on 2 shared vCPUs, int() per token against the table: 181 distinct 13.7
# against 5.9 ms, 1000 distinct 9.9 against 7.6, 5000 11.3 against 10.9,
# 20000 11.7 against 15.9, 10^5 14.9 against 50.7. So the table pays from
# about 20 tokens per distinct one. A full prefix that passes comes from at
# most a few hundred distinct tokens, which a queue of 10^4 tokens repeats
# 40 times; a shorter queue costs well under a millisecond either way.
_PREFIX = 2048
_PER_DISTINCT = 8


def parse_requests(text: str) -> tuple[tuple[int, ...], int | None]:
    """Parse request file text into a queue and the optional head position.

    Raises ParseError (with line/column) on non-integer tokens, a misplaced
    or repeated head directive, or negative tracks. Every token means what
    int() makes of it; a dense queue converts each distinct token once (see
    _PREFIX), at a cost of O(tokens + distinct tokens).
    """
    head: int | None = None
    bulk_tried = False
    end = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        start, end = end, end + len(raw)
        line = raw.partition("#")[0]
        if not _TOKEN.search(line):
            continue
        if _HEAD_DIRECTIVE.match(line):
            if head is not None:
                raise ParseError("duplicate head directive", lineno, 1)
            if bulk_tried:
                raise ParseError("head directive must precede all requests", lineno, 1)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'head <int>'", lineno, 1)
            # The keyword may hold the value ("head d"); no later match fits.
            head = _parse_track(parts[1], lineno, line.rindex(parts[1]) + 1)
            continue
        # The queue comes only from one split of the text from this first
        # line with a token on, its comments cut out line by line. str.split()
        # and the regex's \s split on the same whitespace, and every line
        # boundary is whitespace to both, so the split yields the lines'
        # tokens in order, and a later head line fails int(). A failed split
        # thus holds a bad token; the lines are scanned only to report it.
        if not bulk_tried:
            bulk_tried = True
            rest = text[start:]
            if "#" in rest:
                rest = "\n".join(row.partition("#")[0] for row in rest.splitlines())
            tokens = rest.replace(",", " ").split()
            prefix = tokens[:_PREFIX]
            dense = _PER_DISTINCT * len(set(prefix)) <= len(prefix)
            try:
                if dense:
                    distinct = dict.fromkeys(tokens)
                    table = dict(zip(distinct, map(int, distinct)))
                    values, ints = tuple(map(table.__getitem__, tokens)), table.values()
                else:
                    values = ints = tuple(map(int, tokens))
            except ValueError:
                pass
            else:
                if min(ints) >= 0:
                    return values, head
        for m in _TOKEN.finditer(line):
            _parse_track(m.group(), lineno, m.start() + 1)
    return (), head


def _parse_track(token: str, line: int, column: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected an integer track, got {_echo(token)}", line, column) from None
    if value < 0:
        raise ParseError(f"track must be non-negative, got {_echo(token)}", line, column)
    return value


def render_requests(queue: Sequence[int], head: int | None = None) -> str:
    """Canonical request file text: optional head directive, then one track
    per line. parse_requests inverts it exactly; a request file holds no
    negative track, so a negative head or track raises SchedulingError."""
    lowest = min(min(queue, default=0), head or 0)
    if lowest < 0:
        raise SchedulingError(f"a request file holds no negative track, got {_echo(str(lowest))}")
    lines = []
    if head is not None:
        lines.append(f"head {head}")
    lines.extend(str(t) for t in queue)
    return "\n".join(lines) + "\n" if lines else ""
