"""Command-line driver.

Subcommands:
  run     score one instance (a bundled case, inline requests, or a file)
          under the selected algorithms and print CSV/JSON
  gen     emit a seeded random request file
  verify  run the randomized oracle campaign

Exit codes: 0 success, 1 campaign failure, 2 invalid input, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from .model import (
    DEFAULT_BYTES_PER_TRACK,
    DEFAULT_BYTES_TO_TRANSFER,
    DEFAULT_MAX_TRACK,
    DEFAULT_MIN_TRACK,
    DEFAULT_ROTATION_SPEED,
    DiskGeometry,
    SchedulingError,
    TransferModel,
    _echo,
    validate_instance,
)
from .report import (
    ALGORITHM_ORDER,
    CAMPAIGN_MAX_N,
    ORACLE_NAME,
    emit_pieces,
    run_comparison,
    run_property_campaign,
)
from .schedulers import ORACLE_MAX_REQUESTS
from .workload import (
    BENCHMARK_CASES,
    generate,
    parse_requests,
    reference_case,
    render_requests,
)

# --algo token -> algorithm selection: each name lowercased without its
# hyphen, and "all" for the default six.
_ALGO_TOKENS = {
    "all": None,
    **{n.lower().replace("-", ""): [n] for n in (*ALGORITHM_ORDER, ORACLE_NAME)},
}


def _number(convert: Callable[[str], float]) -> Callable[[str], float]:
    """argparse type for number flags: like ``convert`` (``int`` or
    ``float``), but a rejected value is echoed cut to a short prefix, not in
    full."""
    def parse(text: str) -> float:
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {_echo(text)}"
            ) from None
    return parse


_int = _number(int)


def _case(text: str) -> int:
    """argparse type for ``--case``: a bundled case id, echoed like ``_int``
    when rejected."""
    case_id = _int(text)
    if case_id not in BENCHMARK_CASES:
        choices = ", ".join(map(str, BENCHMARK_CASES))
        raise argparse.ArgumentTypeError(f"invalid choice: {_echo(text)} (choose from {choices})")
    return case_id


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so subparsers, whose usage errors print like
    every other input error: one ``error:`` line, then exit 2. A line break
    in the message (argparse echoes unknown arguments as given) prints as
    ``\\n``."""

    def error(self, message: str):
        self.exit(2, "error: " + "\\n".join(message.splitlines()) + "\n")


def _geometry_args(parser: argparse.ArgumentParser) -> None:
    # None marks an unset flag, which --case conflict detection relies on.
    parser.add_argument(
        "--min-track", type=_int, default=None, help=f"lowest track (default {DEFAULT_MIN_TRACK})"
    )
    parser.add_argument(
        "--max-track", type=_int, default=None, help=f"highest track (default {DEFAULT_MAX_TRACK})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seeksim", description="Disk-arm scheduling simulator and comparison tool."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="score an instance under the selected algorithms")
    run.add_argument("--case", type=_case, metavar="{1,2,3}", help="bundled benchmark case")
    run.add_argument("--head", type=_int, help="initial head position")
    run.add_argument("--requests", help="inline request list, e.g. '25,10,151'")
    run.add_argument("--input", help="request file (see README for the format)")
    run.add_argument(
        "--algo", choices=sorted(_ALGO_TOKENS), default="all", help="algorithm to run"
    )
    _geometry_args(run)
    run.add_argument(
        "--bytes", type=_int, default=DEFAULT_BYTES_TO_TRANSFER,
        help="bytes to transfer (default %(default)s)",
    )
    run.add_argument(
        "--track-bytes", type=_int, default=DEFAULT_BYTES_PER_TRACK,
        help="bytes per track (default %(default)s)",
    )
    run.add_argument(
        "--rps", type=_number(float), default=DEFAULT_ROTATION_SPEED,
        help="rotation speed, rev/s (default %(default)s)",
    )
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument(
        "--path", action="store_true", help="emit head-path series instead of the metric table"
    )
    run.add_argument(
        "--paper-table",
        action="store_true",
        help="append the originally published table values and divergence notes (cases only)",
    )

    gen = sub.add_parser("gen", help="generate a seeded uniform request file")
    gen.add_argument("--count", type=_int, required=True, help="number of requests")
    gen.add_argument("--seed", type=_int, default=0)
    gen.add_argument("--head", type=_int, default=None, help="include a head directive")
    _geometry_args(gen)
    gen.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    verify = sub.add_parser("verify", help="randomized campaign against the exact oracle")
    verify.add_argument("--trials", type=_int, default=1000)
    verify.add_argument("--seed", type=_int, default=0)
    verify.add_argument(
        "--max-n", type=_int, default=CAMPAIGN_MAX_N,
        help=f"largest queue per trial (default %(default)s, at most {ORACLE_MAX_REQUESTS})",
    )

    return parser


def _build_geometry(args: argparse.Namespace) -> DiskGeometry:
    return DiskGeometry(
        DEFAULT_MIN_TRACK if args.min_track is None else args.min_track,
        DEFAULT_MAX_TRACK if args.max_track is None else args.max_track,
    )


def _resolve_instance(args: argparse.Namespace):
    if args.case is not None:
        for flag, name in (
            (args.head, "--head"),
            (args.requests, "--requests"),
            (args.input, "--input"),
            (args.min_track, "--min-track"),
            (args.max_track, "--max-track"),
        ):
            if flag is not None:
                raise SchedulingError(f"--case fixes the instance; drop {name}")
        queue, head, geometry = reference_case(args.case)
        return validate_instance(queue, head, geometry), args.case

    if args.requests is not None and args.input is not None:
        raise SchedulingError("give --requests or --input, not both")
    if args.requests is not None:
        queue, file_head = parse_requests(args.requests)
    elif args.input is not None:
        with open(args.input, encoding="utf-8-sig") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise SchedulingError(f"{args.input}: not UTF-8 text ({exc.reason})") from None
        queue, file_head = parse_requests(text)
    else:
        raise SchedulingError("need --case, --requests or --input")

    if args.head is not None and file_head is not None:
        raise SchedulingError("head given both via --head and in the input")
    head = args.head if args.head is not None else file_head
    if head is None:
        raise SchedulingError("no head position: pass --head or a 'head <int>' line")
    return validate_instance(queue, head, _build_geometry(args)), None


def _cmd_run(args: argparse.Namespace) -> int:
    instance, case_id = _resolve_instance(args)
    if args.paper_table and args.path:
        raise SchedulingError("--paper-table applies to metric tables, not --path")
    if args.paper_table and case_id is None:
        raise SchedulingError("--paper-table needs --case (published values exist for cases 1-3)")
    model = TransferModel(args.bytes, args.track_bytes, args.rps)
    report = run_comparison(instance, model, _ALGO_TOKENS[args.algo], case_id)
    pieces = emit_pieces(report.rows if args.path else report, args.format, args.paper_table)
    sys.stdout.writelines(pieces)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    geometry = _build_geometry(args)
    queue = generate(args.count, geometry, args.seed)
    if args.head is not None:
        validate_instance((), args.head, geometry)
    text = (
        f"# uniform workload: count={args.count} seed={args.seed} "
        f"tracks=[{geometry.min_track},{geometry.max_track}]\n"
    ) + render_requests(queue, args.head)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_property_campaign(args.trials, seed=args.seed, max_n=args.max_n)
    print(f"trials={summary.trials} seed={summary.seed} max_n={summary.max_n}")
    print(f"passes={summary.passes} failures={summary.failures}")
    if summary.failures:
        for check, count in sorted(summary.check_failures.items()):
            print(f"failed check {check}: {count}")
        print(f"first counterexample: {summary.first_counterexample}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = {"run": _cmd_run, "gen": _cmd_gen, "verify": _cmd_verify}[args.command](args)
        sys.stdout.flush()  # a reader gone before the last write fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early. Point it at /dev/null, so that the
        # flush at exit does not fail again, and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SchedulingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
