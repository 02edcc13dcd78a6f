"""Command-line interface.

Commands
--------
states      formula value, structural enumeration count, reachable count
build       build the automaton and write its serialized form
count       number of inscribed polyominoes for one height
series      count table for heights 0..h-max
area-series count table refined by area (polynomials in q)
gf          verified generating function by height
area-gf     verified bivariate generating function by height and area
verify      compare automaton counts and histograms against brute force
export-dot  write the automaton graph in DOT format
accepts     run one stack file through the automaton

Output formats
--------------
text        human-readable, one record per line
json        single object, sorted keys, compact separators
csv         series: header ``h,count``, one row per height;
            area-series: header ``h,n,coefficient``, one row per height and
            area with a nonzero coefficient
dot         Graphviz source (export-dot only)

Stack files contain one row per line as a 0/1 string of the automaton's
width; the first line is the first row fed to the automaton.

Exit codes: 0 success or accepted stack; 1 verification mismatch, rejected
stack, or a failed GF fit (gf, area-gf, and series or count tall enough to
fit a width's series); 2 usage error, including an unreadable stack file,
an unwritable --output file or a closed stdout; 3 resource ceiling hit or
memory exhausted; 4 internal error (a bug, such as a failed lumping check,
reported without a traceback); 130 interrupted (Ctrl-C).  Diagnostics go to
stderr.

The POLYRECT_MAX_STATES environment variable overrides the default state
ceiling; --max-states overrides both.  Every command checks it against the
projected state count of its width's automaton before it starts, the
counting commands too, though they count on far smaller word quotients.
The checks run in this order: the arguments (exit 2), then the ceiling
(exit 3), then the command's own input, so accepts with a width over the
ceiling exits 3 before it reads its stack file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain

from .automaton import (
    DEFAULT_STATE_CEILING, build, check_ceiling, export_dot_chunks, serialize_chunks,
    state_count_formula,
)
from .counting import count_area_series, count_series
from .errors import FitError, ResourceLimitError
from .genfunc import gf_height, gf_height_area
from .oracle import ORACLE_CELL_LIMIT, brute_force_area_histogram
from .rowconfig import MAX_WIDTH, RowConfig
from .states import enumerate_valid_states, initial_state, is_accepting
from .transition import step

USAGE_ERROR = 2
MISMATCH = 1
RESOURCE = 3
INTERNAL = 4


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(header: list[str], rows) -> str:
    # every field is a header word or an int, so none needs quoting
    return "".join(",".join(map(str, row)) + "\n" for row in chain([header], rows))


def _gf_payload(ns: argparse.Namespace, gf) -> str:
    dn, dd, dm = gf.degrees()
    if ns.format == "json":
        obj = gf.to_json_obj()
        obj.update({"b": ns.b, "degrees": {"num": dn, "den": dd, "max": dm}})
        return _json_text(obj)
    return (
        f"numerator: {gf.numerator.to_string()}\n"
        f"denominator: {gf.denominator.to_string()}\n"
        f"degrees: numerator {dn}, denominator {dd}, max {dm}\n"
    )


def _run_states(ns: argparse.Namespace) -> tuple[int, str]:
    formula = state_count_formula(ns.b)
    enumerated = len(enumerate_valid_states(ns.b))
    reachable = build(ns.b, ns.max_states).n_states
    if ns.format == "json":
        return 0, _json_text(
            {
                "b": ns.b,
                "formula": formula,
                "enumerated": enumerated,
                "reachable": reachable,
            }
        )
    return 0, (
        f"formula: {formula}\nenumerated: {enumerated}\nreachable: {reachable}\n"
    )


def _run_build(ns: argparse.Namespace) -> tuple[int, Iterator[bytes]]:
    a = build(ns.b, ns.max_states)
    return 0, chain(serialize_chunks(a), [b"\n"])


def _run_count(ns: argparse.Namespace) -> tuple[int, str]:
    value = count_series(ns.b, ns.h).counts[ns.h]
    if ns.format == "json":
        return 0, _json_text({"b": ns.b, "h": ns.h, "count": value})
    if ns.format == "csv":
        return 0, _csv_text(["h", "count"], [[ns.h, value]])
    return 0, f"{value}\n"


def _run_series(ns: argparse.Namespace) -> tuple[int, str]:
    counts = count_series(ns.b, ns.h_max).counts
    if ns.format == "json":
        return 0, _json_text(
            {"b": ns.b, "h_max": ns.h_max, "counts": list(counts)}
        )
    if ns.format == "csv":
        return 0, _csv_text(["h", "count"], list(enumerate(counts)))
    return 0, "".join(f"{h}\t{c}\n" for h, c in enumerate(counts))


def _area_rows(area_counts) -> list[list[int]]:
    rows = []
    for h, poly in enumerate(area_counts):
        for n, c in enumerate(poly.coeffs):
            if c:
                rows.append([h, n, c])
    return rows


def _run_area_series(ns: argparse.Namespace) -> tuple[int, str]:
    table = count_area_series(ns.b, ns.h_max)
    if ns.format == "json":
        return 0, _json_text(
            {
                "b": ns.b,
                "h_max": ns.h_max,
                "area_counts": [
                    [[n, c] for _, n, c in _area_rows([poly])]
                    for poly in table.area_counts
                ],
            }
        )
    if ns.format == "csv":
        return 0, _csv_text(["h", "n", "coefficient"], _area_rows(table.area_counts))
    return 0, "".join(f"{h}\t{poly.to_string('q')}\n" for h, poly in enumerate(table.area_counts))


def _run_gf(ns: argparse.Namespace) -> tuple[int, str]:
    gf = gf_height(ns.b, max_states=ns.max_states)
    return 0, _gf_payload(ns, gf)


def _run_area_gf(ns: argparse.Namespace) -> tuple[int, str]:
    gf = gf_height_area(ns.b, max_states=ns.max_states)
    return 0, _gf_payload(ns, gf)


def _run_verify(ns: argparse.Namespace) -> tuple[int, str]:
    # the oracle checks no height past its cell limit, so none is counted
    table = count_area_series(ns.b, min(ns.h_max, ORACLE_CELL_LIMIT // ns.b))
    lines = []
    failed = False
    for h in range(1, ns.h_max + 1):
        if ns.b * h > ORACLE_CELL_LIMIT:
            lines.append(
                f"b={ns.b} h={h}: skipped (oracle ceiling {ORACLE_CELL_LIMIT} cells)\n"
            )
            continue
        # the histogram sums to the count, so one oracle scan checks both
        expected_hist = brute_force_area_histogram(ns.b, h)
        got_hist = {
            n: c for n, c in enumerate(table.area_counts[h].coeffs) if c
        }
        if got_hist != expected_hist:
            got, expected = sum(got_hist.values()), sum(expected_hist.values())
            failed = True
            lines.append(
                f"b={ns.b} h={h}: FAIL (automaton {got}, oracle {expected})\n"
            )
        else:
            lines.append(f"b={ns.b} h={h}: pass\n")
    return (MISMATCH if failed else 0), "".join(lines)


def _run_export_dot(ns: argparse.Namespace) -> tuple[int, Iterator[str]]:
    a = build(ns.b, ns.max_states)
    return 0, export_dot_chunks(a)


def _run_accepts(ns: argparse.Namespace) -> tuple[int, str]:
    try:
        with open(ns.stack, "r", encoding="ascii") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_usage(f"cannot read stack file: {exc}"))
    rows = raw.splitlines()
    while rows and not rows[-1].strip():
        rows.pop()  # trailing blank lines end the file; every other line is a row as written
    if not rows:
        raise SystemExit(_usage("stack file contains no rows"))
    for line in rows:
        if len(line) != ns.b or set(line) - {"0", "1"}:
            raise SystemExit(
                _usage(f"stack row {line!r} is not a 0/1 word of width {ns.b}")
            )
    if any(line.count("1") == 0 for line in rows):
        # no letter exists for an empty row, so no run can accept the stack
        return MISMATCH, "rejected\n"
    state = initial_state(ns.b)
    for line in rows:
        state = step(state, RowConfig.from_string(line))
        if state is None:
            return MISMATCH, "rejected\n"
    ok = is_accepting(state)
    return (0 if ok else MISMATCH), ("accepted\n" if ok else "rejected\n")


_HANDLERS = {
    "states": _run_states,
    "build": _run_build,
    "count": _run_count,
    "series": _run_series,
    "area-series": _run_area_series,
    "gf": _run_gf,
    "area-gf": _run_area_gf,
    "verify": _run_verify,
    "export-dot": _run_export_dot,
    "accepts": _run_accepts,
}


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


class _OutputError(Exception):
    """Writing the output failed; the OSError is its one argument."""


def _emit(ns: argparse.Namespace, chunks) -> None:
    """Write chunks, all str or all bytes, to --output or stdout as they come.

    A failed open or write raises _OutputError.  Whatever raises, a partly
    written --output file is removed; stdout keeps what was written.
    """
    out = None
    try:
        for chunk in chunks:
            try:
                if out is None:
                    binary = isinstance(chunk, bytes)
                    if ns.output:
                        out = open(ns.output, "wb" if binary else "w")
                    else:
                        out = sys.stdout.buffer if binary else sys.stdout
                out.write(chunk)
            except OSError as exc:
                raise _OutputError(exc) from exc
        try:
            out.close() if ns.output else out.flush()
        except OSError as exc:
            raise _OutputError(exc) from exc
    except BaseException:
        if ns.output and out is not None:
            try:
                out.close()  # its flush may fail again; the exception raised says why
            except OSError:
                pass
            # a regular file only: not a device such as /dev/null, nor a symlink
            if os.path.isfile(ns.output) and not os.path.islink(ns.output):
                os.remove(ns.output)
        raise


def run(ns: argparse.Namespace) -> int:
    """Execute one command; returns the process exit status.

    A command's output is str or bytes, or for build and export-dot an
    iterator of chunks written as they are rendered.  An error while
    rendering exits as it would before any output.
    """
    try:
        check_ceiling(ns.b, ns.max_states)
        status, payload = _HANDLERS[ns.command](ns)
        _emit(ns, [payload] if isinstance(payload, (str, bytes)) else payload)
    except _OutputError as exc:
        if ns.output:
            return _usage(f"cannot write output file: {exc}")
        # the interpreter flushes stdout again at exit; let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage(f"cannot write to stdout: {exc}")
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return RESOURCE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL
    return status


# each command's arguments: a --h, a --h-max, a --stack, and its --format choices
_ARGUMENTS = {
    "states": {},
    "build": {"fmts": ()},
    "count": {"height": True, "fmts": ("text", "json", "csv")},
    "series": {"h_max": True, "fmts": ("text", "json", "csv")},
    "area-series": {"h_max": True, "fmts": ("text", "json", "csv")},
    "gf": {},
    "area-gf": {},
    "verify": {"h_max": True, "fmts": ()},
    "export-dot": {"fmts": ()},
    "accepts": {"stack": True, "fmts": ()},
}


def _add_arguments(
    p: argparse.ArgumentParser, *, height=False, h_max=False, stack=False, fmts=("text", "json"),
) -> None:
    """Add one command's arguments (its _ARGUMENTS entry) to p, the command's
    own parser or its subparser in the full parser."""
    p.add_argument("--b", type=int, required=True, metavar="WIDTH",
                   help=f"rectangle width, 1..{MAX_WIDTH}")
    if height:
        p.add_argument("--h", type=int, required=True, metavar="HEIGHT")
    if h_max:
        p.add_argument("--h-max", type=int, required=True, metavar="HMAX")
    if stack:
        p.add_argument("--stack", required=True, metavar="FILE")
    if fmts:
        p.add_argument("--format", choices=fmts, default=fmts[0])
    p.add_argument("--output", metavar="FILE")
    p.add_argument("--max-states", type=int)


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, one subparser per command.

    main builds it only to print the top-level help and to report an unknown
    or missing command or a stray argument; a valid command is parsed by that
    command's own parser alone.
    """
    parser = argparse.ArgumentParser(
        prog="polyrect",
        description="Count polyominoes inscribed in a b x h rectangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kinds in _ARGUMENTS.items():
        _add_arguments(sub.add_parser(name), **kinds)
    return parser


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    if not 1 <= ns.b <= MAX_WIDTH:
        raise SystemExit(_usage(f"--b must be in 1..{MAX_WIDTH}"))
    if getattr(ns, "h", 0) < 0 or getattr(ns, "h_max", 0) < 0:
        raise SystemExit(_usage("heights must be nonnegative"))
    if ns.max_states is None:
        # read only without the flag, which overrides it
        env = os.environ.get("POLYRECT_MAX_STATES", str(DEFAULT_STATE_CEILING))
        try:
            ns.max_states = int(env)
        except ValueError:
            raise SystemExit(_usage(f"POLYRECT_MAX_STATES must be an integer, got {env!r}"))
        if ns.max_states <= 0:
            raise SystemExit(_usage(f"POLYRECT_MAX_STATES must be positive, got {env!r}"))
    elif ns.max_states <= 0:
        raise SystemExit(_usage("--max-states must be positive"))
    return ns


def main(argv=None) -> int:
    """Run the command that argv names; returns the process exit status.

    When argv[0] is a command, only that command's parser is built, with the
    prog its subparser has.  The full parser (_build_parser) parses help, an
    unknown or missing command, and any argv the command's parser leaves
    stray, so every help text and usage error reads as with all commands.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    stray = True
    if name in _ARGUMENTS:
        parser = argparse.ArgumentParser(prog=f"polyrect {name}")
        _add_arguments(parser, **_ARGUMENTS[name])
        ns, stray = parser.parse_known_args(argv[1:])
        ns.command = name
    if stray:
        ns = _build_parser().parse_args(argv)
    return run(_checked(ns))


if __name__ == "__main__":
    sys.exit(main())
