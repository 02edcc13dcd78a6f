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

Exit codes: 0 success or accepted stack; 1 verification mismatch or rejected
stack; 2 usage error; 3 resource ceiling hit.  Diagnostics go to stderr.

The POLYRECT_MAX_STATES environment variable overrides the default state
ceiling; --max-states overrides both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .automaton import DEFAULT_STATE_CEILING, build, export_dot, serialize, state_count_formula
from .counting import accepts, count_area_series, count_series
from .errors import FitError, ResourceLimitError
from .genfunc import gf_height, gf_height_area
from .oracle import ORACLE_CELL_LIMIT, brute_force_area_histogram
from .rowconfig import MAX_WIDTH, RowConfig
from .states import enumerate_valid_states

USAGE_ERROR = 2
MISMATCH = 1
RESOURCE = 3


@dataclass(slots=True)
class RunConfig:
    command: str
    width: int
    height: int = 0
    h_max: int = 0
    stack_path: str | None = None
    output: str | None = None
    fmt: str = "text"
    max_states: int = DEFAULT_STATE_CEILING


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _gf_payload(cfg: RunConfig, gf) -> str:
    dn, dd, dm = gf.degrees()
    if cfg.fmt == "json":
        obj = gf.to_json_obj()
        obj.update({"b": cfg.width, "degrees": {"num": dn, "den": dd, "max": dm}})
        return _json_text(obj)
    return (
        f"numerator: {gf.numerator.to_string()}\n"
        f"denominator: {gf.denominator.to_string()}\n"
        f"degrees: numerator {dn}, denominator {dd}, max {dm}\n"
    )


def _run_states(cfg: RunConfig) -> tuple[int, str]:
    formula = state_count_formula(cfg.width)
    enumerated = len(enumerate_valid_states(cfg.width))
    reachable = build(cfg.width, cfg.max_states).n_states
    if cfg.fmt == "json":
        return 0, _json_text(
            {
                "b": cfg.width,
                "formula": formula,
                "enumerated": enumerated,
                "reachable": reachable,
            }
        )
    return 0, (
        f"formula: {formula}\nenumerated: {enumerated}\nreachable: {reachable}\n"
    )


def _run_build(cfg: RunConfig) -> tuple[int, bytes]:
    a = build(cfg.width, cfg.max_states)
    return 0, serialize(a) + b"\n"


def _run_count(cfg: RunConfig) -> tuple[int, str]:
    a = build(cfg.width, cfg.max_states)
    value = count_series(a, cfg.height).counts[cfg.height]
    if cfg.fmt == "json":
        return 0, _json_text({"b": cfg.width, "h": cfg.height, "count": value})
    if cfg.fmt == "csv":
        return 0, _csv_text(["h", "count"], [[cfg.height, value]])
    return 0, f"{value}\n"


def _run_series(cfg: RunConfig) -> tuple[int, str]:
    a = build(cfg.width, cfg.max_states)
    counts = count_series(a, cfg.h_max).counts
    if cfg.fmt == "json":
        return 0, _json_text(
            {"b": cfg.width, "h_max": cfg.h_max, "counts": list(counts)}
        )
    if cfg.fmt == "csv":
        return 0, _csv_text(["h", "count"], list(enumerate(counts)))
    return 0, "".join(f"{h}\t{c}\n" for h, c in enumerate(counts))


def _area_rows(area_counts) -> list[list[int]]:
    rows = []
    for h, poly in enumerate(area_counts):
        for n, c in enumerate(poly.coeffs):
            if c:
                rows.append([h, n, c])
    return rows


def _run_area_series(cfg: RunConfig) -> tuple[int, str]:
    a = build(cfg.width, cfg.max_states)
    table = count_area_series(a, cfg.h_max)
    if cfg.fmt == "json":
        return 0, _json_text(
            {
                "b": cfg.width,
                "h_max": cfg.h_max,
                "area_counts": [
                    [[n, c] for _, n, c in _area_rows([poly])]
                    for poly in table.area_counts
                ],
            }
        )
    if cfg.fmt == "csv":
        return 0, _csv_text(["h", "n", "coefficient"], _area_rows(table.area_counts))
    return 0, "".join(f"{h}\t{poly.to_string('q')}\n" for h, poly in enumerate(table.area_counts))


def _run_gf(cfg: RunConfig) -> tuple[int, str]:
    gf = gf_height(cfg.width, max_states=cfg.max_states)
    return 0, _gf_payload(cfg, gf)


def _run_area_gf(cfg: RunConfig) -> tuple[int, str]:
    gf = gf_height_area(cfg.width, max_states=cfg.max_states)
    return 0, _gf_payload(cfg, gf)


def _run_verify(cfg: RunConfig) -> tuple[int, str]:
    a = build(cfg.width, cfg.max_states)
    table = count_area_series(a, cfg.h_max)
    lines = []
    failed = False
    for h in range(1, cfg.h_max + 1):
        if cfg.width * h > ORACLE_CELL_LIMIT:
            lines.append(
                f"b={cfg.width} h={h}: skipped (oracle ceiling {ORACLE_CELL_LIMIT} cells)\n"
            )
            continue
        # the histogram sums to the count, so one oracle scan checks both
        expected_hist = brute_force_area_histogram(cfg.width, h)
        got_hist = {
            n: c for n, c in enumerate(table.area_counts[h].coeffs) if c
        }
        if got_hist != expected_hist:
            got, expected = sum(got_hist.values()), sum(expected_hist.values())
            failed = True
            lines.append(
                f"b={cfg.width} h={h}: FAIL (automaton {got}, oracle {expected})\n"
            )
        else:
            lines.append(f"b={cfg.width} h={h}: pass\n")
    return (MISMATCH if failed else 0), "".join(lines)


def _run_export_dot(cfg: RunConfig) -> tuple[int, str]:
    a = build(cfg.width, cfg.max_states)
    return 0, export_dot(a)


def _run_accepts(cfg: RunConfig) -> tuple[int, str]:
    try:
        with open(cfg.stack_path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SystemExit(_usage(f"cannot read stack file: {exc}"))
    rows = [line.strip() for line in raw.splitlines() if line.strip()]
    if not rows:
        raise SystemExit(_usage("stack file contains no rows"))
    for line in rows:
        if len(line) != cfg.width or set(line) - {"0", "1"}:
            raise SystemExit(
                _usage(f"stack row {line!r} is not a 0/1 word of width {cfg.width}")
            )
    if any(line.count("1") == 0 for line in rows):
        # no letter exists for an empty row, so no run can accept the stack
        return MISMATCH, "rejected\n"
    a = build(cfg.width, cfg.max_states)
    stack = [RowConfig.from_string(line) for line in rows]
    ok = accepts(a, stack)
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


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        status, payload = _HANDLERS[cfg.command](cfg)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except ValueError as exc:
        return _usage(str(exc))
    if cfg.output:
        mode = "wb" if isinstance(payload, bytes) else "w"
        with open(cfg.output, mode) as fh:
            fh.write(payload)
    else:
        if isinstance(payload, bytes):
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            sys.stdout.write(payload)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrect",
        description="Count polyominoes inscribed in a b x h rectangle.",
    )
    env_ceiling = os.environ.get("POLYRECT_MAX_STATES", str(DEFAULT_STATE_CEILING))
    try:
        default_ceiling = int(env_ceiling)
    except ValueError:
        raise SystemExit(_usage(f"POLYRECT_MAX_STATES must be an integer, got {env_ceiling!r}"))
    if default_ceiling <= 0:
        raise SystemExit(_usage(f"POLYRECT_MAX_STATES must be positive, got {env_ceiling!r}"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *, height=False, h_max=False, stack=False, fmts=("text", "json")):
        p = sub.add_parser(name)
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
        p.add_argument("--max-states", type=int, default=default_ceiling)
        return p

    add("states")
    add("build", fmts=())
    add("count", height=True, fmts=("text", "json", "csv"))
    add("series", h_max=True, fmts=("text", "json", "csv"))
    add("area-series", h_max=True, fmts=("text", "json", "csv"))
    add("gf")
    add("area-gf")
    add("verify", h_max=True, fmts=())
    add("export-dot", fmts=())
    add("accepts", stack=True, fmts=())
    return parser


def _to_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=ns.command,
        width=ns.b,
        height=getattr(ns, "h", 0),
        h_max=getattr(ns, "h_max", 0),
        stack_path=getattr(ns, "stack", None),
        output=ns.output,
        fmt=getattr(ns, "format", "text"),
        max_states=ns.max_states,
    )
    if not 1 <= cfg.width <= MAX_WIDTH:
        raise SystemExit(_usage(f"--b must be in 1..{MAX_WIDTH}"))
    if cfg.height < 0 or cfg.h_max < 0:
        raise SystemExit(_usage("heights must be nonnegative"))
    if cfg.max_states <= 0:
        raise SystemExit(_usage("--max-states must be positive"))
    return cfg


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    return run(_to_config(ns))


if __name__ == "__main__":
    sys.exit(main())
