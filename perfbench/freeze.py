"""Freeze the references the benchmark checks job outputs against.

    python3 perfbench/freeze.py                  # rewrite references.json
    python3 perfbench/freeze.py --profile tiny --check   # recompute, compare

Each CLI job runs once; its output digest is stored together with the values
the output was checked against here.  No output is its own only reference:
counts and histograms are compared with the brute-force oracle on every grid
of at most ``oracle_cells`` cells, with transpose symmetry
counts[b][h] == counts[h][b], with the state-count formula, with the
verified generating functions and their pinned degrees, and the area
generating function must collapse to the height one at q = 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyrect import (  # noqa: E402
    ORACLE_CELL_LIMIT,
    Polynomial,
    brute_force_area_histogram,
    brute_force_count,
    build,
    count_area_series,
    count_series,
    deserialize,
    expand,
    gf_height,
    gf_height_area,
    serialize,
    specialize_q,
    state_count_formula,
)

from jobs import OUT_DIR, PROFILES, REFERENCES, cli_output, run_cli, sha256, workloads  # noqa: E402

# Pinned by the acceptance tests and the paper, not by this package's output.
PINNED_STATES = [1, 2, 6, 16, 40, 99, 247, 625, 1605]
PINNED_DEGREES = {3: 9, 4: 20, 5: 49, 6: 112}
WIDTH_TWO = ([1, -2, 3, 2], [1, -3, 1, 1])  # (2x^3+3x^2-2x+1) / ((x-1)(x^2+2x-1))


class Mismatch(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@lru_cache(maxsize=None)
def _automaton(b: int):
    return build(b)


def heights_series(b: int, h_max: int) -> tuple[int, ...]:
    return count_series(_automaton(b), h_max).counts


def oracle_heights(b: int, cells: int, h_max: int) -> list[int]:
    return [h for h in range(1, h_max + 1) if b * h <= cells]


def check_counts(b: int, counts, cells: int) -> dict:
    """counts[h] against the oracle and against counts[h][b] by transposition."""
    oracle = {}
    for h in oracle_heights(b, cells, len(counts) - 1):
        oracle[str(h)] = brute_force_count(b, h)
        require(counts[h] == oracle[str(h)], f"b={b} h={h} count vs oracle")
    transposed = list(range(1, min(len(counts) - 1, b) + 1))
    for h in transposed:
        require(counts[h] == heights_series(h, b)[b], f"b={b} h={h} transpose")
    return {"oracle_counts": oracle, "transpose_heights": transposed}


def check_histograms(b: int, polys, cells: int) -> dict:
    oracle = {}
    for h in oracle_heights(b, cells, len(polys) - 1):
        hist = brute_force_area_histogram(b, h)
        poly = polys[h] if isinstance(polys[h], Polynomial) else Polynomial((polys[h],))
        require({n: c for n, c in enumerate(poly.coeffs) if c} == hist, f"b={b} h={h} histogram")
        oracle[str(h)] = {str(k): v for k, v in hist.items()}
    return {"oracle_histograms": oracle}


def gf_text(gf) -> str:
    dn, dd, dm = gf.degrees()
    return (
        f"numerator: {gf.numerator.to_string()}\n"
        f"denominator: {gf.denominator.to_string()}\n"
        f"degrees: numerator {dn}, denominator {dd}, max {dm}\n"
    )


def check_height_gf(b: int, gf) -> dict:
    degrees = list(gf.degrees())
    out = {"degrees": degrees}
    if b in PINNED_DEGREES:
        require(PINNED_DEGREES[b] in degrees, f"b={b} GF degree {PINNED_DEGREES[b]}")
        out["pinned_degree"] = PINNED_DEGREES[b]
    if b == 2:
        num, den = WIDTH_TWO
        want = []
        for j in range(30):
            acc = num[j] if j < len(num) else 0
            acc -= sum(den[k] * want[j - k] for k in range(1, min(j, len(den) - 1) + 1))
            want.append(acc)
        require(expand(gf, 30) == want, "width-2 closed form")
        out["closed_form"] = "width 2"
    return out


def flag(argv, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_build(argv, data: bytes, cells: int) -> dict:
    b = flag(argv, "--b")
    a = deserialize(data)
    require(serialize(a) + b"\n" == data, "deserialize(serialize(a)) == a")
    require(a.n_states == state_count_formula(b) == PINNED_STATES[b], f"b={b} state count")
    counts = count_series(a, b).counts
    return {"n_states": a.n_states, **check_counts(b, counts, cells)}


def check_gf(argv, data: bytes, cells: int) -> dict:
    b = flag(argv, "--b")
    gf = gf_height(b)
    require(data.decode() == gf_text(gf), "gf output renders the verified GF")
    return {**check_height_gf(b, gf), **check_counts(b, expand(gf, b + 1), cells)}


def check_area_gf(argv, data: bytes, cells: int) -> dict:
    b = flag(argv, "--b")
    gf = gf_height_area(b)
    require(data.decode() == gf_text(gf), "area-gf output renders the verified GF")
    height = gf_height(b)
    require(
        expand(specialize_q(gf, 1), 20) == expand(height, 20),
        f"b={b} area GF collapses to the height GF at q=1",
    )
    polys = expand(gf, max(oracle_heights(b, cells, cells)) + 1)
    return {
        "degrees": list(gf.degrees()),
        "collapses_at_q1": True,
        **check_height_gf(b, height),
        **check_histograms(b, polys, cells),
    }


def check_series(argv, data: bytes, cells: int) -> dict:
    b, h_max = flag(argv, "--b"), flag(argv, "--h-max")
    rows = [line.split("\t") for line in data.decode().splitlines()]
    require([int(h) for h, _ in rows] == list(range(h_max + 1)), "series heights")
    counts = [int(c) for _, c in rows]
    gf = gf_height(b)
    require(expand(gf, h_max + 1) == counts, f"b={b} series matches the verified GF")
    return {**check_height_gf(b, gf), **check_counts(b, counts, cells)}


def check_area_series(argv, data: bytes, cells: int) -> dict:
    b, h_max = flag(argv, "--b"), flag(argv, "--h-max")
    polys = count_area_series(_automaton(b), h_max).area_counts
    text = "".join(
        f"{h}\t{p.to_string('q') if isinstance(p, Polynomial) else p}\n" for h, p in enumerate(polys)
    )
    require(data.decode() == text, "area-series output renders the area table")
    sums = [p.evaluate(1) if isinstance(p, Polynomial) else p for p in polys]
    require(sums == list(heights_series(b, h_max)), "area polynomials sum to the counts")
    transposed = list(range(1, min(h_max, b) + 1))
    for h in transposed:
        require(polys[h] == count_area_series(_automaton(h), b).area_counts[b], f"h={h} area transpose")
    return {"area_transpose_heights": transposed, **check_histograms(b, polys, cells)}


def check_verify(argv, data: bytes, cells: int) -> dict:
    b, h_max = flag(argv, "--b"), flag(argv, "--h-max")
    require(all(b * h <= min(cells, ORACLE_CELL_LIMIT) for h in range(1, h_max + 1)), "grid size")
    require(
        data.decode() == "".join(f"b={b} h={h}: pass\n" for h in range(1, h_max + 1)),
        "verify reports a pass for every height",
    )
    counts = count_area_series(_automaton(b), h_max).area_counts
    oracle = {}
    for h in range(1, h_max + 1):
        count = brute_force_count(b, h)
        hist = brute_force_area_histogram(b, h)
        require(count == brute_force_count(h, b), f"{b}x{h} oracle transpose")
        got = {n: c for n, c in enumerate(counts[h].coeffs) if c}
        require(got == hist, f"{b}x{h} automaton histogram")
        oracle[str(h)] = {"count": count, "histogram": {str(k): v for k, v in hist.items()}}
    return {"oracle": oracle}


CHECKS = {
    "build": check_build,
    "gf": check_gf,
    "area-gf": check_area_gf,
    "series": check_series,
    "area-series": check_area_series,
    "verify": check_verify,
}


def freeze(profile_name: str) -> dict:
    p = PROFILES[profile_name]
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    refs = {}
    for jobs in workloads(p).values():
        for job in jobs:
            if job.kind != "cli":
                continue
            status, stdout, stderr, _ = run_cli(job.argv)
            require(status == 0 and not stderr, f"{job.ref}: exit {status}, stderr {stderr!r}")
            data = cli_output(job.argv, stdout)
            refs[job.ref] = {
                "status": status,
                "sha256": sha256(data),
                "bytes": len(data),
                "checks": CHECKS[job.argv[0]](job.argv, data, p.oracle_cells),
            }
            print(f"{p.name}: {job.ref}: ok", file=sys.stderr)
    return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="freeze or re-check the benchmark references")
    ap.add_argument("--profile", choices=("all", *PROFILES), default="all")
    ap.add_argument("--check", action="store_true", help="compare with references.json, write nothing")
    args = ap.parse_args(argv)
    sys.set_int_max_str_digits(0)
    os.chdir(ROOT)
    names = list(PROFILES) if args.profile == "all" else [args.profile]
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    try:
        fresh = {name: freeze(name) for name in names}
    except Mismatch as exc:
        print(f"reference check failed: {exc}", file=sys.stderr)
        return 1
    if args.check:
        bad = [name for name in names if stored.get(name) != fresh[name]]
        for name in bad:
            print(f"{name}: references.json is stale", file=sys.stderr)
        return 1 if bad else 0
    stored.update(fresh)
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
