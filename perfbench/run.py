"""Benchmark of polyrect: one workload, one fresh process, one core.

    python3 perfbench/run.py --workload automaton --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the workload's jobs run in a closed loop for
``--seconds`` and every end-to-end metric is reported, its times at
reference speed (``jobs.SpeedMeter``) with the wall times beside them in the
result file; with ``--trace 1``
one untraced and one traced pass of the jobs run, then every layer probe,
and every per-layer metric is reported.  ``--tiny`` swaps in the smoke-test
sizes.  Each metric is printed by name with its unit, then the last line is
one JSON object.  Results, and the spans of a traced run, are written under
``perfbench/out/``.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("automaton", "fit", "count")
SETUP_CODE = (
    "import time\n"
    "import polyrect, polyrect.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), polyrect.__file__)\n"
)
PERCENTILES = (99, 95, 90, 75, 50)
SETUP_STARTS = 15
SETUP_SLICES = 5


def setup_samples(count: int) -> tuple[list[float], list[float]]:
    """Seconds from starting an interpreter until ``import polyrect.cli`` is done:
    as measured, and at reference speed from speed slices run just before and
    just after each start (see ``jobs.SpeedMeter``)."""
    from jobs import at_reference_speed, speed_slice

    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, refs = [], []
    for _ in range(count):
        slices = [speed_slice() for _ in range(SETUP_SLICES)]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode or proc.stderr:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        stamp, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported polyrect from {module}, not {SRC}")
        wall = float(stamp) - start
        slices += [speed_slice() for _ in range(SETUP_SLICES)]
        walls.append(wall)
        refs.append(at_reference_speed(wall, slices))
    return walls, refs


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s) if s else None}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(s))
        if s and len(s) - rank >= 10:
            out[f"p{p}"] = s[rank - 1]
            break
    return out


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "polyrect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def run_untraced(runner, jobs, seconds: float):
    """Closed loop over the jobs under a speed meter; per job, the Stopwatch
    of each run that succeeded."""
    from jobs import SpeedMeter

    clocks = {job.metric: [] for job in jobs}
    start = time.perf_counter()
    with SpeedMeter():
        while True:
            for job in jobs:
                clock = runner.run(job)
                if clock is not None:
                    clocks[job.metric].append(clock)
            if time.perf_counter() - start >= seconds:
                break
    return clocks


def run_traced(runner, jobs, profile, run_id: str, spans_path: Path) -> dict:
    import layers
    from spans import Tracer

    tracer = Tracer(run_id)
    untraced = layers.job_pass(None, runner, jobs)
    before = runner.output_bytes
    traced = layers.job_pass(tracer, runner, jobs)
    metrics = {
        "cli.output_bytes": (runner.output_bytes - before, "B"),
        "bench.trace_overhead_s": (traced - untraced, "s"),
    }
    metrics.update(layers.measure(tracer, profile, runner))
    metrics["cli.format_s"] = (
        sum(t for rec, t in zip(tracer.spans, tracer.self_times()) if rec["name"].startswith("cli.")),
        "s",
    )
    by_layer = tracer.self_times_by_layer()
    for layer in ("transition", "automaton", "counting", "genfunc", "polynomial", "oracle"):
        metrics[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    tracer.dump(spans_path)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "polyrect" / "__init__.py").is_file():
        print(f"error: no polyrect sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import jobs as jobmod

    profile = jobmod.PROFILES["tiny" if args.tiny else "full"]
    try:
        refs = jobmod.load_references(profile.name)
        setup_wall, setup = setup_samples(3 if args.tiny else SETUP_STARTS)
    except (OSError, KeyError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import polyrect

    if not Path(polyrect.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported polyrect from {polyrect.__file__}", file=sys.stderr)
        return 2

    out_dir = ROOT / jobmod.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = jobmod.Runner(profile, refs, args.seed)
    jobs = jobmod.workloads(profile)[args.workload]
    details: dict = {"setup_s": {**summarize(setup), "wall": summarize(setup_wall)}}
    if args.trace:
        metrics = run_traced(runner, jobs, profile, run_id, out_dir / f"spans-{run_id}.json")
    else:
        clocks = run_untraced(runner, jobs, args.seconds)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        for job in jobs:
            done = clocks[job.metric]
            stats = summarize([c.ref for c in done])
            details[job.metric] = {
                "job": job.kind, "argv": list(job.argv), **stats,
                "wall": summarize([c.wall for c in done]),
                "cpu": summarize([c.cpu for c in done]),
                "speed_ticks": sum(c.ticks for c in done),
            }
            metrics[job.metric] = (stats["median"] or 0.0, "s")
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        )

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"result-{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                **result,
                "workload": args.workload,
                "seed": args.seed,
                "profile": profile.name,
                "fail_ratio": runner.failed / runner.attempted,
                "accepted_share": sum(runner.verdicts) / len(runner.verdicts),
                "environment": environment(),
                "details": details,
                "errors": runner.errors,
            },
            fh,
            indent=1,
        )
    for name, (value, unit) in metrics.items():
        extra = details.get(name)
        print(f"{name}\t{value:.6g}\t{unit}" + (f"\t{json.dumps(extra)}" if extra else ""))
    print(f"fail_ratio\t{runner.failed / runner.attempted:.6g}\tratio\tattempted={runner.attempted}")
    for err in runner.errors:
        print(f"failure\t{err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
