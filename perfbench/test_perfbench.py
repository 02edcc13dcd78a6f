"""Smoke test of the benchmark at its tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_tiny_references_validate():
    proc = subprocess.run(
        [sys.executable, str(HERE / "freeze.py"), "--profile", "tiny", "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--tiny", "--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        spans = json.loads((ROOT / jobs.OUT_DIR / f"spans-{workload}-seed7-trace1.json").read_text())
        assert spans["spans"] and all(s["end"] >= s["start"] for s in spans["spans"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stacks_follow_the_seed():
    p = jobs.PROFILES["tiny"]
    first = jobs.make_stacks(p, 5)
    again = jobs.make_stacks(p, 5)
    other = jobs.make_stacks(p, 6)
    bits = lambda made: [[row.bits for row in stack] for stack in made[0]]  # noqa: E731
    assert bits(first) == bits(again) and first[1] == again[1]
    assert bits(first) != bits(other)
    assert 0.3 < sum(first[1]) / len(first[1]) < 0.8


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    tracer.spans = [
        {"id": 0, "name": "cli.series", "parent": None, "run": "t", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "automaton.build", "parent": 0, "run": "t", "start": 1.0, "end": 3.0},
        {"id": 2, "name": "counting.count_series", "parent": 0, "run": "t", "start": 3.0, "end": 8.0},
    ]
    assert tracer.self_times() == [3.0, 2.0, 5.0]
    assert tracer.self_times_by_layer() == {"cli": 3.0, "automaton": 2.0, "counting": 5.0}


def test_reference_speed_scales_each_tick():
    ref = jobs.REFERENCE_SLICE_S
    assert jobs.at_reference_speed(2.0, [ref] * 4) == pytest.approx(2.0)
    assert jobs.at_reference_speed(2.0, [2 * ref] * 4) == pytest.approx(1.0)
    # half the ticks at half speed: the job got 3/4 of a reference core
    assert jobs.at_reference_speed(2.0, [ref, 2 * ref]) == pytest.approx(1.5)


def test_stopwatch_reports_wall_time_without_a_meter():
    with jobs.Stopwatch() as clock:
        sum(range(1000))
    assert clock.ref == clock.wall and clock.ticks == 0
