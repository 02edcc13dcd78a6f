"""The benchmark's workloads: the jobs each one runs, their sizes, and the
seeded inputs and frozen references they are checked against.

A job is one operation a user of polyrect pays for: a CLI command run
in-process through ``polyrect.cli.main``, or a library call that has no CLI
form (loading a serialized automaton, running row stacks through it).
Each workload is a closed loop over its jobs, one after another, in one
thread.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

OUT_DIR = "perfbench/out"
REFERENCES = Path(__file__).with_name("references.json")
ACCEPT_SHARE = 0.5
SPOIL_TRIES = 8


@dataclass(frozen=True)
class Profile:
    """Sizes of every job and probe; ``full`` is measured, ``tiny`` smoke-tests."""

    name: str
    automaton_b: int
    gf_b: int
    area_gf_bs: tuple[int, int]
    series: tuple[int, int]
    area_series: tuple[int, int]
    verify: tuple[int, int]
    sweep_bs: tuple[int, int, int]
    sweep_h: int
    oracle_cells: int
    stack_count: int
    stack_heights: tuple[int, int]
    accepts_reps: int


PROFILES = {
    "full": Profile(
        name="full",
        automaton_b=7,
        gf_b=5,
        area_gf_bs=(3, 2),
        series=(6, 400),
        area_series=(5, 60),
        verify=(5, 4),
        sweep_bs=(6, 7, 8),
        sweep_h=200,
        oracle_cells=20,
        stack_count=2000,
        stack_heights=(2, 12),
        accepts_reps=300,
    ),
    "tiny": Profile(
        name="tiny",
        automaton_b=4,
        gf_b=3,
        area_gf_bs=(2, 1),
        series=(4, 40),
        area_series=(3, 20),
        verify=(3, 4),
        sweep_bs=(2, 3, 4),
        sweep_h=40,
        oracle_cells=12,
        stack_count=200,
        stack_heights=(2, 6),
        accepts_reps=2,
    ),
}


@dataclass(frozen=True)
class Job:
    """One timed operation; ``metric`` names its end-to-end metric."""

    metric: str
    kind: str  # "cli", "load" or "accepts"
    argv: tuple[str, ...] = ()
    ref: str = ""  # key of its frozen reference in references.json


def automaton_file(p: Profile) -> str:
    return f"{OUT_DIR}/automaton-b{p.automaton_b}.json"


def cli_job(metric: str, *argv) -> Job:
    argv = tuple(str(a) for a in argv)
    return Job(metric, "cli", argv, " ".join(argv))


def workloads(p: Profile) -> dict[str, list[Job]]:
    """Job list of each workload, in the order one pass runs them."""
    build = cli_job("job1_s", "build", "--b", p.automaton_b, "--output", automaton_file(p))
    return {
        "automaton": [
            build,
            Job("job2_s", "load", (automaton_file(p),), build.ref),
            Job("job3_s", "accepts"),
        ],
        "fit": [
            cli_job("job1_s", "gf", "--b", p.gf_b),
            cli_job("job2_s", "area-gf", "--b", p.area_gf_bs[0]),
            cli_job("job3_s", "area-gf", "--b", p.area_gf_bs[1]),
        ],
        "count": [
            cli_job("job1_s", "series", "--b", p.series[0], "--h-max", p.series[1]),
            cli_job("job2_s", "area-series", "--b", p.area_series[0], "--h-max", p.area_series[1]),
            cli_job("job3_s", "verify", "--b", p.verify[0], "--h-max", p.verify[1]),
        ],
    }


def load_references(profile: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[profile]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- host speed ------------------------------------------------------------
#
# On a shared host the same job's wall time swings by up to 2x within a
# minute: the host flips between a fast and a slow state every few seconds
# as other tenants load the physical core under this one.  While a
# SpeedMeter is on, an interval timer interrupts the job every SPEED_TICK_S
# to time one fixed slice of Python work (run twice, the second timed), and
# one more slice runs on each side of the job.  A job is then reported at
# reference speed: each tick's share of its wall time, less the slices, is
# scaled by REFERENCE_SLICE_S over that tick's slice time, since the job
# progresses at a rate inverse to the slice time.  The slice mixes
# small-tuple dict updates with big-integer products, the two kinds of work
# polyrect does, so that it slows down about as much as the jobs do.  It
# shares no code with polyrect, so a change to the program moves the
# reported time exactly as it moves wall time at a fixed host speed.

SPEED_TICK_S = 0.02
# A slice's time on a quiet core (its 5th percentile over 10 s) of the host
# the benchmark was written on, a 2-vCPU Xeon at 2.0 GHz with Python 3.11.
# It sets the scale only.
REFERENCE_SLICE_S = 130e-6
_FACTOR = (1 << 3000) // 7
_DIVISOR = (1 << 2900) // 11


def speed_slice() -> float:
    """Seconds to run a fixed mix of small-tuple dict updates and big-int products."""
    start = perf_counter()
    counts: dict = {}
    for i in range(300):
        key = (i & 15, i >> 4)
        counts[key] = counts.get(key, 0) + 1
    x = _FACTOR
    for _ in range(12):
        x = (x * _DIVISOR) >> 2900
    return perf_counter() - start


def at_reference_speed(busy: float, slices: list[float]) -> float:
    """``busy`` wall seconds, spread evenly over the ticks that timed
    ``slices``, as the seconds they would take at reference speed."""
    return busy * REFERENCE_SLICE_S * sum(1 / s for s in slices) / len(slices)


class SpeedMeter:
    """Slice times taken on each timer tick while switched on (``with``)."""

    active: "SpeedMeter | None" = None

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0

    def tick(self, *_signal) -> None:
        start = perf_counter()
        speed_slice()  # refills the caches the job has taken, so the next
        self.slices.append(speed_slice())  # slice sees the core, not the job
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_TICK_S, SPEED_TICK_S)
        SpeedMeter.active = self
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        SpeedMeter.active = None


class Stopwatch:
    """Wall and CPU seconds of the enclosed block, and its wall time at
    reference speed (``ref``; equal to ``wall`` when no SpeedMeter is on)."""

    def __enter__(self):
        self.meter = meter = SpeedMeter.active
        if meter is not None:
            meter.tick()
            self._first, self._spent = len(meter.slices) - 1, meter.spent
        self.wall, self.cpu = perf_counter(), process_time()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.wall
        self.cpu = process_time() - self.cpu
        self.ref, self.ticks = self.wall, 0
        meter = self.meter
        if meter is not None:
            busy = self.wall - (meter.spent - self._spent)
            meter.tick()
            slices = meter.slices[self._first:]
            self.ref = at_reference_speed(busy, slices)
            self.ticks = len(slices) - 2


def run_cli(argv) -> tuple[int, bytes, str, Stopwatch]:
    """Run one polyrect command in-process: (status, stdout, stderr, time).

    Only ``cli.main`` is timed; capturing into memory replaces the terminal
    or pipe a user's shell would give it.
    """
    from polyrect import cli

    out = io.BytesIO()
    err = io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True)
    with redirect_stdout(stdout), redirect_stderr(err):
        with Stopwatch() as clock:
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
    data = out.getvalue()
    stdout.detach()
    return status, data, err.getvalue(), clock


def cli_output(argv, stdout: bytes) -> bytes:
    """What a command delivered: its --output file if it names one, else stdout."""
    if "--output" in argv:
        return Path(argv[argv.index("--output") + 1]).read_bytes()
    return stdout


# --- seeded row stacks for the accepts job -------------------------------


def _grow(rng: random.Random, width: int, height: int) -> set[tuple[int, int]]:
    """Random 4-connected cell set grown from one cell until it touches all sides."""
    cells = {(rng.randrange(height), rng.randrange(width))}
    frontier = set()

    def add(cell):
        cells.add(cell)
        frontier.discard(cell)
        r, c = cell
        for n in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= n[0] < height and 0 <= n[1] < width and n not in cells:
                frontier.add(n)

    add(next(iter(cells)))
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    while not (0 in rows and height - 1 in rows and 0 in cols and width - 1 in cols):
        cell = rng.choice(sorted(frontier))
        add(cell)
        rows.add(cell[0])
        cols.add(cell[1])
    return cells


def _spoil(rng: random.Random, width: int, height: int, cells: set) -> set:
    """Drop one cell, or add a detached one; every row stays nonempty.

    The CLI and the automaton take only nonempty rows.  The result may still
    be inscribed; the caller asks the oracle.
    """
    if rng.random() < 0.5:
        cell = rng.choice(sorted(cells))
        rest = cells - {cell}
        if any(r == cell[0] for r, _ in rest):
            return rest
    detached = [
        (r, c)
        for r in range(height)
        for c in range(width)
        if (r, c) not in cells
        and not {(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & cells
    ]
    return cells | {rng.choice(detached)} if detached else cells


def make_stacks(p: Profile, seed: int):
    """Seeded row stacks of width ``automaton_b`` and their expected verdicts.

    Each stack is a grown inscribed shape, and with probability
    1 - ACCEPT_SHARE it is then spoiled until the oracle rejects it (a few
    tries).  The verdicts come from the brute-force oracle's
    ``is_inscribed_polyomino``, which shares no code with the automaton.
    """
    from polyrect import GridSubset, enumerate_alphabet, is_inscribed_polyomino

    rng = random.Random(seed)
    width = p.automaton_b
    # rows are shared objects, so the heap layout does not vary with the seed
    alphabet = enumerate_alphabet(width)

    def inscribed(cells, height):
        mask = sum(1 << (r * width + c) for r, c in cells)
        return is_inscribed_polyomino(GridSubset(width, height, mask))

    stacks, verdicts = [], []
    for _ in range(p.stack_count):
        height = rng.randint(*p.stack_heights)
        cells = grown = _grow(rng, width, height)
        verdict = inscribed(cells, height)
        if rng.random() >= ACCEPT_SHARE:
            for _ in range(SPOIL_TRIES):
                cells = _spoil(rng, width, height, grown)
                verdict = inscribed(cells, height)
                if not verdict:
                    break
        verdicts.append(verdict)
        stacks.append(
            [
                alphabet[sum(1 << (width - 1 - c) for rr, c in cells if rr == r) - 1]
                for r in range(height)
            ]
        )
    return stacks, verdicts


# --- running and checking jobs -------------------------------------------


class Runner:
    """Runs jobs, checks each result against its reference, counts failures."""

    def __init__(self, profile: Profile, refs: dict, seed: int):
        self.profile = profile
        self.refs = refs
        self.stacks, self.verdicts = make_stacks(profile, seed)
        self.automaton = None  # set by the load job, read by the accepts job
        self.loaded_once = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    def fail(self, job: Job, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{job.metric} {job.kind} {' '.join(job.argv)}: {why}")

    def run(self, job: Job) -> Stopwatch | None:
        """Time the job took, or None when it failed."""
        self.attempted += 1
        try:
            return getattr(self, "_" + job.kind)(job)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            self.fail(job, f"raised {type(exc).__name__}: {exc}")
            return None

    def _cli(self, job: Job) -> Stopwatch | None:
        ref = self.refs[job.ref]
        status, stdout, stderr, clock = run_cli(job.argv)
        if status != ref["status"]:
            self.fail(job, f"exit {status}, want {ref['status']}")
            return None
        if stderr:
            self.fail(job, f"stderr {stderr[:200]!r}")
            return None
        data = cli_output(job.argv, stdout)
        self.output_bytes += len(data)
        if sha256(data) != ref["sha256"]:
            self.fail(job, "output differs from its frozen reference")
            return None
        return clock

    def _load(self, job: Job) -> Stopwatch | None:
        from polyrect import deserialize, serialize

        with Stopwatch() as clock:
            a = deserialize(Path(job.argv[0]).read_bytes())
        if self.loaded_once is None:
            ref = self.refs[job.ref]
            if sha256(serialize(a) + b"\n") != ref["sha256"]:
                self.fail(job, "reserialized automaton differs from the build reference")
                return None
            if a.n_states != ref["checks"]["n_states"]:
                self.fail(job, f"{a.n_states} states, want {ref['checks']['n_states']}")
                return None
            self.loaded_once = a
        elif a != self.loaded_once:
            self.fail(job, "automaton differs from the first load")
            return None
        self.automaton = a
        return clock

    def _accepts(self, job: Job) -> Stopwatch | None:
        from polyrect import accepts

        a = self.automaton
        if a is None:
            self.fail(job, "no loaded automaton")
            return None
        stacks = self.stacks
        runs = []
        with Stopwatch() as clock:
            for _ in range(self.profile.accepts_reps):
                runs.append([accepts(a, s) for s in stacks])
        self.attempted += len(stacks) * len(runs) - 1
        wrong = sum(g != w for got in runs for g, w in zip(got, self.verdicts))
        if wrong:
            self.fail(job, f"{wrong} wrong verdicts", wrong)
            return None
        return clock
