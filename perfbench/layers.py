"""Per-layer probes of the traced run.

Each probe calls one module's public functions directly, at the sizes of the
jobs whose end-to-end time that layer drives, inside a span.  The probes are
the same for every workload, so a traced run of any workload reports every
layer metric.
"""

from __future__ import annotations

from time import perf_counter

import polyrect
from polyrect import cli, genfunc
from polyrect.rowconfig import enumerate_alphabet

from jobs import Profile, Runner, workloads
from spans import CLI_CALLS, GENFUNC_CALLS, Tracer

# gf_height at the seed fits 2n + 10 terms and checks 25 more; the replay
# keeps these numbers fixed so its layer times compare across commits.
FIT_EXTRA_TERMS = 10
CHECK_TERMS = 25
LIBRARY_JOB_SPANS = {"load": "automaton.deserialize", "accepts": "counting.accepts"}


def _timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    with tracer.span(name) as rec:
        result = fn(*args, **kwargs)
    return result, rec["end"] - rec["start"]


def _bits(values) -> int:
    return max(abs(v).bit_length() for v in values)


def _coefficient_bits(polys) -> int:
    return max(_bits(p.coeffs) for p in polys if p)


def measure(tracer: Tracer, p: Profile, runner: Runner) -> dict[str, tuple[float, str]]:
    """Run every probe; returns metric name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def check(ok: bool, what: str) -> None:
        runner.attempted += 1
        if not ok:
            runner.failed += 1
            runner.errors.append(f"layer probe: {what}")

    with tracer.patch(genfunc, GENFUNC_CALLS):
        automata = _sweep(tracer, p, m, check)
        _kernel(tracer, automata[p.sweep_bs[-1]], m, check)
        _automaton(tracer, automata.get(p.automaton_b) or polyrect.build(p.automaton_b), m, check)
        _counting(tracer, p, automata, runner, m, check)
        _genfunc(tracer, p, m, check)
        _oracle(tracer, p, runner, m, check)
    return m


def _sweep(tracer, p, m, check) -> dict:
    """Build and h=sweep_h counting at three widths, the ROADMAP baseline table."""
    automata = {}
    for rung, b in enumerate(p.sweep_bs, 1):
        a, secs = _timed(tracer, "automaton.build", polyrect.build, b)
        check(a.n_states == polyrect.state_count_formula(b), f"b={b} state count")
        m[f"automaton.build_s.sweep{rung}"] = (secs, "s")
        m[f"automaton.states.sweep{rung}"] = (a.n_states, "count")
        _, secs = _timed(tracer, "counting.count_series", polyrect.count_series, a, p.sweep_h)
        m[f"counting.count_series_s.sweep{rung}"] = (secs, "s")
        automata[b] = a
    return automata


def _kernel(tracer, a, m, check) -> None:
    """step over every (state, letter) pair of the widest sweep automaton."""
    step = polyrect.step
    alphabet = enumerate_alphabet(a.width)
    states = a.states
    defined = 0
    with tracer.span("transition.step") as rec:
        for state in states:
            for row in alphabet:
                if step(state, row) is not None:
                    defined += 1
    steps = len(states) * len(alphabet)
    check(defined == sum(t >= 0 for row in a.transitions for t in row), "defined steps")
    m["transition.step_us"] = ((rec["end"] - rec["start"]) / steps * 1e6, "us")
    m["transition.steps"] = (steps, "count")
    m["transition.defined"] = (defined, "count")
    m["transition.defined_ratio"] = (defined / steps, "ratio")
    m["transition.word_reuse_ratio"] = (len(states) / len({s.word for s in states}), "ratio")


def _automaton(tracer, a, m, check) -> None:
    data, secs = _timed(tracer, "automaton.serialize", polyrect.serialize, a)
    m["automaton.serialize_s"] = (secs, "s")
    m["automaton.serialized_bytes"] = (len(data), "B")
    back, secs = _timed(tracer, "automaton.deserialize", polyrect.deserialize, data)
    check(back == a, "deserialize(serialize(a)) == a")
    m["automaton.deserialize_s"] = (secs, "s")
    # computed, not measured: the dense table is n x (2^b - 1) array slots
    m["automaton.table_bytes"] = (
        a.n_states * ((1 << a.width) - 1) * a.transitions[0].itemsize,
        "B",
    )


def _counting(tracer, p, automata, runner, m, check) -> None:
    b, h = p.series
    a = automata.get(b) or polyrect.build(b)
    table, secs = _timed(tracer, "counting.count_series", polyrect.count_series, a, h)
    m["counting.count_series_s"] = (secs, "s")
    m["counting.max_bits"] = (_bits(table.counts), "bit")

    b, h = p.area_series
    a = automata.get(b) or polyrect.build(b)
    table, secs = _timed(tracer, "counting.count_area_series", polyrect.count_area_series, a, h)
    m["counting.count_area_series_s"] = (secs, "s")
    m["counting.area_max_bits"] = (_coefficient_bits(table.area_counts), "bit")

    a = automata.get(p.automaton_b) or polyrect.build(p.automaton_b)
    accepts = polyrect.accepts
    with tracer.span("counting.accepts") as rec:
        got = [accepts(a, s) for s in runner.stacks]
    check(got == runner.verdicts, "accepts verdicts against the oracle")
    m["counting.accepts_us"] = ((rec["end"] - rec["start"]) / len(got) * 1e6, "us")


def _genfunc(tracer, p, m, check) -> None:
    """Replay gf_height's steps through public calls, then the area fit."""
    a, _ = _timed(tracer, "automaton.build", polyrect.build, p.gf_b)
    n = a.n_states
    fit_len = 2 * n + FIT_EXTRA_TERMS
    total = fit_len + CHECK_TERMS
    table, secs = _timed(tracer, "counting.count_series", polyrect.count_series, a, total - 1)
    series = list(table.counts)
    m["genfunc.series_s"] = (secs, "s")
    gf, secs = _timed(tracer, "genfunc.fit_rational", polyrect.fit_rational, series[:fit_len], n)
    m["genfunc.fit_rational_s"] = (secs, "s")
    expanded, secs = _timed(tracer, "genfunc.expand", polyrect.expand, gf, total)
    check(expanded == series, f"b={p.gf_b} height GF reproduces its series")
    m["genfunc.expand_check_s"] = (secs, "s")
    m["genfunc.series_terms"] = (total, "count")
    m["genfunc.recurrence_len"] = (gf.denominator.degree, "count")
    m["genfunc.max_bits"] = (_bits(series), "bit")

    b = p.area_gf_bs[0]
    a, _ = _timed(tracer, "automaton.build", polyrect.build, b)
    bivariate, whole = _timed(
        tracer, "genfunc.gf_height_area", polyrect.gf_height_area, b, automaton=a
    )
    total = 2 * a.n_states + FIT_EXTRA_TERMS + CHECK_TERMS
    table, secs = _timed(
        tracer, "counting.count_area_series", polyrect.count_area_series, a, total - 1
    )
    m["genfunc.gf_height_area_s"] = (whole, "s")
    m["genfunc.area_series_s"] = (secs, "s")
    m["genfunc.area_fit_s"] = (whole - secs, "s")
    expanded, secs = _timed(tracer, "polynomial.expand_bivariate", polyrect.expand, bivariate, total)
    check(expanded == list(table.area_counts), f"b={b} bivariate GF reproduces its area series")
    m["polynomial.expand_bivariate_s"] = (secs, "s")


def _oracle(tracer, p, runner, m, check) -> None:
    """One count scan and one histogram scan of the verify job's largest grid."""
    b, h = p.verify
    verify = workloads(p)["count"][2]
    want = runner.refs[verify.ref]["checks"]["oracle"][str(h)]
    count, count_s = _timed(tracer, "oracle.count", polyrect.brute_force_count, b, h)
    hist, hist_s = _timed(tracer, "oracle.histogram", polyrect.brute_force_area_histogram, b, h)
    check(count == want["count"], f"oracle count {b}x{h}")
    check({str(k): v for k, v in hist.items()} == want["histogram"], f"oracle histogram {b}x{h}")
    subsets = 1 << (b * h)
    m["oracle.count_s"] = (count_s, "s")
    m["oracle.histogram_s"] = (hist_s, "s")
    m["oracle.subsets"] = (subsets, "count")
    m["oracle.subsets_per_s"] = (2 * subsets / (count_s + hist_s), "1/s")


def job_pass(tracer: Tracer | None, runner: Runner, jobs) -> float:
    """Run each job once; with a tracer, under a span per job."""
    start = perf_counter()
    for job in jobs:
        if tracer is None:
            runner.run(job)
            continue
        name = f"cli.{job.argv[0]}" if job.kind == "cli" else LIBRARY_JOB_SPANS[job.kind]
        with tracer.patch(cli, CLI_CALLS), tracer.patch(genfunc, GENFUNC_CALLS):
            with tracer.span(name):
                runner.run(job)
    return perf_counter() - start
