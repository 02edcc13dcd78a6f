"""Acceptance gate: ten end-to-end criteria with pinned expected values.

Each test prints one PASS line; a failure carries the full diagnostic in the
assertion message.  Expected numbers come from the closed-form state count,
from in-test long division of the published width-2 closed form, and from the
brute-force oracle; automaton outputs are never used as their own reference.
"""

import itertools
import random
import time

import pytest

from polyrect import (
    AutomatonState,
    LabeledWord,
    RowConfig,
    accepts,
    brute_force_area_histogram,
    brute_force_count,
    count_area_series,
    count_series,
    deserialize,
    enumerate_valid_states,
    expand,
    fit_rational,
    gf_height,
    gf_height_area,
    initial_state,
    is_accepting,
    serialize,
    specialize_q,
    state_count_formula,
    step,
)
from polyrect.rowconfig import enumerate_alphabet
from polyrect.states import (
    canonical_ok,
    max_label,
    non_crossing_ok,
    separation_ok,
)

from reference import continuation_allowed, vertical_connexity

STATE_COUNTS = [1, 2, 6, 16, 40, 99, 247, 625, 1605, 4178, 11006, 29292]

FIG_ROWS = [
    "01111",
    "00001",
    "10101",
    "10101",
    "11101",
    "01001",
    "11111",
    "10101",
    "11101",
]

FIG_CHAIN = [
    "(00000,F,F)",
    "(01111,F,T)",
    "(00001,F,T)",
    "(10203,T,T)",
    "(10203,T,T)",
    "(11102,T,T)",
    "(01002,T,T)",
    "(11111,T,T)",
    "(10101,T,T)",
    "(11101,T,T)",
]


def test_criterion_01_state_count_formula():
    start = time.perf_counter()
    got = [state_count_formula(b) for b in range(12)]
    elapsed = time.perf_counter() - start
    assert got == STATE_COUNTS
    assert elapsed < 1.0, f"formula table took {elapsed:.3f}s"
    print(f"PASS criterion 1: state-count formula b=0..11 exact ({elapsed * 1e3:.1f} ms)")


def test_criterion_02_structural_enumeration():
    start = time.perf_counter()
    for b in range(10):
        assert len(enumerate_valid_states(b)) == state_count_formula(b), b
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"enumeration b<=9 took {elapsed:.1f}s"
    print(f"PASS criterion 2: structural enumeration matches formula for b=0..9 ({elapsed:.1f} s)")


def long_division(num, den, n):
    # series of num/den with den[0] == 1, plain loops on ints
    out = []
    for j in range(n):
        acc = num[j] if j < len(num) else 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc -= den[k] * out[j - k]
        out.append(acc)
    return out


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_criterion_03_width_two_closed_form():
    # numerator 2x^3 + 3x^2 - 2x + 1 over (x - 1)(x^2 + 2x - 1), ascending
    num = [1, -2, 3, 2]
    den = convolve([-1, 1], [-1, 2, 1])
    assert den[0] == 1
    want = long_division(num, den, 30)
    gf = gf_height(2)
    assert expand(gf, 30) == want
    fitted = fit_rational(want, 6)
    assert fitted.numerator.coeffs == tuple(num)
    assert fitted.denominator.coeffs == tuple(den)
    print("PASS criterion 3: width-2 closed form reproduced over 30 terms, fit exact")


def test_criterion_04_oracle_agreement(automaton):
    start = time.perf_counter()
    checked = 0
    for b in range(1, 7):
        table = count_area_series(automaton(b), 6)
        for h in range(1, 7):
            if b * h > 24:
                continue
            assert table.counts[h] == brute_force_count(b, h), (b, h)
            poly = table.area_counts[h]
            hist = {n: c for n, c in enumerate(poly.coeffs) if c}
            assert hist == brute_force_area_histogram(b, h), (b, h)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"PASS criterion 4: counts and histograms match brute force on {checked} grids ({elapsed:.1f} s)")


def test_criterion_05_transpose(automaton):
    tables = {b: count_series(automaton(b), 6).counts for b in range(1, 7)}
    for b in range(1, 7):
        for h in range(1, 7):
            assert tables[b][h] == tables[h][b], (b, h)
    print("PASS criterion 5: transpose symmetry for all b,h <= 6")


def test_criterion_06_gf_degrees():
    claimed = {3: 9, 4: 20, 5: 49, 6: 112}
    start = time.perf_counter()
    for b, want in claimed.items():
        gf = gf_height(b)
        dn, dd, dm = gf.degrees()
        if want not in (dn, dd, dm):
            pytest.fail(
                f"b={b}: claimed degree {want} matches no reading "
                f"(num {dn}, den {dd}, max {dm}); gf = ({gf.numerator}) / ({gf.denominator})"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"degree checks took {elapsed:.1f}s"
    print(f"PASS criterion 6: verified GF degrees 9/20/49/112 for b=3..6 ({elapsed:.1f} s)")


def test_criterion_07_figure_walkthrough(automaton):
    state = initial_state(5)
    visited = [str(state)]
    for text in FIG_ROWS:
        state = step(state, RowConfig.from_string(text))
        assert state is not None, text
        visited.append(str(state))
    assert visited == FIG_CHAIN
    assert is_accepting(state)
    assert accepts(automaton(5), [RowConfig.from_string(t) for t in FIG_ROWS])
    print("PASS criterion 7: 9-row walkthrough visits the exact state chain")


def test_criterion_08_worked_transition():
    word = LabeledWord((1, 0, 2, 0, 3, 0, 2, 0, 1, 0, 4))
    row = RowConfig.from_string("10111011101")
    assert vertical_connexity(word, row) == (1, 0, 2, 5, 3, 0, 2, 6, 1, 0, 4)
    state = AutomatonState(word, True, True)
    after = step(state, row)
    assert after is not None
    assert str(after.word) == "10111011102"
    print("PASS criterion 8: worked transition reproduces the intermediate and final words")


def test_criterion_09_bivariate_consistency(automaton):
    for b in (3, 4):
        bivariate = gf_height_area(b, automaton=automaton(b))
        collapsed = specialize_q(bivariate, 1)
        direct = gf_height(b)
        assert expand(collapsed, 20) == expand(direct, 20), b
    print("PASS criterion 9: area GF collapses to the height GF at q=1 for b=3,4")


def test_criterion_10_property_suites(automaton):
    # canonical form: a labeling is canonical exactly when it is its lex-min
    # relabeling, and a LabeledWord takes that relabeling, exhaustive
    for width in range(1, 7):
        bound = max_label(width)
        for labels in itertools.product(range(bound + 1), repeat=width):
            if not (separation_ok(labels) and non_crossing_ok(labels)):
                continue
            present = sorted(set(labels) - {0})
            best = min(
                tuple(dict(zip(present, perm)).get(a, 0) for a in labels)
                for perm in itertools.permutations(range(1, bound + 1), len(present))
            )
            assert canonical_ok(labels) == (labels == best), labels
            assert LabeledWord(best).labels == best

    # transitions preserve validity, flags are monotone
    rng = random.Random(55901)
    for width in range(1, 7):
        pool = enumerate_valid_states(width)
        for state in rng.sample(pool, min(len(pool), 30)):
            for row in enumerate_alphabet(width):
                after = step(state, row)
                if after is None:
                    assert not continuation_allowed(state.word, row)
                    continue
                assert after.left_touched >= state.left_touched
                assert after.right_touched >= state.right_touched

    # serialization round-trips
    for width in (1, 2, 3, 4):
        a = automaton(width)
        assert deserialize(serialize(a)) == a
    print("PASS criterion 10: property suites green (canonical form, transitions, round-trip)")
