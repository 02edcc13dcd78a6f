from array import array
from collections import Counter
from dataclasses import replace

import pytest

from polyrect import (
    Automaton,
    AutomatonState,
    FitError,
    LabeledWord,
    Polynomial,
    RowConfig,
    accepts,
    brute_force_area_histogram,
    brute_force_count,
    count_area_series,
    count_series,
    expand,
    fit_rational,
    gf_height,
    sample_accepted_stacks,
)
from polyrect.counting import quotient_rows, reflection_quotient
from polyrect.rowconfig import enumerate_alphabet

from reference import forward_area_counts, forward_counts, validate_table

# reflection classes of the row automaton for b = 1..9, against the state
# counts 2, 6, 16, 40, 99, 247, 625, 1605, 4178
CLASS_COUNTS = [2, 4, 11, 23, 58, 132, 336, 826, 2154]


def rows(*texts):
    return [RowConfig.from_string(t) for t in texts]


def test_counts_start_with_convention(automaton):
    table = count_series(automaton(2), 0)
    assert table.counts == (1,)


def test_width_two_series_frozen(automaton):
    table = count_series(automaton(2), 5)
    assert table.counts == (1, 1, 5, 15, 39, 97)
    validate_table(table)


def test_width_one_series(automaton):
    assert count_series(automaton(1), 4).counts == (1, 1, 1, 1, 1)


def test_series_matches_oracle(automaton):
    for width in (1, 2, 3, 4):
        table = count_area_series(automaton(width), 4)
        validate_table(table)
        for h in range(1, 5):
            assert table.counts[h] == brute_force_count(width, h), (width, h)
            poly = table.area_counts[h]
            hist = {n: c for n, c in enumerate(poly.coeffs) if c}
            assert hist == brute_force_area_histogram(width, h), (width, h)


def test_area_polynomials_frozen(automaton):
    table = count_area_series(automaton(2), 3)
    assert table.area_counts[0] == 1
    assert table.area_counts[1] == Polynomial((0, 0, 1))
    assert table.area_counts[2] == Polynomial((0, 0, 0, 4, 1))
    assert table.area_counts[3] == Polynomial((0, 0, 0, 0, 8, 6, 1))


def test_area_collapses_to_counts(automaton):
    table = count_area_series(automaton(3), 8)
    plain = count_series(automaton(3), 8)
    assert plain.counts == table.counts
    for h in range(9):
        assert table.area_counts[h].evaluate(1) == plain.counts[h]


def test_uncollapsed_reference_dp(automaton):
    # same DP letter by letter, no multiplicity collapsing
    for width in (1, 2, 3):
        a = automaton(width)
        alphabet = enumerate_alphabet(width)
        v = [0] * a.n_states
        v[0] = 1
        counts = [1]
        for _ in range(5):
            w = [0] * a.n_states
            for s, weight in enumerate(v):
                if not weight:
                    continue
                for row in alphabet:
                    t = a.transitions[s][row.bits - 1]
                    if t >= 0:
                        w[t] += weight
            v = w
            counts.append(sum(v[i] for i in a.accepting))
        assert tuple(counts) == count_series(a, 5).counts


def test_transpose_symmetry(automaton):
    for b in range(1, 5):
        for h in range(1, 5):
            assert (
                count_series(automaton(b), h).counts[h]
                == count_series(automaton(h), b).counts[b]
            ), (b, h)


def test_monotone_growth_regression(automaton):
    for width in (2, 3, 4):
        counts = count_series(automaton(width), 8).counts
        for h in range(2, 8):
            assert counts[h + 1] >= counts[h]


def test_accepts_basic(automaton):
    a2 = automaton(2)
    assert accepts(a2, rows("11"))
    assert not accepts(a2, rows("01", "10"))
    assert not accepts(a2, rows("01"))
    assert not accepts(a2, [])
    with pytest.raises(ValueError):
        accepts(a2, rows("111"))


def test_accepts_agrees_with_oracle_membership(automaton):
    a = automaton(3)
    stacks = sample_accepted_stacks(3, 3, 200)
    assert len(stacks) == brute_force_count(3, 3)
    for stack in stacks:
        assert accepts(a, stack)


def test_mirror_symmetry(automaton):
    # left-right reflection of an accepted stack is accepted
    a = automaton(3)
    for stack in sample_accepted_stacks(3, 3, 60):
        mirrored = [RowConfig.from_string(str(r)[::-1]) for r in stack]
        assert accepts(a, mirrored)


def test_rejects_non_polyomino_stacks(automaton):
    a = automaton(2)
    total = sum(1 for bits1 in range(1, 4) for bits2 in range(1, 4)
                if accepts(a, [RowConfig(2, bits1), RowConfig(2, bits2)]))
    assert total == brute_force_count(2, 2)


def test_h_max_validation(automaton):
    with pytest.raises(ValueError):
        count_series(automaton(2), -1)
    with pytest.raises(ValueError):
        count_area_series(automaton(2), -1)


def _numbered(labels):
    """A partition renumbered in order of first state, as quotient_rows takes it."""
    first: dict = {}
    return [first.setdefault(x, len(first)) for x in labels]


def test_reflection_class_counts(automaton):
    for width, want in enumerate(CLASS_COUNTS, 1):
        classes, rows = reflection_quotient(automaton(width))
        assert len(rows) == want == max(classes) + 1, width
        assert classes[0] == 0
        # every class is one state or a mirror pair
        assert max(Counter(classes).values()) <= 2, width


def test_lumping_check_rejects_merged_classes(automaton):
    # the reflection classes are the coarsest lumping, so merging any two of
    # them breaks it; pairs that agree on accepting bit and fill count are
    # rejected by their target-class multisets alone
    a = automaton(3)
    classes, rows = reflection_quotient(a)
    assert quotient_rows(a, classes) == rows
    same_kind = 0
    for c in range(len(rows)):
        for d in range(c + 1, len(rows)):
            merged = _numbered([c if x == d else x for x in classes])
            assert quotient_rows(a, merged) is None, (c, d)
            same_kind += rows[c][:2] == rows[d][:2]
    assert same_kind


def test_lumping_check_compares_fill_counts():
    # two accepting dead ends, (11,T,T) and (01,T,T), agree on everything
    # but their fill counts, so merging them would be a lumping of the
    # height series but not of the area series
    states = tuple(
        AutomatonState(LabeledWord(w), bool(w[0] or w[1]), bool(w[0] or w[1]))
        for w in ((0, 0), (1, 1), (0, 1))
    )
    rows = (array("i", [2, -1, 1]), array("i", [-1] * 3), array("i", [-1] * 3))
    a = Automaton(2, states, frozenset({1, 2}), rows)
    assert quotient_rows(a, [0, 1, 2]) is not None
    assert quotient_rows(a, [0, 1, 1]) is None
    assert count_area_series(a, 1).area_counts[1] == Polynomial((0, 1, 1))


def test_asymmetric_copy_counts_on_singleton_classes(automaton):
    # drop one transition of a state whose mirror image is another state:
    # the orbits are no longer a lumping, so every state is its own class
    a = automaton(3)
    classes, _ = reflection_quotient(a)
    s = next(i for i, c in enumerate(classes) if classes.count(c) == 2)
    row = a.transitions[s][:]
    rank = next(r for r, t in enumerate(row) if t >= 0)
    row[rank] = -1
    edited = replace(a, transitions=a.transitions[:s] + (row,) + a.transitions[s + 1 :])
    assert reflection_quotient(edited)[0] == list(range(a.n_states))
    counts = count_series(edited, 12).counts
    assert counts == forward_counts(edited, 12)
    assert counts != count_series(a, 12).counts
    assert count_area_series(edited, 8).area_counts == forward_area_counts(edited, 8)


def test_lumped_dp_matches_forward_dp(automaton):
    for width in range(1, 8):
        a = automaton(width)
        assert count_series(a, 40).counts == forward_counts(a, 40), width
        assert count_area_series(a, 40).area_counts == forward_area_counts(a, 40), width


def test_fit_needs_two_k_plus_two_terms(automaton):
    # k classes bound both degrees, so 2k + 2 terms fix the fit and 2k + 1
    # are refused
    for width in range(1, 5):
        a = automaton(width)
        k = CLASS_COUNTS[width - 1]
        counts = list(count_series(a, 4 * k).counts)
        with pytest.raises(FitError, match="insufficient terms"):
            fit_rational(counts[: 2 * k + 1], k)
        gf = fit_rational(counts[: 2 * k + 2], k)
        assert gf == gf_height(width, automaton=a)
        assert expand(gf, 4 * k + 1) == counts, width
