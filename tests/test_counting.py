from array import array
from collections import Counter
from dataclasses import replace
from itertools import product

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
    build,
    brute_force_count,
    count_area_series,
    count_series,
    expand,
    fit_rational,
    gf_height,
    initial_state,
    sample_accepted_stacks,
)
from polyrect.counting import (
    FIT_SPAN,
    PLAN_PAYBACK_STEPS,
    dp_plan,
    group_series,
    quotient_rows,
    window_groups,
    window_nodes,
    window_quotient,
)
from polyrect.rowconfig import enumerate_alphabet

from reference import forward_area_counts, forward_counts, validate_table

# classes of the window quotient for b = 1..9, against the state counts 2, 6,
# 16, 40, 99, 247, 625, 1605, 4178, and K, the classes less the initial ones:
# the degree bound of the generating functions
CLASS_COUNTS = [3, 6, 12, 23, 52, 115, 281, 684, 1756]
DEGREE_BOUNDS = [1, 3, 9, 20, 49, 112, 278, 681, 1753]
# g_w, the class count of the all-columns window group at width w = 1..9
GROUP_SIZES = [2, 3, 7, 13, 32, 70, 179, 435, 1142]


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
    # counts[2][8] comes from the recurrence past 2K + 1 = 7, counts[8][2]
    # from the DP
    for b, h in [*product(range(1, 5), repeat=2), (2, 8)]:
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
    for width, (want, k) in enumerate(zip(CLASS_COUNTS, DEGREE_BOUNDS), 1):
        classes, rows, starts = window_quotient(automaton(width))
        assert len(rows) == want == max(classes) + 1, width
        assert len(rows) - len({c for _, c in starts}) == k, width
        # all columns, left empty, right empty, both empty; the two side
        # copies share their initial class
        assert [sign for sign, _ in starts] == [1, -1, -1, 1]
        assert starts[0][1] == classes[0] == 0
        assert starts[1][1] == starts[2][1]


def test_degree_bound_is_the_gf_degree(automaton):
    for width, k in enumerate(DEGREE_BOUNDS[:7], 1):
        assert gf_height(width, automaton=automaton(width)).degrees()[2] == k, width


def test_window_groups_are_all_columns_groups_of_three_widths(automaton):
    # the groups of width b are the all-columns groups of widths b, b - 1
    # and b - 2, with signs 1, -2, 1; one class per group is initial, so
    # K = sum(g_w - 1)
    for width, (k, size) in enumerate(zip(DEGREE_BOUNDS, GROUP_SIZES), 1):
        groups = window_groups(automaton(width))
        sizes = [hi - lo for _, lo, hi in groups]
        assert sizes[0] == size, width
        assert sum(g - 1 for g in sizes) == k, width
        if width >= 3:
            assert sizes == [GROUP_SIZES[w - 1] for w in (width, width - 1, width - 2)], width
            assert [sign for sign, _, _ in groups] == [1, -2, 1], width


def test_window_groups_reject_a_target_in_another_group(automaton):
    # each group's DP runs alone only while its targets stay in it
    a = automaton(3)
    classes, rows, starts = window_quotient(a)
    (_, lo, hi), (_, other, _) = window_groups(a)[:2]
    row = next(c for c in range(lo, hi) if rows[c][2])
    edited = replace(a)
    leaving = (*rows[row][:2], sorted(rows[row][2] + [other + 1]))
    edited.__dict__["_window_quotient"] = classes, [*rows[:row], leaving, *rows[row + 1 :]], starts
    with pytest.raises(ValueError, match="leaves its window group"):
        window_groups(edited)


def test_side_groups_count_narrower_boxes(automaton):
    # the side strip's group counts what the all-columns group of width
    # b - 1 counts, and the both-empty group what that of width b - 2 does
    for width in range(3, 8):
        a = automaton(width)
        for group, narrower in zip(window_groups(a)[1:], (width - 1, width - 2)):
            b = automaton(narrower)
            all_columns = window_groups(b)[0]
            assert group_series(a, group, 30) == group_series(b, all_columns, 30), width


def test_lumping_check_rejects_merged_classes(automaton):
    # the window classes are the coarsest lumping, so merging any two of
    # them breaks it; pairs that agree on accepting bit and fill count are
    # rejected by their target-class multisets alone
    a = automaton(3)
    nodes = window_nodes(a)
    classes, rows, _ = window_quotient(a)
    assert quotient_rows(a, nodes, classes) == rows
    same_kind = 0
    for c in range(len(rows)):
        for d in range(c + 1, len(rows)):
            merged = _numbered([c if x == d else x for x in classes])
            assert quotient_rows(a, nodes, merged) is None, (c, d)
            same_kind += rows[c][:2] == rows[d][:2]
    assert same_kind


def _width_two(accepting, right_flags):
    """(00,F,F) reaching (01,*,*) on letter 01 and (11,T,T) on letter 11."""
    states = (
        initial_state(2),
        AutomatonState(LabeledWord((1, 1)), True, True),
        AutomatonState(LabeledWord((0, 1)), *right_flags),
    )
    rows = (array("i", [2, -1, 1]), array("i", [-1] * 3), array("i", [-1] * 3))
    return Automaton(2, states, frozenset(accepting), rows)


def test_lumping_check_compares_fill_counts():
    # two one-component dead ends, (01,F,T) and (11,T,T), agree on everything
    # but their fill counts, so merging them would be a lumping of the
    # height series but not of the area series
    a = _width_two({1}, (False, True))
    nodes = window_nodes(a)
    assert nodes[1:3] == [(0, 1), (0, 2)]
    singletons = list(range(len(nodes)))
    rows = quotient_rows(a, nodes, singletons)
    assert rows[1][::2] == rows[2][::2] and rows[1][1] != rows[2][1]
    assert quotient_rows(a, nodes, [0, 1, 1, *range(2, len(nodes) - 1)]) is None
    assert count_area_series(a, 1).area_counts[1] == Polynomial((0, 0, 1))


def test_counting_rejects_flags_that_do_not_follow_the_letters():
    # letter 01 touches only the right side, so (01,T,T) cannot follow
    # (00,F,F) on it; the counts would not be the automaton's
    a = _width_two({1, 2}, (True, True))
    with pytest.raises(ValueError, match="flags"):
        count_series(a, 2)
    with pytest.raises(ValueError, match="flags"):
        count_area_series(a, 2)


def test_counting_rejects_an_accepting_set_off_the_flags():
    # (01,F,T) is one component but has not touched the left side
    a = _width_two({1, 2}, (False, True))
    with pytest.raises(ValueError, match="accepts"):
        count_series(a, 2)


def test_counting_rejects_a_transition_into_the_initial_state():
    # letter 010 touches no side, so the flags allow (000,F,F) to loop
    row = array("i", [-1] * 7)
    row[0b010 - 1] = 0
    a = Automaton(3, (initial_state(3),), frozenset(), (row,))
    with pytest.raises(ValueError, match="initial state"):
        count_series(a, 2)


def test_asymmetric_copy_counts_on_singleton_classes(automaton):
    # drop one transition of a state whose class has another member: the
    # classes are no longer a lumping, so every node is its own class
    a = automaton(3)
    classes, _, _ = window_quotient(a)
    nodes = window_nodes(a)
    s = next(s for (w, s), c in zip(nodes, classes) if w == 0 and classes.count(c) > 1)
    row = a.transitions[s][:]
    rank = next(r for r, t in enumerate(row) if t >= 0)
    row[rank] = -1
    edited = replace(a, transitions=a.transitions[:s] + (row,) + a.transitions[s + 1 :])
    edited_classes = window_quotient(edited)[0]
    assert edited_classes == list(range(len(edited_classes)))
    counts = count_series(edited, 12).counts
    assert counts == forward_counts(edited, 12)
    assert counts != count_series(a, 12).counts
    assert count_area_series(edited, 8).area_counts == forward_area_counts(edited, 8)


def test_lumped_dp_matches_forward_dp(automaton):
    for width in range(1, 8):
        a = automaton(width)
        assert count_series(a, 40).counts == forward_counts(a, 40), width
        assert count_area_series(a, 40).area_counts == forward_area_counts(a, 40), width


def test_dp_plan_rebuilds_every_row(automaton):
    # each entry, applied to its parent's multiset, gives its row's target
    # multiset in the group's own class numbers; parents come first, and at
    # b = 5..7 a step takes at most 0.35 of the additions a plain sum over
    # every row would
    for width in range(1, 8):
        a = automaton(width)
        _, rows, _ = window_quotient(a)
        additions = 0
        for group in window_groups(a):
            _, lo, hi = group
            plan = dp_plan(a, group)
            assert sorted(c for c, _, _, _ in plan) == list(range(hi - lo)), width
            built = {-1: Counter()}
            for c, p, plus, minus in plan:
                assert p in built, (width, c, p)
                row = built[p].copy()
                row.update(plus)
                row.subtract(minus)
                assert min(row.values(), default=0) >= 0, (width, c)
                assert +row == Counter(t - lo for t in rows[lo + c][2]), (width, c)
                built[c] = row
            additions += sum(len(plus) + len(minus) for _, _, plus, minus in plan)
        if width >= 5:
            assert additions <= 0.35 * sum(len(targets) for _, _, targets in rows), width


def test_fit_needs_two_k_plus_two_terms(automaton):
    # K bounds both degrees, so 2K + 2 terms fix the fit and 2K + 1 are
    # refused
    for width in range(1, 5):
        a = automaton(width)
        k = DEGREE_BOUNDS[width - 1]
        counts = list(forward_counts(a, 4 * k))
        with pytest.raises(FitError, match="insufficient terms"):
            fit_rational(counts[: 2 * k + 1], k)
        gf = fit_rational(counts[: 2 * k + 2], k)
        assert gf == gf_height(width, automaton=a)
        assert expand(gf, 4 * k + 1) == counts, width


def test_series_past_two_k_plus_one_matches_forward_dp(automaton):
    # past 2K + 1 the terms come from the fitted recurrence: check them, and
    # the last DP terms before them, against the forward DP on the full
    # automaton.  At b = 6 the recurrence has 89-bit coefficients, so the
    # lift from one prime is wrong and only the exact check rejects it
    for width, k in enumerate(DEGREE_BOUNDS[:6], 1):
        a = automaton(width)
        heights = (2 * k + 2,) if width == 6 else (2 * k, 2 * k + 1, 2 * k + 2, 4 * k + 4)
        reference = forward_counts(a, max(heights))
        for h in heights:
            assert count_series(a, h).counts == reference[: h + 1], (width, h)


def test_each_group_fit_switch_matches_forward_dp(automaton):
    # around 2k + 2, where a group's fit could start, and around FIT_SPAN
    # times that, where it does, for every group's k
    for width in range(2, 7):
        a = automaton(width)
        heights = set()
        for _, lo, hi in window_groups(a):
            head = 2 * (hi - lo)
            heights |= {head - 2, head - 1, head, 2 * head}
            heights |= {FIT_SPAN * head - 2, FIT_SPAN * head - 1}
        reference = forward_counts(a, max(heights))
        for h in sorted(heights):
            assert count_series(a, h).counts == reference[: h + 1], (width, h)


def test_short_runs_build_no_plan():
    a = build(4)
    assert count_area_series(a, 4).area_counts == forward_area_counts(a, 4)
    assert "_dp_plans" not in a.__dict__
    assert count_series(a, PLAN_PAYBACK_STEPS).counts == forward_counts(a, PLAN_PAYBACK_STEPS)
    assert "_dp_plans" in a.__dict__


def test_short_series_is_a_prefix_of_a_tall_one(automaton):
    a = automaton(4)
    tall = count_series(a, 300).counts
    for h in (0, 1, 40, 41, 42, 299):
        assert count_series(a, h).counts == tall[: h + 1], h


def test_recurrence_terms_match_the_oracle(automaton):
    # K = 3 at b = 2, so heights 8..12 come from the recurrence; the oracle
    # reaches them within its 24-cell ceiling
    counts = count_series(automaton(2), 12).counts
    for h in range(8, 13):
        assert counts[h] == brute_force_count(2, h), h
