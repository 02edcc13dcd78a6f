from collections import Counter
from itertools import product

import pytest

from polyrect import (
    FitError,
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
    gf_height_area,
    sample_accepted_stacks,
)
from polyrect import counting
from polyrect.counting import (
    FIT_SPAN,
    PLAN_PAYBACK_STEPS,
    _word_rows,
    dp_plan,
    group_series,
    lumped_rows,
    width_groups,
    word_quotient,
)
from polyrect.rowconfig import MAX_WIDTH, enumerate_alphabet, letter_runs
from polyrect.transition import advance

from reference import forward_area_counts, forward_counts, validate_table

# K for b = 1..9, the word quotients' classes less their initial ones: the
# degree bound of the generating functions, against the state counts 2, 6,
# 16, 40, 99, 247, 625, 1605, 4178
DEGREE_BOUNDS = [1, 3, 9, 20, 49, 112, 278, 681, 1753]
# g_w, the class count of the word quotient of width w = 1..9
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
    # a bool is an int to Python, but True is no height
    for h_max in (-1, True, 3.0, "3", None):
        with pytest.raises(ValueError, match="h_max must be"):
            count_series(automaton(2), h_max)
        with pytest.raises(ValueError, match="h_max must be"):
            count_area_series(automaton(2), h_max)


def test_width_validation():
    # a width that is not an int in 1..MAX_WIDTH, a bool included, is
    # refused before any word is explored
    for width in (0, -1, MAX_WIDTH + 1, True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match="width must be in"):
            count_series(width, 3)
        with pytest.raises(ValueError, match="width must be in"):
            count_area_series(width, 3)
        with pytest.raises(ValueError, match="width must be in"):
            gf_height(width)
        with pytest.raises(ValueError, match="width must be in"):
            gf_height_area(width)


def test_one_byte_slots_match_forward_dp(automaton):
    # the counts to h_max = 2 fit one byte, so the area DP runs on one-byte
    # slots; the forward DP sizes its own slots and takes no offset
    for width in range(1, 7):
        a = automaton(width)
        for h_max in (0, 1, 2):
            table = count_area_series(width, h_max)
            assert max(table.counts) < 256, (width, h_max)
            assert table.area_counts == forward_area_counts(a, h_max), (width, h_max)
            assert table.counts == count_series(width, h_max).counts, (width, h_max)


def _mirror(masks, width):
    """A kernel word or letter read right to left."""
    flip = [int(format(m, f"0{width}b")[::-1], 2) for m in masks]
    return tuple(sorted(flip, reverse=True))


def test_advance_commutes_with_reversal():
    # reading the columns right to left maps the word automaton to itself,
    # which is what makes the reversal classes a lumping
    for width in range(1, 8):
        words = [()]
        seen = {()}
        for word in words:
            for bits in range(1, 1 << width):
                (flipped,) = _mirror([bits], width)
                nxt = advance(word, bits, letter_runs(bits))
                back = advance(_mirror(word, width), flipped, letter_runs(flipped))
                if nxt is None:
                    assert back is None, (width, word, bits)
                    continue
                assert back == _mirror(nxt, width), (width, word, bits)
                if nxt not in seen:
                    seen.add(nxt)
                    words.append(nxt)
        assert len({min(w, _mirror(w, width)) for w in words}) == GROUP_SIZES[width - 1]


def test_reflection_class_counts():
    # g_w at w = 1..8; class 0 is the empty word: no component, no cell
    for width, size in enumerate(GROUP_SIZES[:8], 1):
        rows = word_quotient(width)
        assert len(rows) == size, width
        assert rows[0][:2] == (False, 0), width
        # the full row's word fills the width
        assert max(fill for _, fill, _ in rows) == width, width


def test_degree_bound_is_the_gf_degree():
    for width, k in enumerate(DEGREE_BOUNDS[:7], 1):
        assert gf_height(width).degrees()[2] == k, width


def test_window_groups_are_all_columns_groups_of_three_widths():
    # the groups of width b are the word quotients of widths b, b - 1 and
    # b - 2, those that are at least 1, with signs 1, -2, 1; one class per
    # group is initial, so K = sum(g_w - 1)
    for width, k in enumerate(DEGREE_BOUNDS, 1):
        groups = width_groups(width)
        widths = [w for w in (width, width - 1, width - 2) if w >= 1]
        assert [len(rows) for _, rows in groups] == [GROUP_SIZES[w - 1] for w in widths]
        assert [sign for sign, _ in groups] == [1, -2, 1][: len(widths)], width
        assert sum(len(rows) - 1 for _, rows in groups) == k, width


def _one_component_counts(a, letters, h_max):
    """Stacks over letters reaching a one-component word of a, by height 0..h_max."""
    one = [max(s.word.labels) == 1 for s in a.states]
    v = {0: 1}
    counts = [0]
    for _ in range(h_max):
        w = Counter()
        for s, weight in v.items():
            row = a.transitions[s]
            for bits in letters:
                if row[bits - 1] >= 0:
                    w[row[bits - 1]] += weight
        v = w
        counts.append(sum(x for s, x in v.items() if one[s]))
    return counts


def test_side_groups_count_narrower_boxes(automaton):
    # on the flagged automaton of width b, the stacks that avoid the left
    # column, the right column or both and end one component are counted
    # by the word quotients of widths b - 1, b - 1 and b - 2: the
    # inclusion-exclusion the signs 1, -2, 1 stand for
    for width in range(3, 8):
        a = automaton(width)
        half = 1 << (width - 1)
        letters = range(1, 1 << width)
        windows = (
            [bits for bits in letters if bits < half],
            [bits for bits in letters if bits % 2 == 0],
            [bits for bits in letters if bits < half and bits % 2 == 0],
        )
        for window, narrower in zip(windows, (width - 1, width - 1, width - 2)):
            want = group_series(word_quotient(narrower), 30)
            assert _one_component_counts(a, window, 30) == want, (width, narrower)
        everything = _one_component_counts(a, letters, 30)
        assert everything == group_series(word_quotient(width), 30), width


def _merged(members, c, d):
    """members with class d merged into class c < d, renumbered by first word."""
    def number(x):
        return c if x == d else x - (x > d)

    return [
        (number(x), (one, fill, sorted(map(number, out)))) for x, (one, fill, out) in members
    ]


def test_lumping_check_rejects_merged_classes():
    # the reversal classes are the coarsest lumping, so merging any two of
    # them breaks it; pairs that agree on accepting bit and fill count are
    # rejected by their target-class multisets alone
    for width in (3, 4):
        members = list(_word_rows(width))
        rows = lumped_rows(members)
        assert rows == word_quotient(width)
        same_kind = 0
        for c in range(len(rows)):
            for d in range(c + 1, len(rows)):
                with pytest.raises(ValueError):
                    lumped_rows(_merged(members, c, d))
                same_kind += rows[c][:2] == rows[d][:2]
        assert same_kind, width


def test_lumping_check_compares_fill_counts():
    # a word whose row differs from its class's only in the fill count would
    # keep the height series but not the area series
    members = list(_word_rows(3))
    classes = [c for c, _ in members]
    second = next(i for i, c in enumerate(classes) if classes.index(c) < i)
    c, (one, fill, out) = members[second]
    members[second] = c, (one, fill + 1, out)
    with pytest.raises(ValueError, match="not a lumping"):
        lumped_rows(members)


def test_counting_rejects_a_transition_into_the_initial_state():
    # every member of class 1 gains a step into class 0, so the classes are
    # still a lumping, but class 0 is no longer entered only at height 0
    members = [
        (c, (one, fill, [0, *out] if c == 1 else out)) for c, (one, fill, out) in _word_rows(3)
    ]
    with pytest.raises(ValueError, match="initial class"):
        lumped_rows(members)


def test_lumped_dp_matches_forward_dp(automaton):
    for width in range(1, 8):
        a = automaton(width)
        assert count_series(a, 40).counts == forward_counts(a, 40), width
        assert count_area_series(a, 40).area_counts == forward_area_counts(a, 40), width


def test_dp_plan_rebuilds_every_row():
    # each entry, applied to its parent's multiset, gives its row's target
    # multiset; parents come first, and at b = 5..7 a step takes at most
    # 0.35 of the additions a plain sum over every row would
    for width in range(1, 8):
        additions = targets = 0
        for _, rows in width_groups(width):
            plan = dp_plan(rows)
            assert sorted(c for c, _, _, _ in plan) == list(range(len(rows))), width
            built = {-1: Counter()}
            for c, p, plus, minus in plan:
                assert p in built, (width, c, p)
                row = built[p].copy()
                row.update(plus)
                row.subtract(minus)
                assert min(row.values(), default=0) >= 0, (width, c)
                assert +row == Counter(rows[c][2]), (width, c)
                built[c] = row
            additions += sum(len(plus) + len(minus) for _, _, plus, minus in plan)
            targets += sum(len(out) for _, _, out in rows)
        if width >= 5:
            assert additions <= 0.35 * targets, width


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
        assert gf == gf_height(width)
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
        for _, rows in width_groups(width):
            head = 2 * len(rows)
            heights |= {head - 2, head - 1, head, 2 * head}
            heights |= {FIT_SPAN * head - 2, FIT_SPAN * head - 1}
        reference = forward_counts(a, max(heights))
        for h in sorted(heights):
            assert count_series(a, h).counts == reference[: h + 1], (width, h)


def test_short_runs_build_no_plan(monkeypatch):
    # at b = 4 and h = 25 the width-2 series is fitted from 6 DP terms, and
    # only widths 4 and 3 run long enough to plan
    a = build(4)
    planned = []

    def spy(rows):
        planned.append(len(rows))
        return dp_plan(rows)

    monkeypatch.setattr(counting, "dp_plan", spy)
    assert count_area_series(a, 4).area_counts == forward_area_counts(a, 4)
    assert planned == []
    assert count_series(a, PLAN_PAYBACK_STEPS).counts == forward_counts(a, PLAN_PAYBACK_STEPS)
    assert planned == [GROUP_SIZES[3], GROUP_SIZES[2]]


def test_area_series_plans_each_width_once(monkeypatch):
    # the plain pass that sizes the slot and the area pass share one plan
    a = build(4)
    planned = []

    def spy(rows):
        planned.append(len(rows))
        return dp_plan(rows)

    monkeypatch.setattr(counting, "dp_plan", spy)
    table = count_area_series(a, PLAN_PAYBACK_STEPS)
    assert table.area_counts == forward_area_counts(a, PLAN_PAYBACK_STEPS)
    assert planned == [GROUP_SIZES[3], GROUP_SIZES[2], GROUP_SIZES[1]]


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
