import random

import pytest

from polyrect import (
    AutomatonState,
    LabeledWord,
    RowConfig,
    enumerate_valid_states,
    initial_state,
    step,
)
from polyrect.rowconfig import enumerate_alphabet, letter_runs
from polyrect.states import max_label, word_labels, word_masks

from reference import continuation_allowed, horizontal_connexity, vertical_connexity


def word(text):
    return LabeledWord(tuple(int(c) for c in text))


def state(text, left, right):
    return AutomatonState(word(text), left, right)


def merge_reference(raw):
    """Fixed-point reference for the horizontal phase.

    Repeatedly merge any two label groups that touch within a run until
    nothing changes, then number groups by leftmost position.
    """
    groups = {a: {a} for a in raw if a}
    changed = True
    while changed:
        changed = False
        prev = 0
        for a in raw:
            if a and prev and groups[a] is not groups[prev]:
                union = groups[a] | groups[prev]
                for member in union:
                    groups[member] = union
                changed = True
            prev = a
    order = {}
    out = []
    for a in raw:
        if not a:
            out.append(0)
            continue
        key = frozenset(groups[a])
        if key not in order:
            order[key] = len(order) + 1
        out.append(order[key])
    return tuple(out)


def test_continuation():
    assert continuation_allowed(word("102"), RowConfig.from_string("101"))
    assert continuation_allowed(word("102"), RowConfig.from_string("111"))
    # component 2 receives no cell
    assert not continuation_allowed(word("102"), RowConfig.from_string("110"))
    assert continuation_allowed(word("000"), RowConfig.from_string("010"))
    with pytest.raises(ValueError):
        continuation_allowed(word("10"), RowConfig.from_string("110"))


def test_vertical_inherits_and_mints():
    got = vertical_connexity(word("10203020104"), RowConfig.from_string("10111011101"))
    assert got == (1, 0, 2, 5, 3, 0, 2, 6, 1, 0, 4)


def test_vertical_fresh_labels_stay_distinct():
    # uncovered cells each get their own fresh label; merging them is the
    # horizontal phase's job
    got = vertical_connexity(word("00000"), RowConfig.from_string("01110"))
    assert got == (0, 1, 2, 3, 0)


def test_vertical_requires_continuation():
    with pytest.raises(ValueError):
        vertical_connexity(word("102"), RowConfig.from_string("110"))


def test_horizontal_merges_linked_runs():
    assert horizontal_connexity((1, 0, 2, 5, 3, 0, 2, 6, 1, 0, 4)).labels == (
        1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 2,
    )
    assert horizontal_connexity((0, 1, 2, 3, 0)).labels == (0, 1, 1, 1, 0)


def test_horizontal_shared_letter_bridges_runs():
    # runs {1}, {2}, {1,3}: the 1 links the first and third runs
    assert horizontal_connexity((1, 0, 2, 0, 1, 3)).labels == (1, 0, 2, 0, 1, 1)


def test_horizontal_matches_fixed_point_reference():
    # domain: raw words as the vertical phase actually produces them
    rng = random.Random(20260814)
    for width in range(2, 7):
        pool = enumerate_valid_states(width)
        alphabet = enumerate_alphabet(width)
        checked = 0
        while checked < 150:
            s = rng.choice(pool)
            row = rng.choice(alphabet)
            if not continuation_allowed(s.word, row):
                continue
            raw = vertical_connexity(s.word, row)
            assert horizontal_connexity(raw).labels == merge_reference(raw), (s, row)
            checked += 1


def test_step_worked_example():
    s = state("10203020104", True, True)
    got = step(s, RowConfig.from_string("10111011101"))
    assert got is not None
    assert str(got.word) == "10111011102"
    assert got.left_touched and got.right_touched


def test_step_undefined_when_component_dies():
    s = state("01", False, True)
    assert step(s, RowConfig.from_string("10")) is None


def test_step_rejects_a_row_of_another_width():
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 2$"):
        step(initial_state(3), RowConfig.from_string("11"))


def test_step_sets_flags_monotonically():
    s = initial_state(3)
    after = step(s, RowConfig.from_string("010"))
    assert after == state("010", False, False)
    after = step(after, RowConfig.from_string("110"))
    assert after == state("110", True, False)
    after = step(after, RowConfig.from_string("011"))
    assert after == state("011", True, True)


def test_step_preserves_validity_on_random_states():
    # every defined successor must pass the state validators (the
    # constructors raise otherwise), flags never reset, labels stay bounded
    rng = random.Random(1789)
    for width in range(1, 7):
        pool = enumerate_valid_states(width)
        sample = rng.sample(pool, min(len(pool), 40))
        alphabet = enumerate_alphabet(width)
        bound = max_label(width)
        for s in sample:
            for row in alphabet:
                got = step(s, row)
                if got is None:
                    assert not continuation_allowed(s.word, row)
                    continue
                assert got.width == width
                assert got.left_touched >= s.left_touched
                assert got.right_touched >= s.right_touched
                assert max(got.word.labels) <= bound
                filled = {i for i, c in enumerate(str(row)) if c == "1"}
                assert {i for i, a in enumerate(got.word.labels) if a} == filled


def test_letter_runs_leftmost_first():
    assert letter_runs(0b1101101) == (0b1100000, 0b0001100, 0b0000001)
    assert letter_runs(0b0111) == (0b0111,)


def test_step_matches_three_phase_reference():
    # the mask kernel against the paper's phases, every (state, letter) pair
    for width in range(1, 7):
        for s in enumerate_valid_states(width):
            assert word_labels(word_masks(s.word.labels), width) == s.word.labels
            for row in enumerate_alphabet(width):
                got = step(s, row)
                if not continuation_allowed(s.word, row):
                    assert got is None, (s, row)
                    continue
                want = AutomatonState(
                    horizontal_connexity(vertical_connexity(s.word, row)),
                    s.left_touched or row.touches_left(),
                    s.right_touched or row.touches_right(),
                )
                assert got == want, (s, row)
