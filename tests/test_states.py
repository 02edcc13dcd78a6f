import itertools

import pytest

from polyrect import (
    MAX_WIDTH,
    AutomatonState,
    LabeledWord,
    enumerate_valid_states,
    initial_state,
    is_accepting,
    state_count_formula,
)
from polyrect.states import (
    canonical_ok,
    max_label,
    non_crossing_ok,
    separation_ok,
)

from reference import first_occurrence_relabel


def crossing_pairs(labels):
    """Quartic reference check: positions i < k < j < l labeled a, c, a, c."""
    n = len(labels)
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(k + 1, n):
                for l in range(j + 1, n):
                    a, c = labels[i], labels[k]
                    if a and c and a != c and labels[j] == a and labels[l] == c:
                        return True
    return False


def all_words(width):
    bound = max_label(width)
    return itertools.product(range(bound + 1), repeat=width)


def valid_labelings(width):
    """Every labeling of the width that passes Separation and Non-crossing."""
    for labels in all_words(width):
        if separation_ok(labels) and non_crossing_ok(labels):
            yield labels


def lexmin_relabeling(labels):
    """The least labeling over every bijective renaming of the nonzero labels."""
    present = sorted(set(labels) - {0})
    return min(
        tuple(dict(zip(present, perm)).get(a, 0) for a in labels)
        for perm in itertools.permutations(range(1, max_label(len(labels)) + 1), len(present))
    )


def triplet_ok(labels, left, right):
    """The four state-validity conditions, as the constructors enforce them."""
    try:
        AutomatonState(LabeledWord(labels), left, right)
    except ValueError:
        return False
    return True


def test_max_label():
    assert [max_label(b) for b in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]


def test_separation():
    assert separation_ok((1, 1, 0, 2))
    assert not separation_ok((1, 2))
    assert separation_ok((0, 0))
    assert separation_ok(())


def test_non_crossing_matches_quartic_reference():
    for width in range(1, 7):
        for labels in all_words(width):
            assert non_crossing_ok(labels) == (not crossing_pairs(labels)), labels


def test_non_crossing_examples():
    assert non_crossing_ok((1, 2, 2, 1))
    assert not non_crossing_ok((1, 2, 1, 2))
    # zeros carry no component and never cross anything
    assert non_crossing_ok((0, 1, 0, 1))


def test_canonical_ok():
    assert canonical_ok((0, 1, 0, 2, 1))
    assert not canonical_ok((0, 2, 0, 1))
    assert not canonical_ok((2,))


def test_first_occurrence_relabel():
    assert first_occurrence_relabel((0, 3, 3, 0, 1)) == (0, 1, 1, 0, 2)
    assert first_occurrence_relabel((2, 0, 2)) == (1, 0, 1)


def test_canonicalize_is_lexmin_over_relabelings():
    # exhaustively: the canonical labeling is the least over all bijective
    # relabelings, and the reference's first-occurrence pass finds it
    for width in range(1, 7):
        for labels in valid_labelings(width):
            best = lexmin_relabeling(labels)
            assert canonical_ok(labels) == (labels == best), labels
            assert LabeledWord(best).labels == best
            assert first_occurrence_relabel(labels) == best, labels


def test_canonicalize_idempotent():
    for width in range(1, 7):
        for labels in valid_labelings(width):
            once = first_occurrence_relabel(labels)
            assert canonical_ok(once)
            assert first_occurrence_relabel(once) == once


def test_canonicalize_rejects_invalid():
    # a labeling that breaks Separation or Non-crossing has no canonical form:
    # renaming its labels cannot mend it, so LabeledWord rejects the relabeling
    assert not separation_ok((1, 2))
    with pytest.raises(ValueError):
        LabeledWord(first_occurrence_relabel((1, 2)))
    assert not non_crossing_ok((1, 0, 2, 0, 1, 0, 2))
    with pytest.raises(ValueError):
        LabeledWord(first_occurrence_relabel((1, 0, 2, 0, 1, 0, 2)))


def test_labeled_word_validation():
    LabeledWord((0, 1, 1, 0, 2))
    with pytest.raises(ValueError):
        LabeledWord((1, 2))  # separation
    with pytest.raises(ValueError):
        LabeledWord((1, 0, 2, 0, 1, 0, 2))  # crossing
    with pytest.raises(ValueError):
        LabeledWord((0, 2))  # not canonical
    with pytest.raises(ValueError):
        LabeledWord((5, 0))  # label above the width bound
    for labels in ((True, 0), (1.0, 0), (0, "1"), (None,)):
        with pytest.raises(ValueError):
            LabeledWord(labels)


def test_labeled_word_keeps_a_list_as_a_tuple():
    word = LabeledWord([1, 0, 2])
    assert word.labels == (1, 0, 2) and type(word.labels) is tuple
    assert word == LabeledWord((1, 0, 2))
    assert hash(word) == hash(LabeledWord((1, 0, 2)))
    state = AutomatonState(LabeledWord([0, 1, 1]), False, True)
    assert state == AutomatonState(LabeledWord((0, 1, 1)), False, True)
    assert len({state, AutomatonState(LabeledWord((0, 1, 1)), False, True)}) == 1


def test_state_flag_invariants():
    word = LabeledWord((1, 0, 0))
    AutomatonState(word, True, False)
    with pytest.raises(ValueError):
        AutomatonState(word, False, False)  # left cell filled, flag unset
    with pytest.raises(ValueError):
        AutomatonState(LabeledWord((0, 0, 1)), True, False)
    with pytest.raises(ValueError):
        AutomatonState(LabeledWord((0, 0)), True, False)  # empty word, flag set


def test_initial_state():
    s = initial_state(4)
    assert s.word.labels == (0, 0, 0, 0)
    assert not s.left_touched and not s.right_touched
    assert str(s) == "(0000,F,F)"


def test_is_valid_triplet():
    assert triplet_ok((0, 0), False, False)
    assert not triplet_ok((0, 0), True, False)
    assert triplet_ok((1, 0), True, False)
    assert not triplet_ok((1, 0), False, True)
    # the right flag alone: the left cell is empty and needs no flag
    assert triplet_ok((0, 1), False, True)
    assert not triplet_ok((0, 1), False, False)
    assert not triplet_ok((1, 2, 0), True, True)
    assert not triplet_ok((1, 0, 2, 0, 1, 0, 2), True, True)
    for labels in ((9, 0), (True,), (1.0, 0), (0, "1"), (None,)):
        assert not triplet_ok(labels, True, True)


def test_is_accepting():
    assert is_accepting(AutomatonState(LabeledWord((0, 1, 1)), True, True))
    assert not is_accepting(AutomatonState(LabeledWord((0, 1, 0)), True, False))
    assert not is_accepting(initial_state(3))
    two = AutomatonState(LabeledWord((1, 0, 2)), True, True)
    assert not is_accepting(two)


def test_enumerate_width_zero():
    table = enumerate_valid_states(0)
    assert len(table) == 1
    assert table[0].word.labels == ()


def test_enumerate_rejects_bools_and_non_ints():
    for width in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError):
            enumerate_valid_states(width)


def test_enumerate_rejects_widths_outside_zero_to_max_width():
    # width MAX_WIDTH + 1 has about 12.1 million valid states to enumerate
    for width in (-1, MAX_WIDTH + 1, True):
        with pytest.raises(ValueError, match=f"width must be in 0..{MAX_WIDTH}"):
            enumerate_valid_states(width)


def test_enumerate_small_widths_match_formula():
    for width in range(1, 7):
        assert len(enumerate_valid_states(width)) == state_count_formula(width)


def test_enumerate_b2_explicit():
    got = {str(s) for s in enumerate_valid_states(2)}
    assert got == {
        "(00,F,F)",
        "(01,F,T)",
        "(01,T,T)",
        "(10,T,F)",
        "(10,T,T)",
        "(11,T,T)",
    }


def test_enumerate_entries_are_distinct_and_deterministic():
    first = enumerate_valid_states(5)
    assert len(set(first)) == len(first)
    assert first == enumerate_valid_states(5)
    assert first[0] == initial_state(5)
