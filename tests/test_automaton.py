import hashlib
import json
import re
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from polyrect import (
    AutomatonFormatError,
    AutomatonInvariantError,
    AutomatonVersionError,
    Automaton,
    AutomatonState,
    LabeledWord,
    ResourceLimitError,
    build,
    deserialize,
    export_dot,
    serialize,
    initial_state,
    state_count_formula,
)
from polyrect import automaton as automaton_module
from polyrect.cli import main
from polyrect.automaton import _explore, _parse_rows, catalan

from reference import export_dot_reference, serialize_reference, transfer_matrix

# closed-form state counts for b = 0..11
FORMULA_TABLE = [1, 2, 6, 16, 40, 99, 247, 625, 1605, 4178, 11006, 29292]

# sha256 of serialize(build(b)): b = 1..8 as produced by the three-phase
# transition map before the mask kernel replaced it, b = 9 by the mask kernel
SERIALIZED_SHA256 = {
    1: "00859872de3f3c7eb673412a7743c3635088a85475a38bcaff86dd67a6e74c74",
    2: "4b22e114a9b74f8884aa0f3cf7f7b861758a2fd76343e934d1333c3cdbf0de51",
    3: "1fe6bdaccd046801d1bb2b9418e66b8af59814d1f9c2322091f80f0fe790d7e4",
    4: "8e152fa4606c5d283a9abd163a0be437a6e43418ce9bd0c14f90037909e35d98",
    5: "1696b6bbebe814922148674db83690f860d03a8f7ec3a53d687a6946102d964b",
    6: "8b3145509337f05ff42d29e55d3474a3a95c3109d57f2756c1a076d3f48ce68b",
    7: "2b48487e3d58245b946ddfc2ea0055bf09db8ec7d166b511bc84a0aad217c298",
    8: "9ecaa74ca91d7775b3ab0c4408fe753379f238d0789085e5f12abfc44e5eefaf",
    9: "231dd585fb8bf4175135435499a772168e058686dd8eea232f173312a34fb5e1",
}

# sha256 of export_dot(build(b)), b = 1..7, as written one line per
# transition before rows were formatted per kernel word
EXPORT_DOT_SHA256 = {
    1: "712f746a409b9e41e72a5e1e5d2745457f697c4b2d5f451390f67d76e5cd566f",
    2: "42403a3d7afdc20473119ad7e99fae756c78fd7095f6ccce3c26cef5a3a3954e",
    3: "e4afb9a048fd1885580276e39795b7ce5382e61e0045e5cc726d5dbe601a4fac",
    4: "e84e62e580e3704fc63df176e487bade366ce303eaf574d8bcb79f7f93a1cd44",
    5: "a7cbee21f1c68c2413f543cbf8583790400fda6a88302dcb20d19052ec7aecb0",
    6: "4d170bde88b4c7629e54038e4baa7375f15dc4f3a37dc31cca02d04c936ebd73",
    7: "f9741cb07dbbd49e7b5d8cec4551456c56d0236e62a56997183f01edb101572d",
}


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan(-1)


def test_state_count_formula_matches_the_mask_loop():
    # one term per nonempty fill mask k: Catalan of its run count, doubled
    # for each empty end cell
    for width in range(17):
        total = 1
        for k in range(1, 1 << width):
            c = catalan((k & ~(k >> 1)).bit_count())
            if not k & 1:
                c *= 2
            if not k >> (width - 1):
                c *= 2
            total += c
        assert state_count_formula(width) == total, width
    # the top of the documented range returns
    assert state_count_formula(62) > state_count_formula(61)


def test_state_count_formula_table():
    assert [state_count_formula(b) for b in range(12)] == FORMULA_TABLE


def test_state_count_formula_bounds():
    with pytest.raises(ValueError):
        state_count_formula(-1)
    with pytest.raises(ValueError):
        state_count_formula(63)


def test_state_count_formula_rejects_bools_and_non_ints():
    for width in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError):
            state_count_formula(width)


def test_build_width_one():
    a = build(1)
    assert a.n_states == 2
    assert [str(s) for s in a.states] == ["(0,F,F)", "(1,T,T)"]
    assert a.accepting == frozenset({1})
    assert [row[0] for row in a.transitions] == [1, 1]


def test_build_width_two_explicit():
    a = build(2)
    assert [str(s) for s in a.states] == [
        "(00,F,F)",
        "(01,F,T)",
        "(10,T,F)",
        "(11,T,T)",
        "(01,T,T)",
        "(10,T,T)",
    ]
    assert a.accepting == frozenset({3, 4, 5})
    # from the initial state the three letters discover 01, 10, 11 in order
    assert list(a.transitions[0]) == [1, 2, 3]
    # [01, 10] loses the component: undefined
    assert a.transitions[1][2 - 1] < 0


def test_reachable_matches_formula():
    # empirical regression check; the counting results never assume it
    for width in range(1, 6):
        assert build(width).n_states == state_count_formula(width)


def test_build_rejects_bad_width():
    with pytest.raises(ValueError):
        build(0)
    with pytest.raises(ValueError):
        build(17)


def test_build_respects_state_ceiling():
    with pytest.raises(ResourceLimitError):
        build(3, max_states=5)


def test_state_ceiling_must_be_an_int():
    for bad in ("x", True, 2.0, None):
        with pytest.raises(ValueError, match="max_states must be an int"):
            build(3, bad)
    for ceiling in (0, -1):
        with pytest.raises(ResourceLimitError):
            build(3, ceiling)


def test_transfer_matrix_counts_letters():
    a = build(2)
    m = transfer_matrix(a)
    defined = sum(1 for row in a.transitions for t in row if t >= 0)
    assert sum(sum(row) for row in m) == defined
    assert m[0] == [0, 1, 1, 1, 0, 0]


def test_letters_reach_distinct_targets(automaton):
    # a target's filled cells are exactly its letter's, so every transfer
    # matrix entry is 0 or 1 and the counting DP needs no multiplicities
    for width in range(1, 7):
        a = automaton(width)
        assert all(entry in (0, 1) for row in transfer_matrix(a) for entry in row)
        for row in a.transitions:
            for rank, t in enumerate(row):
                if t >= 0:
                    labels = a.states[t].word.labels
                    fill = sum(1 << (width - 1 - i) for i, c in enumerate(labels) if c)
                    assert fill == rank + 1


def test_serialize_matches_pinned_digests(automaton):
    for width, digest in SERIALIZED_SHA256.items():
        assert hashlib.sha256(serialize(automaton(width))).hexdigest() == digest, width


def test_serialize_matches_reference(automaton):
    for width in range(1, 9):
        assert serialize(automaton(width)) == serialize_reference(automaton(width)), width


def test_export_dot_matches_pinned_digests(automaton):
    for width, digest in EXPORT_DOT_SHA256.items():
        assert hashlib.sha256(export_dot(automaton(width)).encode()).hexdigest() == digest, width


def _same_word_states(a):
    """Indices of the first kernel word held by at least four states."""
    groups = {}
    for i, s in enumerate(a.states):
        groups.setdefault(s.word, []).append(i)
    return next(g for g in groups.values() if len(g) >= 4)


def _drop_a_defined_letter(rows, group):
    # a -1 in a slot the word's shape defines
    row = rows[group[1]]
    row[next(k for k, t in enumerate(row) if t >= 0)] = -1


def _move_a_defined_letter(rows, group):
    # as many letters defined as the word's shape, but not the same ones
    row = rows[group[2]]
    row[next(k for k, t in enumerate(row) if t >= 0)] = -1
    row[next(k for k, t in enumerate(row) if t < 0)] = 0


def _reshape_the_first_state(rows, group):
    # the first state of a word sets the shape its later states are checked against
    row = rows[group[0]]
    row[next(k for k, t in enumerate(row) if t < 0)] = 0


def _negative_two_as_undefined(rows, group):
    # any negative target reads as undefined
    row = rows[group[0]]
    row[next(k for k, t in enumerate(row) if t < 0)] = -2
    rows[group[3]][next(k for k, t in enumerate(row) if t == -2)] = 1


def _empty_row(rows, group):
    rows[group[1]] = array("i", [-1]) * len(rows[group[1]])


@pytest.mark.parametrize("mutate", [
    _drop_a_defined_letter,
    _move_a_defined_letter,
    _reshape_the_first_state,
    _negative_two_as_undefined,
    _empty_row,
])
def test_hand_made_rows_serialize_as_reference(mutate):
    a = build(3)
    rows = [array("i", row) for row in a.transitions]
    mutate(rows, _same_word_states(a))
    hand_made = Automaton(a.width, a.states, a.accepting, tuple(rows))
    assert serialize(hand_made) != serialize(a)
    assert serialize(hand_made) == serialize_reference(hand_made)
    assert export_dot(hand_made) == export_dot_reference(hand_made)


def _wide_automaton():
    """A hand-made two-state automaton of width 10, whose words take commas."""
    width = 10
    last = AutomatonState(LabeledWord((1,) + (0,) * (width - 2) + (2,)), True, True)
    rows = [array("i", [-1]) * ((1 << width) - 1) for _ in range(2)]
    rows[0][(1 << width - 1 | 1) - 1] = 1
    return Automaton(width, (initial_state(width), last), frozenset(), tuple(rows))


def test_wide_words_serialize_with_commas():
    a = _wide_automaton()
    assert b'"word":"1,0,0,0,0,0,0,0,0,2"' in serialize(a)
    assert serialize(a) == serialize_reference(a)
    assert export_dot(a) == export_dot_reference(a)


def test_serialize_round_trip():
    for width in (1, 2, 3, 4):
        a = build(width)
        assert deserialize(serialize(a)) == a


def test_serialize_deterministic():
    assert serialize(build(3)) == serialize(build(3))


def test_deserialize_format_errors():
    with pytest.raises(AutomatonFormatError):
        deserialize(b"{not json")
    with pytest.raises(AutomatonFormatError):
        deserialize(b"\xff\xfe\x00")
    with pytest.raises(AutomatonFormatError):
        deserialize(b"[1,2,3]")
    doc = json.loads(serialize(build(2)))
    trimmed = {k: v for k, v in doc.items() if k != "accepting"}
    with pytest.raises(AutomatonFormatError):
        deserialize(json.dumps(trimmed).encode())
    truncated = serialize(build(2))[:-20]
    with pytest.raises(AutomatonFormatError):
        deserialize(truncated)
    # digits outside ASCII pass str.isdigit: "²" fails in int(), "٠" and "١" read as 0 and 1
    for a, state, words in (
        (build(2), 0, ["²²", "٠٠"]),
        (_wide_automaton(), 1, ["1,0,0,0,0,0,0,0,0,²", "1,0,0,0,0,0,0,0,0,١"]),
    ):
        for word in words:
            doc = json.loads(serialize(a))
            doc["states"][state]["word"] = word
            with pytest.raises(AutomatonFormatError, match="^bad word string"):
                deserialize(json.dumps(doc).encode())


def test_deserialize_reports_deep_nesting_as_bad_json():
    # too deep for the decoder, as a whole file and inside the header
    deep = "[" * 100_000
    for text in (deep, '{"version":1,"b":' + deep + ',"transitions":[]}'):
        with pytest.raises(AutomatonFormatError, match="^bad json: maximum recursion depth"):
            deserialize(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_deserialize_reports_a_number_over_the_digit_limit_as_bad_json():
    # the limit is in force: the conftest fixture undoes cli.main's lifting of it
    for text in ("7" * 5000, '{"version":1,"b":' + "7" * 5000 + ',"transitions":[]}'):
        with pytest.raises(AutomatonFormatError, match="^bad json: Exceeds the limit"):
            deserialize(text)


def test_deserialize_version_error():
    for version in (99, True, 1.0):
        doc = json.loads(serialize(build(2)))
        doc["version"] = version
        with pytest.raises(AutomatonVersionError):
            deserialize(json.dumps(doc).encode())


@pytest.mark.parametrize("key, value, prefix", [
    # bool is an int subclass, and 1.0 == 1, so width 1 would load as True
    ("b", True, "bad width True"),
    ("b", 1.0, "bad width 1.0"),
    ("accepting", [True], "bad accepting entry True"),
    ("accepting", [1.0], "bad accepting entry 1.0"),
    # unhashable, so it used to escape as a TypeError
    ("accepting", [[1]], "bad accepting entry [1]"),
])
def test_deserialize_rejects_non_int_numbers(key, value, prefix):
    doc = json.loads(serialize(build(1)))
    doc[key] = value
    with pytest.raises(AutomatonFormatError, match="^" + re.escape(prefix)):
        deserialize(json.dumps(doc).encode())


@pytest.mark.parametrize("pair, error, prefix", [
    ("x", AutomatonFormatError, "bad transition entry 'x' in row 0"),
    (5, AutomatonFormatError, "bad transition entry 5 in row 0"),
    ([1], AutomatonFormatError, "bad transition entry [1] in row 0"),
    ([1, 1, 1], AutomatonFormatError, "bad transition entry [1, 1, 1] in row 0"),
    (["1", 1], AutomatonFormatError, "bad transition entry ['1', 1] in row 0"),
    ([1.0, 1], AutomatonFormatError, "bad transition entry [1.0, 1] in row 0"),
    ([True, 1], AutomatonFormatError, "bad transition entry [True, 1] in row 0"),
    ([1, True], AutomatonFormatError, "bad transition entry [1, True] in row 0"),
    ([0, 1], AutomatonFormatError, "letter 0 out of range in row 0"),
    ([4, 1], AutomatonFormatError, "letter 4 out of range in row 0"),
    ([1, -1], AutomatonInvariantError, "target -1 out of range in row 0"),
    ([1, 6], AutomatonInvariantError, "target 6 out of range in row 0"),
])
def test_deserialize_rejects_bad_transition_entries(pair, error, prefix):
    doc = json.loads(serialize(build(2)))
    assert len(doc["states"]) == 6
    doc["transitions"][0][0] = pair
    with pytest.raises(error, match="^" + re.escape(prefix)):
        deserialize(json.dumps(doc).encode())


@pytest.mark.parametrize("key, index, value, prefix", [
    ("states", None, [], "states must be a nonempty list"),
    ("states", None, {}, "states must be a nonempty list"),
    ("accepting", None, {}, "accepting must be a list"),
    ("states", 1, 5, "bad state entry 5"),
    ("transitions", 1, 5, "transition row 1 must be a list"),
])
def test_deserialize_rejects_bad_shapes(key, index, value, prefix):
    doc = json.loads(serialize(build(2)))
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value
    with pytest.raises(AutomatonFormatError, match="^" + re.escape(prefix)):
        deserialize(json.dumps(doc).encode())


def test_deserialize_rejects_a_state_accepted_twice():
    # a full parse: the repeat makes the document no serialization
    doc = json.loads(serialize(build(3)))
    assert 7 in doc["accepting"]
    doc["accepting"].append(7)
    with pytest.raises(AutomatonFormatError, match="^accepting lists a state twice"):
        deserialize(json.dumps(doc).encode())


def tampered(mutate):
    doc = json.loads(serialize(build(2)))
    mutate(doc)
    return json.dumps(doc).encode()


def test_deserialize_invariant_errors():
    def retarget(doc):
        doc["transitions"][0][0][1] = 3

    def drop_transition(doc):
        doc["transitions"][0].pop()

    def wrong_accepting(doc):
        doc["accepting"] = doc["accepting"][:-1]

    def bad_word(doc):
        doc["states"][1]["word"] = "21"

    def duplicate_state(doc):
        doc["states"][1] = dict(doc["states"][2])
        doc["transitions"][1] = list(doc["transitions"][2])

    def not_initial_first(doc):
        doc["states"][0], doc["states"][1] = doc["states"][1], doc["states"][0]

    for mutate in (
        retarget,
        drop_transition,
        wrong_accepting,
        bad_word,
        duplicate_state,
        not_initial_first,
    ):
        with pytest.raises(AutomatonInvariantError):
            deserialize(tampered(mutate))


def test_deserialize_rejects_one_wrong_target(automaton):
    doc = json.loads(serialize(automaton(5)))
    row = doc["transitions"][40]
    entry = row[len(row) // 2]
    entry[1] = (entry[1] + 1) % len(doc["states"])
    with pytest.raises(AutomatonInvariantError, match="row 40 letter"):
        deserialize(json.dumps(doc, separators=(",", ":")).encode())


def test_deserialize_accepts_str_input():
    a = build(2)
    assert deserialize(serialize(a).decode()) == a


def test_deserialize_takes_any_bytes_like_input(monkeypatch):
    # bytearray and memoryview take the canonical path, as bytes and str do,
    # with or without trailing whitespace
    a = build(3)
    data = serialize(a)

    def full_parse(doc):
        raise AssertionError("the canonical input took the full parse")

    monkeypatch.setattr(automaton_module, "_checked_states", full_parse)
    for suffix in (b"", b"\n", b" \t\n\r", b"\r\n" * 50):  # any trailing JSON whitespace
        text = data + suffix
        for form in (text, bytearray(text), memoryview(text), text.decode()):
            assert deserialize(form) == a
    monkeypatch.undo()
    assert deserialize(bytearray(json.dumps(json.loads(data)).encode())) == a
    for bad in (5, None, 2.5, [1], bytearray(b"\xff\xfe")):
        with pytest.raises(AutomatonFormatError, match="^not utf-8"):
            deserialize(bad)


@pytest.mark.parametrize("width", range(1, 7))
def test_canonical_and_full_parse_agree(automaton, width):
    a = automaton(width)
    data = serialize(a)
    # the last form has spaces after separators, so only the full parse reads it
    for form in (data, data + b"\n", data.decode(), json.dumps(json.loads(data)).encode()):
        assert deserialize(form) == a


def _wrong_target(doc):
    row = doc["transitions"][40]
    entry = row[len(row) // 2]
    entry[1] = (entry[1] + 1) % len(doc["states"])


def _drop_last_row(doc):
    doc["transitions"].pop()


def _first_entry(pair):
    def mutate(doc):
        doc["transitions"][0][0] = pair
    return mutate


def _wrong_pair_first(doc):
    doc["transitions"][0].insert(0, [1, 5])  # row 0 then maps letter 1 twice, rightly last


@pytest.mark.parametrize("width, mutate, suffix, error, message", [
    (5, _wrong_target, b"", AutomatonInvariantError, "row 40 letter 20 should map to (10200,T,T)"),
    (5, _wrong_target, b" ", AutomatonInvariantError, "row 40 letter 20 should map to (10200,T,T)"),
    (5, None, b"\x0c", AutomatonFormatError, "bad json: Extra data: line 1 column 19111 (char 19110)"),
    (2, None, b"\x0c", AutomatonFormatError, "bad json: Extra data: line 1 column 359 (char 358)"),
    (2, _drop_last_row, b"", AutomatonFormatError, "transitions must list one row per state"),
    (2, _first_entry("x"), b"", AutomatonFormatError, "bad transition entry 'x' in row 0"),
    (2, _first_entry([1]), b"", AutomatonFormatError, "bad transition entry [1] in row 0"),
    (2, _first_entry([1.0, 1]), b"", AutomatonFormatError, "bad transition entry [1.0, 1] in row 0"),
    (2, _first_entry([True, 1]), b"", AutomatonFormatError, "bad transition entry [True, 1] in row 0"),
    (2, _first_entry([1, True]), b"", AutomatonFormatError, "bad transition entry [1, True] in row 0"),
    (2, _first_entry([4, 1]), b"", AutomatonFormatError, "letter 4 out of range in row 0"),
    (2, _first_entry([1, 6]), b"", AutomatonInvariantError, "target 6 out of range in row 0"),
    (2, _first_entry([1, 2]), b"", AutomatonInvariantError, "row 0 letter 1 should map to (01,F,T)"),
    (2, _wrong_pair_first, b"", AutomatonFormatError, "letter 1 repeated in row 0"),
])
def test_compact_faults_report_as_the_full_parse(automaton, width, mutate, suffix, error, message):
    # these texts keep serialize()'s layout, so each is tried as canonical first
    doc = json.loads(serialize(automaton(width)))
    if mutate is not None:
        mutate(doc)
    with pytest.raises(error) as info:
        deserialize(json.dumps(doc, separators=(",", ":")).encode() + suffix)
    assert type(info.value) is error and str(info.value) == message


# serialize(build(4)) with one byte replaced: in state 1's word (offset 74),
# in row 0's first target (1492) and in the last row's last target (4476).
# The messages were read at the code that compared the decoded whole text.
@pytest.mark.parametrize("offset, byte, error, message", [
    (74, b"3", AutomatonInvariantError, "invalid state '3001': label 3 out of range 0..2"),
    (74, b"x", AutomatonFormatError, "bad word string 'x001' for width 4"),
    (1492, b"3", AutomatonInvariantError, "row 0 letter 1 should map to (0001,F,T)"),
    (1492, b"x", AutomatonFormatError, "bad json: Expecting value: line 1 column 1493 (char 1492)"),
    (4476, b"3", AutomatonInvariantError, "row 39 letter 15 should map to (1111,T,T)"),
    (4476, b"x", AutomatonFormatError, "bad json: Expecting ',' delimiter: line 1 column 4477 (char 4476)"),
])
def test_one_changed_byte_reports_as_the_full_parse(offset, byte, error, message):
    data = serialize(build(4))
    mutated = data[:offset] + byte + data[offset + 1:]
    for form in (mutated, bytearray(mutated), memoryview(mutated), mutated.decode()):
        with pytest.raises(error) as info:
            deserialize(form)
        assert type(info.value) is error and str(info.value) == message, type(form)


@pytest.mark.parametrize("offset", [0, 74, 1492, 4476])
def test_canonical_file_that_is_not_utf8_is_rejected(offset):
    data = serialize(build(4))
    with pytest.raises(AutomatonFormatError) as info:
        deserialize(data[:offset] + b"\xff" + data[offset + 1:])
    assert str(info.value) == (
        f"not utf-8: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    )
    with pytest.raises(AutomatonFormatError, match="^not utf-8: 'utf-8' codec can't decode byte 0xff in position 0"):
        deserialize(data.decode().encode("utf-16"))


@pytest.mark.parametrize("suffix, message", [
    (b" x", "bad json: Extra data: line 1 column 4483 (char 4482)"),
    (b"\x0c", "bad json: Extra data: line 1 column 4482 (char 4481)"),
    (b"\n{}", "bad json: Extra data: line 2 column 1 (char 4482)"),
])
def test_canonical_file_with_trailing_data_is_rejected(suffix, message):
    data = serialize(build(4)) + suffix
    for form in (data, bytearray(data), data.decode()):
        with pytest.raises(AutomatonFormatError) as info:
            deserialize(form)
        assert str(info.value) == message


def test_earlier_transitions_key_is_overridden_by_the_last():
    a = build(2)
    bogus = b'{"transitions":5,' + serialize(a)[1:]
    assert deserialize(bogus) == a
    assert deserialize(serialize(a) + b" ") == a
    with pytest.raises(AutomatonInvariantError, match=re.escape("row 0 letter 1 should map to (01,F,T)")):
        deserialize(bogus.replace(b"[[1,1]", b"[[1,2]", 1))
    with pytest.raises(AutomatonFormatError, match="^letter 1 repeated in row 0$"):
        deserialize(bogus.replace(b"[[1,1]", b"[[1,5],[1,1]", 1))


def test_canonical_input_skips_the_pair_parse(monkeypatch, automaton):
    def refuse(*args):
        raise AssertionError("the pair parse ran")

    monkeypatch.setattr("polyrect.automaton._parse_rows", refuse)
    for width in range(1, 7):
        a = automaton(width)
        assert deserialize(serialize(a) + b"\n") == a
    with pytest.raises(AssertionError):
        deserialize(json.dumps(json.loads(serialize(build(2)))).encode())


def test_compact_fault_explores_once(monkeypatch, automaton):
    # the full parse reuses the rows the canonical attempt recomputed
    doc = json.loads(serialize(automaton(7)))
    entry = doc["transitions"][1][0]
    entry[1] = (entry[1] + 1) % len(doc["states"])
    calls = []

    def spy(*args):
        calls.append(args[0])
        return _explore(*args)

    monkeypatch.setattr("polyrect.automaton._explore", spy)
    with pytest.raises(AutomatonInvariantError) as info:
        deserialize(json.dumps(doc, separators=(",", ":")).encode())
    assert str(info.value) == "row 1 letter 1 should map to (0000001,F,T)"
    assert calls == [7]


def _spied(monkeypatch, calls):
    """Record each _explore call as its width and each _parse_rows call as "parse"."""
    def explore(*args):
        calls.append(args[0])
        return _explore(*args)

    def parse(*args):
        calls.append("parse")
        return _parse_rows(*args)

    monkeypatch.setattr("polyrect.automaton._explore", explore)
    monkeypatch.setattr("polyrect.automaton._parse_rows", parse)


def test_canonical_input_explores_once_and_parses_no_pair(monkeypatch, automaton):
    calls = []
    _spied(monkeypatch, calls)
    for width in range(1, 7):
        a = automaton(width)
        calls.clear()
        assert deserialize(serialize(a) + b"\n") == a
        assert calls == [width]


def _reversed(a):
    """The same automaton with its non-initial states listed in reverse order."""
    new = [0] + list(range(a.n_states - 1, 0, -1))  # new index of each state
    old = sorted(range(a.n_states), key=new.__getitem__)
    return Automaton(
        a.width,
        tuple(a.states[i] for i in old),
        frozenset(new[i] for i in a.accepting),
        tuple(array("i", [new[t] if t >= 0 else -1 for t in a.transitions[i]]) for i in old),
    )


@pytest.mark.parametrize("width", range(2, 6))
def test_reordered_states_load_through_the_full_parse(monkeypatch, automaton, width):
    reordered = _reversed(automaton(width))
    calls = []
    _spied(monkeypatch, calls)
    assert deserialize(serialize(reordered)) == reordered
    # the canonical attempt's build is renumbered into the listed order
    assert calls == [width, "parse"]


def test_build_peak_memory_stays_near_its_table():
    # build(7)'s dense table is n (2^b - 1) 4 = 625 * 127 * 4 = 317 500 bytes.
    # With each word's steps in two flat arrays the traced peak measured
    # 776 548 bytes, 2.45x the table, against 8.1x for a list of (rank, base)
    # tuples per word; the bound of 4x leaves a margin of about 1.6x.
    table = state_count_formula(7) * ((1 << 7) - 1) * 4
    assert _traced_peak(lambda: build(7)) < 4 * table


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Against build(7)'s own traced peak (852 456 bytes): a canonical load peaked
# at 1.25x, and the CLI build writing to a file at 1.07-1.26x, rendering one
# row at a time; holding the whole text, they peaked at 3.06x and 2.34-2.53x.
# The bound of 1.75x leaves a margin of about 1.4x.
def test_canonical_load_peak_memory_stays_near_build():
    data = serialize(build(7)) + b"\n"
    assert _traced_peak(lambda: deserialize(data)) < 1.75 * _traced_peak(lambda: build(7))


def test_cli_build_peak_memory_stays_near_build(tmp_path):
    path = str(tmp_path / "a.json")
    peak = _traced_peak(lambda: main(["build", "--b", "7", "--output", path]))
    assert peak < 1.75 * _traced_peak(lambda: build(7))
    assert deserialize(Path(path).read_bytes()) == build(7)


@pytest.mark.parametrize("width", [2, 3])
def test_step_leaving_the_listed_states_is_rejected(width):
    doc = json.loads(serialize(build(width)))
    last = len(doc["states"]) - 1
    del doc["states"][last], doc["transitions"][last]
    for row in doc["transitions"]:
        for pair in row:
            if pair[1] == last:
                pair[1] = 1
    doc["accepting"] = [i for i in doc["accepting"] if i != last]
    with pytest.raises(AutomatonInvariantError, match="^a step leaves the listed states$"):
        deserialize(json.dumps(doc, separators=(",", ":")).encode())


def _missing_a_state(a):
    """a's file with one state dropped and the rest listed in reverse order after state 0."""
    doc = json.loads(serialize(_reversed(a)))
    del doc["states"][1], doc["transitions"][1]
    doc["transitions"] = [[[bits, min(t, 1)] for bits, t in row] for row in doc["transitions"]]
    doc["accepting"] = []
    return json.dumps(doc, separators=(",", ":")).encode()


@pytest.mark.parametrize("width", [2, 3, 4])
def test_reordered_file_missing_a_state_is_rejected(width):
    with pytest.raises(AutomatonInvariantError, match="^a step leaves the listed states$"):
        deserialize(_missing_a_state(build(width)))


def test_later_states_key_is_checked_against_the_reused_build(monkeypatch):
    # the header lists build(2)'s six states, so its build is reused, but a
    # "states" key after the last "transitions" lists five of them
    short = json.loads(_missing_a_state(build(2)))
    head = serialize(build(2)).rpartition(b',"transitions":')[0]
    tail = {"transitions": short["transitions"], "states": short["states"]}
    data = head + b"," + json.dumps(tail, separators=(",", ":")).encode()[1:]
    calls = []
    _spied(monkeypatch, calls)
    with pytest.raises(AutomatonInvariantError, match="^a step leaves the listed states$"):
        deserialize(data)
    assert calls == [2, "parse"]


def test_each_load_explores_once(monkeypatch, automaton):
    # canonical, build order with spaces, reordered, and a state short
    a = automaton(4)
    files = [
        serialize(a),
        json.dumps(json.loads(serialize(a))).encode(),
        serialize(_reversed(a)),
        _missing_a_state(a),
    ]
    calls = []
    _spied(monkeypatch, calls)
    for data in files:
        calls.clear()
        try:
            deserialize(data)
        except AutomatonInvariantError:
            pass
        assert [c for c in calls if c != "parse"] == [4], calls


def test_reordered_wrong_target_reports_the_listed_numbering(automaton):
    reordered = _reversed(automaton(5))
    rows = [array("i", row) for row in reordered.transitions]
    letter = next(k for k, t in enumerate(rows[40]) if t >= 0)
    want = reordered.states[rows[40][letter]]
    rows[40][letter] = (rows[40][letter] + 1) % reordered.n_states
    faulty = Automaton(5, reordered.states, reordered.accepting, tuple(rows))
    with pytest.raises(AutomatonInvariantError) as info:
        deserialize(serialize(faulty))
    assert str(info.value) == f"row 40 letter {letter + 1} should map to {want}"


def test_export_dot():
    a = build(1)
    dot = export_dot(a)
    assert dot.startswith("digraph automaton {")
    assert '__start -> q0;' in dot
    assert 'q1 [shape=doublecircle' in dot
    assert 'q0 -> q1 [label="1"];' in dot
    assert export_dot(a) == dot  # deterministic


def test_export_dot_binary_labels():
    dot = export_dot(build(2))
    assert 'label="01"' in dot and 'label="11"' in dot
