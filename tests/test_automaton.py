import hashlib
import json

import pytest

from polyrect import (
    AutomatonFormatError,
    AutomatonInvariantError,
    AutomatonVersionError,
    ResourceLimitError,
    RowConfig,
    build,
    deserialize,
    export_dot,
    serialize,
    state_count_formula,
)
from polyrect.automaton import catalan, runs_of_ones

from reference import transfer_matrix

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


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan(-1)


def test_runs_of_ones():
    assert runs_of_ones(1) == 1
    assert runs_of_ones(0b1011) == 2
    assert runs_of_ones(0b10101) == 3
    assert runs_of_ones(0b1111) == 1
    with pytest.raises(ValueError):
        runs_of_ones(0)


def test_state_count_formula_table():
    assert [state_count_formula(b) for b in range(12)] == FORMULA_TABLE


def test_state_count_formula_bounds():
    with pytest.raises(ValueError):
        state_count_formula(-1)
    with pytest.raises(ValueError):
        state_count_formula(63)


def test_build_width_one():
    a = build(1)
    assert a.n_states == 2
    assert [str(s) for s in a.states] == ["(0,F,F)", "(1,T,T)"]
    assert a.accepting == frozenset({1})
    assert a.target(0, RowConfig(1, 1)) == 1
    assert a.target(1, RowConfig(1, 1)) == 1


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
    assert [a.target(0, RowConfig(2, bits)) for bits in (1, 2, 3)] == [1, 2, 3]
    # [01, 10] loses the component: undefined
    assert a.target(1, RowConfig(2, 2)) is None


def test_reachable_matches_formula():
    # empirical regression check; the counting results never assume it
    for width in range(1, 6):
        assert build(width).n_states == state_count_formula(width)


def test_target_width_mismatch():
    a = build(2)
    with pytest.raises(ValueError):
        a.target(0, RowConfig(3, 1))


def test_build_rejects_bad_width():
    with pytest.raises(ValueError):
        build(0)
    with pytest.raises(ValueError):
        build(17)


def test_build_respects_state_ceiling():
    with pytest.raises(ResourceLimitError):
        build(3, max_states=5)


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


def test_deserialize_version_error():
    doc = json.loads(serialize(build(2)))
    doc["version"] = 99
    with pytest.raises(AutomatonVersionError):
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
