import copy
import pickle

import pytest

from polyrect import (
    Automaton,
    AutomatonState,
    GridSubset,
    LabeledWord,
    Polynomial,
    RationalGF,
    RowConfig,
    SeriesTable,
    build,
)

# (class, a factory of one instance, its repr, constructor arguments that
# raise ValueError with the message that starts as given)
RECORDS = [
    (RowConfig, lambda: RowConfig(3, 5), "RowConfig(width=3, bits=5)", [
        ((0, 1), "width must be in 1..16, got 0"),
        ((3, 0), "bits must encode a nonempty width-3 row, got 0"),
    ]),
    (LabeledWord, lambda: LabeledWord((1, 0, 2)), "LabeledWord(labels=(1, 0, 2))", [
        (((1, 2, 0),), r"separation violated: \(1, 2, 0\)"),
        (((2, 0, 1),), r"not canonically labeled: \(2, 0, 1\)"),
    ]),
    (
        AutomatonState,
        lambda: AutomatonState(LabeledWord((1, 0)), True, False),
        "AutomatonState(word=LabeledWord(labels=(1, 0)), left_touched=True,"
        " right_touched=False)",
        [
            ((LabeledWord((0, 0)), True, False), "empty word cannot have touched a side"),
            ((LabeledWord((1, 0)), False, False), "leftmost cell filled but left flag unset"),
        ],
    ),
    (
        Automaton,
        lambda: build(1),
        "Automaton(width=1, states=(AutomatonState(word=LabeledWord(labels=(0,)),"
        " left_touched=False, right_touched=False), AutomatonState(word=LabeledWord("
        "labels=(1,)), left_touched=True, right_touched=True)), accepting=frozenset({1}),"
        " transitions=(array('i', [1]), array('i', [1])))",
        [],
    ),
    (
        SeriesTable,
        lambda: SeriesTable(2, (0, 1), (Polynomial(), Polynomial((0, 0, 1)))),
        "SeriesTable(b=2, counts=(0, 1), area_counts=(Polynomial([]), Polynomial([0, 0, 1])))",
        [],
    ),
    (
        RationalGF,
        lambda: RationalGF(Polynomial((1,)), Polynomial((1, -1))),
        "RationalGF(numerator=Polynomial([1]), denominator=Polynomial([1, -1]))",
        [
            ((Polynomial((1,)), Polynomial()), "zero denominator"),
            ((Polynomial((1,)), Polynomial((2, 1))), "denominator constant term must be 1"),
        ],
    ),
    (GridSubset, lambda: GridSubset(2, 2, 9), "GridSubset(width=2, height=2, cells=9)", [
        ((0, 2, 0), "grid dimensions must be positive"),
        ((2, 2, 16), "cell mask out of range"),
    ]),
]


@pytest.mark.parametrize(
    "cls, make, text, invalid", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaves_as_a_frozen_value(cls, make, text, invalid):
    a, b = make(), make()
    assert a is not b and type(a) is cls
    assert repr(a) == text
    assert a == b and not a != b
    other = next(r[1]() for r in RECORDS if r[0] is not cls)
    assert a != other and not a == other
    if cls is Automaton:
        with pytest.raises(TypeError):  # its rows are arrays
            hash(a)
    else:
        assert hash(a) == hash(b)
    name = text[len(cls.__name__) + 1:text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == text
    for args, message in invalid:
        with pytest.raises(ValueError, match=f"^{message}"):
            cls(*args)
