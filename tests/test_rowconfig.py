import pytest

from polyrect import MAX_WIDTH, RowConfig, enumerate_alphabet


def test_from_string_round_trip():
    for text in ("1", "01", "10110", "0001"):
        row = RowConfig.from_string(text)
        assert str(row) == text
        assert row.width == len(text)


def test_bits_leftmost_is_most_significant():
    row = RowConfig.from_string("100")
    assert row.bits == 4
    assert str(RowConfig(3, 1)) == "001"


def test_cells():
    # str() lists the cells left to right, the leftmost from the highest bit
    assert str(RowConfig(5, 0b10110)) == "10110"


def test_touches():
    assert RowConfig.from_string("100").touches_left()
    assert not RowConfig.from_string("100").touches_right()
    assert RowConfig.from_string("001").touches_right()
    assert not RowConfig.from_string("010").touches_left()
    assert not RowConfig.from_string("010").touches_right()


@pytest.mark.parametrize("text", ["", "102", "ab", "1 0"])
def test_from_string_rejects_garbage(text):
    with pytest.raises(ValueError):
        RowConfig.from_string(text)


def test_rejects_empty_row():
    with pytest.raises(ValueError):
        RowConfig(3, 0)
    with pytest.raises(ValueError):
        RowConfig.from_string("000")


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        RowConfig(0, 1)
    with pytest.raises(ValueError):
        RowConfig(MAX_WIDTH + 1, 1)
    with pytest.raises(ValueError):
        RowConfig(2, 4)
    # bool and float look like ints to a range check
    for width, bits in ((True, 1), (2.0, 1), ("2", 1), (2, True), (2, 1.0), (2, None)):
        with pytest.raises(ValueError):
            RowConfig(width, bits)


def test_alphabet_is_every_nonempty_row_ascending():
    rows = enumerate_alphabet(3)
    assert len(rows) == 7
    assert [r.bits for r in rows] == list(range(1, 8))
    assert [str(r) for r in rows] == [
        "001", "010", "011", "100", "101", "110", "111",
    ]


def test_alphabet_size():
    for width in range(1, 7):
        assert len(enumerate_alphabet(width)) == (1 << width) - 1


def test_alphabet_rejects_bad_width():
    for width in (0, True, 2.0, "2", None):
        with pytest.raises(ValueError):
            enumerate_alphabet(width)
