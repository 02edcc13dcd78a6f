import pytest

from polyrect import (
    GridSubset,
    ResourceLimitError,
    brute_force_area_histogram,
    brute_force_count,
    is_inscribed_polyomino,
    sample_accepted_stacks,
)
from polyrect import oracle

# brute-force values, frozen
COUNTS = {
    (1, 1): 1,
    (1, 4): 1,
    (4, 1): 1,
    (2, 2): 5,
    (2, 3): 15,
    (2, 4): 39,
    (2, 5): 97,
    (3, 2): 15,
    (3, 3): 111,
    (3, 4): 649,
    (4, 3): 649,
    (4, 4): 7943,
}


def grid(width, rows):
    cells = 0
    for r, text in enumerate(rows):
        for c, ch in enumerate(text):
            if ch == "1":
                cells |= 1 << (r * width + c)
    return GridSubset(width, len(rows), cells)


def test_grid_subset_validation():
    with pytest.raises(ValueError):
        GridSubset(0, 2, 0)
    with pytest.raises(ValueError):
        GridSubset(2, 2, 1 << 4)
    g = GridSubset(2, 2, 0b0110)
    assert g.filled(0, 1) and g.filled(1, 0)
    assert not g.filled(0, 0)


def test_grid_subset_rejects_bools_and_non_ints():
    # bool and float look like ints to a range check
    for width, height, cells in ((True, 2, 3), (2, True, 3), (2.0, 2, 3), (2, 2, 3.0), (2, 2, True)):
        with pytest.raises(ValueError):
            GridSubset(width, height, cells)


def test_is_inscribed_polyomino_cases():
    assert is_inscribed_polyomino(grid(2, ["11", "11"]))
    assert is_inscribed_polyomino(grid(2, ["11", "10"]))
    assert is_inscribed_polyomino(grid(1, ["1"]))
    # disconnected diagonal
    assert not is_inscribed_polyomino(grid(2, ["10", "01"]))
    # misses the bottom side
    assert not is_inscribed_polyomino(grid(2, ["11", "00"]))
    # misses the right side
    assert not is_inscribed_polyomino(grid(3, ["110", "110"]))
    assert not is_inscribed_polyomino(GridSubset(2, 2, 0))
    # connected through a corner only: not 4-connected
    assert not is_inscribed_polyomino(grid(3, ["100", "011"]))


def test_counts_frozen():
    for (b, h), want in COUNTS.items():
        assert brute_force_count(b, h) == want, (b, h)


def test_count_transpose_symmetry():
    for b in range(1, 5):
        for h in range(1, 5):
            assert brute_force_count(b, h) == brute_force_count(h, b)


def test_histograms_frozen():
    assert brute_force_area_histogram(2, 2) == {3: 4, 4: 1}
    assert brute_force_area_histogram(2, 3) == {4: 8, 5: 6, 6: 1}
    assert brute_force_area_histogram(3, 3) == {5: 25, 6: 44, 7: 32, 8: 9, 9: 1}


def test_histogram_sums_to_count():
    for b, h in ((2, 4), (3, 3), (4, 3)):
        assert sum(brute_force_area_histogram(b, h).values()) == brute_force_count(b, h)


def test_cell_ceiling():
    with pytest.raises(ResourceLimitError):
        brute_force_count(5, 5)
    with pytest.raises(ResourceLimitError):
        brute_force_area_histogram(4, 7)
    with pytest.raises(ValueError):
        brute_force_count(0, 3)


def test_brute_force_count_rejects_bools_and_non_ints():
    for width, height in ((True, 2), (2, True), (2.0, 2), (2, "2")):
        with pytest.raises(ValueError):
            brute_force_count(width, height)


def test_brute_force_histogram_rejects_bools_and_non_ints():
    for width, height in ((2.0, 2), (2, 2.0), (True, 2), (2, None)):
        with pytest.raises(ValueError):
            brute_force_area_histogram(width, height)


def test_sample_accepted_stacks():
    stacks = sample_accepted_stacks(2, 2, 10)
    assert [[str(r) for r in s] for s in stacks] == [
        ["11", "10"],
        ["11", "01"],
        ["10", "11"],
        ["01", "11"],
        ["11", "11"],
    ]
    assert sample_accepted_stacks(2, 2, 2) == stacks[:2]


def test_sample_rows_read_top_down():
    # the first stack element is the grid's row 0
    stacks = sample_accepted_stacks(2, 2, 1)
    assert str(stacks[0][0]) == "11"
    assert str(stacks[0][1]) == "10"


def scalar_hits(b, h):
    """Every inscribed subset of the b x h grid in scan order, one test each."""
    return [c for c in range(1 << (b * h)) if is_inscribed_polyomino(GridSubset(b, h, c))]


def scalar_histogram(b, h):
    hist = {}
    for cells in scalar_hits(b, h):
        hist[cells.bit_count()] = hist.get(cells.bit_count(), 0) + 1
    return dict(sorted(hist.items()))


def small_grids(lo, hi):
    return [(b, h) for b in range(1, hi + 1) for h in range(1, hi + 1) if lo <= b * h <= hi]


def test_sliced_scan_matches_scalar_predicate():
    for b, h in small_grids(1, 12):
        assert brute_force_area_histogram(b, h) == scalar_histogram(b, h), (b, h)


def test_narrow_slices_match_default_width(monkeypatch):
    grids = small_grids(4, 12)
    want = {g: brute_force_area_histogram(*g) for g in grids}
    # 3-bit slices: every grid spans many slices, and some slices fail the
    # side test on their fixed high cells alone
    monkeypatch.setattr(oracle, "SLICE_BITS", 3)
    for g in grids:
        assert brute_force_area_histogram(*g) == want[g], g
    hits = scalar_hits(3, 3)
    for limit in (1, 5, 40, len(hits) + 1):
        want_stacks = [[str(r) for r in oracle._to_stack(c, 3, 3)] for c in hits[:limit]]
        got = [[str(r) for r in s] for s in sample_accepted_stacks(3, 3, limit)]
        assert got == want_stacks, limit
