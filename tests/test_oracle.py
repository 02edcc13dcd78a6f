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
    assert (g.width, g.height, g.cells) == (2, 2, 0b0110)


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
    for b, h in small_grids(1, 20):
        assert brute_force_count(b, h) == brute_force_count(h, b), (b, h)


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


def test_sample_limit_must_be_a_non_negative_int():
    for limit in (True, 2.5, "3", None, -1):
        with pytest.raises(ValueError):
            sample_accepted_stacks(2, 2, limit)
    assert sample_accepted_stacks(2, 2, 0) == []


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


def reflections(b, h):
    """Left-right and top-bottom reflections as cell maps."""
    return (
        [r * b + b - 1 - c for r in range(h) for c in range(b)],
        [(h - 1 - r) * b + c for r in range(h) for c in range(b)],
    )


def reflect(cells, cell_map):
    return sum(1 << cell_map[i] for i in range(len(cell_map)) if cells >> i & 1)


def test_orbit_slices_cover_every_pattern_once():
    for b, h in small_grids(1, 24):
        fixed, visits = oracle._orbit_slices(b, h, oracle.SLICE_BITS)
        assert len(fixed) >= b * h - oracle.SLICE_BITS, (b, h)
        maps = reflections(b, h)
        for cell_map in maps:
            assert sorted(cell_map[i] for i in fixed) == list(fixed), (b, h)
        covered = set()
        for base, multiplicity in visits:
            orbit = {base}
            for _ in range(2):
                orbit |= {reflect(p, m) for p in orbit for m in maps}
            assert len(orbit) == multiplicity and min(orbit) == base, (b, h, base)
            covered |= orbit
        assert sum(m for _, m in visits) == 1 << len(fixed), (b, h)
        fixed_mask = sum(1 << i for i in fixed)
        assert len(covered) == 1 << len(fixed), (b, h)
        assert all(p & ~fixed_mask == 0 for p in covered), (b, h)


def test_orbit_histogram_matches_every_pattern_walk():
    # the sampler's walk: every pattern of the fixed cells, multiplicity 1
    for b, h in small_grids(17, 20):
        fixed, _ = oracle._orbit_slices(b, h, oracle.SLICE_BITS)
        bases = [
            sum(1 << c for j, c in enumerate(fixed) if t >> j & 1) for t in range(1 << len(fixed))
        ]
        weights = oracle._low_planes(b * h - len(fixed))[1]
        hist = {}
        for base, multiplicity, hits in oracle._scan(b, h, fixed, [(base, 1) for base in bases]):
            assert multiplicity == 1
            for a, weight in enumerate(weights, base.bit_count()):
                hist[a] = hist.get(a, 0) + (hits & weight).bit_count()
        assert brute_force_area_histogram(b, h) == {a: c for a, c in hist.items() if c}, (b, h)


@pytest.mark.parametrize("bits", [*range(13), 16])
def test_low_planes_match_their_definition(bits):
    # bit k of plane i is bit i of k; weights[a] holds the k with popcount a
    planes, weights, full = oracle._low_planes(bits)
    n = 1 << bits
    assert full == (1 << n) - 1 and len(planes) == bits and len(weights) == bits + 1
    for i, plane in enumerate(planes):
        assert format(plane, f"0{n}b")[::-1] == "".join(str(k >> i & 1) for k in range(n)), i
    popcounts = [k.bit_count() for k in range(n)]
    for a, weight in enumerate(weights):
        assert format(weight, f"0{n}b")[::-1] == "".join(str(int(c == a)) for c in popcounts), a
