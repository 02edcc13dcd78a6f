"""Brute-force ground truth, independent of the automaton machinery.

A candidate cell set in a width x height grid is one integer whose bit
r*width + c is cell (row r, column c).  A set counts when it is nonempty,
4-connected, and touches all four grid sides.  Connectivity is an iterated
neighborhood dilation from the set's lowest cell; nothing here shares code
with the state or transition modules.  `is_inscribed_polyomino` tests one
set.  The full scan is bit-sliced: a slice fixes some cells and tests every
subset of the others at once, each cell a "plane" integer whose bit k says
whether set k of the slice holds it.

The area histogram scans one slice per reflection orbit.  A reflection of
the grid (left-right, top-bottom, or both) maps cell sets one-to-one onto
cell sets; it keeps the cell count and 4-connectivity and permutes the four
sides, so it maps inscribed sets onto inscribed sets of the same area.  The
fixed cells are a union of whole orbits of the cells under these
reflections, so a reflection maps the slice of fixed pattern p onto the
slice of its image pattern, with the same histogram.  The total is then the
sum over orbits of patterns of the orbit's size times the histogram of one
representative's slice: every subset is covered, none sampled or skipped.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_, xor

from .errors import ResourceLimitError
from .record import Record
from .rowconfig import RowConfig

ORACLE_CELL_LIMIT = 24
SLICE_BITS = 16


class GridSubset(Record):
    """A subset of grid cells, row-major bitmask."""

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "cells", cells)
        _check_dimensions(self.width, self.height)
        if type(self.cells) is not int or not 0 <= self.cells < (1 << (self.width * self.height)):
            raise ValueError("cell mask out of range")


@lru_cache(maxsize=None)
def _masks(width: int, height: int):
    col0 = sum(1 << (r * width) for r in range(height))
    row0 = (1 << width) - 1
    return col0, col0 << (width - 1), row0, row0 << ((height - 1) * width)


def is_inscribed_polyomino(grid: GridSubset) -> bool:
    """Nonempty, 4-connected, and touching all four sides of the grid."""
    cells, width = grid.cells, grid.width
    col0, col_last, row0, row_last = _masks(width, grid.height)
    if not (cells & col0 and cells & col_last and cells & row0 and cells & row_last):
        return False
    region = cells & -cells
    while True:
        grown = (
            region
            | ((region << 1) & ~col0)
            | ((region >> 1) & ~col_last)
            | (region << width)
            | (region >> width)
        ) & cells
        if grown == region:
            return region == cells
        region = grown


def _check_dimensions(width: int, height: int) -> None:
    if type(width) is not int or type(height) is not int or width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be positive ints, got {width!r} x {height!r}")


def _check_size(width: int, height: int) -> None:
    _check_dimensions(width, height)
    if width * height > ORACLE_CELL_LIMIT:
        raise ResourceLimitError(
            f"{width}x{height} grid exceeds the {ORACLE_CELL_LIMIT}-cell oracle ceiling"
        )


def brute_force_count(width: int, height: int) -> int:
    """Number of inscribed polyominoes, by scanning every cell subset."""
    return sum(brute_force_area_histogram(width, height).values())


@lru_cache(maxsize=None)
def _low_planes(bits: int):
    """Over k < 2^bits: the plane of each bit i (bit k set when k has bit i),
    the masks of the k with popcount a, and the all-ones plane."""
    full = (1 << (1 << bits)) - 1
    # plane i repeats 2^i clear bits, then 2^i set ones: one byte 0xaa, 0xcc
    # or 0xf0 for i < 3, else 2^(i-3) zero bytes, then as many 0xff bytes
    patterns = [b"\xaa", b"\xcc", b"\xf0"]
    patterns += [bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3)) for i in range(3, bits)]
    size = max(1, (1 << bits) >> 3)
    planes = tuple(int.from_bytes(p * (size // len(p)), "little") & full for p in patterns[:bits])
    weights = [1]
    for i in range(bits):
        shifted = [w << (1 << i) for w in weights]
        weights = [a | b for a, b in zip(weights + [0], [0] + shifted)]
    return planes, tuple(weights), full


@lru_cache(maxsize=None)
def _orbit_slices(width: int, height: int, bits: int):
    """The fixed cells, sorted, and (base, orbit size) per orbit of their
    patterns, bases increasing.  The fixed cells are the largest reflection
    orbits of cells, corners first, until at most `bits` cells are free."""
    n = width * height
    # left-right, top-bottom and both reflections as cell maps
    mirror = [i + width - 1 - 2 * (i % width) for i in range(n)]
    maps = (mirror, [n - 1 - j for j in mirror], range(n - 1, -1, -1))
    fixed = []
    orbits = {frozenset({i, *(m[i] for m in maps)}) for i in range(n)}
    for orbit in sorted(orbits, key=lambda o: (-len(o), min(o))):
        if len(fixed) >= n - bits:
            break
        fixed += orbit
    fixed.sort()
    visits = []
    for t in range(1 << len(fixed)):
        base = sum(1 << cell for j, cell in enumerate(fixed) if t >> j & 1)
        orbit = {base, *(sum(1 << m[i] for i in fixed if base >> i & 1) for m in maps)}
        if base == min(orbit):
            visits.append((base, len(orbit)))
    return tuple(fixed), tuple(visits)


def _scan(width: int, height: int, fixed, visits):
    """Yield (base, multiplicity, hits) per visited slice with hits.

    `visits` gives (base, multiplicity) pairs in scan order, each base a
    pattern of the `fixed` cells.  Its slice holds base plus each subset of
    the free cells, subset k taking the free cell of rank i when k has bit i;
    bit k of `hits` is set when that subset is an inscribed polyomino.  Every
    subset of a visited slice is tested.
    """
    n = width * height
    low, _, full = _low_planes(n - len(fixed))
    rank = iter(low)
    free_planes = [0 if i in fixed else next(rank) for i in range(n)]
    sides = (range(width), range(n - width, n), range(0, n, width), range(width - 1, n, width))
    nbrs = [
        [j for j in (i - width, i + width) if 0 <= j < n]
        + [j for j in (i - 1, i + 1) if 0 <= j < n and j // width == i // width]
        for i in range(n)
    ]
    for base, multiplicity in visits:
        planes = [full if base >> i & 1 else plane for i, plane in enumerate(free_planes)]
        ok = full
        for side in sides:
            ok &= reduce(or_, [planes[i] for i in side])
        if not ok:
            continue
        region = [plane & ~seen for plane, seen in zip(planes, accumulate(planes, or_, initial=0))]
        changed = True
        while changed:
            changed = False
            for i, plane in enumerate(planes):
                grown = region[i]
                for j in nbrs[i]:
                    grown |= region[j]
                grown &= plane
                if grown != region[i]:
                    region[i] = grown
                    changed = True
        hits = ok & ~reduce(or_, map(xor, planes, region))
        if hits:
            yield base, multiplicity, hits


def brute_force_area_histogram(width: int, height: int) -> dict[int, int]:
    """Counts of inscribed polyominoes keyed by number of cells, by a scan
    of one slice per reflection orbit of fixed-cell patterns."""
    _check_size(width, height)
    fixed, visits = _orbit_slices(width, height, SLICE_BITS)
    weights = _low_planes(width * height - len(fixed))[1]
    hist: dict[int, int] = {}
    for base, multiplicity, hits in _scan(width, height, fixed, visits):
        for a, weight in enumerate(weights, base.bit_count()):
            count = (hits & weight).bit_count()
            if count:
                hist[a] = hist.get(a, 0) + count * multiplicity
    return dict(sorted(hist.items()))


def _to_stack(cells: int, width: int, height: int) -> list[RowConfig]:
    stack = []
    for r in range(height):
        row_bits = (cells >> (r * width)) & ((1 << width) - 1)
        bits = 0
        for c in range(width):
            if (row_bits >> c) & 1:
                bits |= 1 << (width - 1 - c)
        stack.append(RowConfig(width, bits))
    return stack


def sample_accepted_stacks(width: int, height: int, limit: int) -> list[list[RowConfig]]:
    """Row stacks of the first `limit` inscribed polyominoes in scan order."""
    if type(limit) is not int or limit < 0:
        raise ValueError(f"limit must be a non-negative int, got {limit!r}")
    _check_size(width, height)
    n = width * height
    bits = min(n, SLICE_BITS)
    out = []
    # the free cells are 0..bits-1, so subset k of a slice is base | k
    visits = ((high << bits, 1) for high in range(1 << (n - bits)))
    for base, _, hits in _scan(width, height, range(bits, n), visits):
        while hits:
            if len(out) >= limit:
                return out
            k = (hits & -hits).bit_length() - 1
            out.append(_to_stack(base | k, width, height))
            hits &= hits - 1
    return out
