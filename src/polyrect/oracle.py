"""Brute-force ground truth, independent of the automaton machinery.

A candidate cell set in a width x height grid is scanned as one integer whose
bit r*width + c is cell (row r, column c).  A set counts when it is nonempty,
4-connected, and touches all four grid sides.  Connectivity is an iterated
neighborhood dilation from one seed cell; nothing here shares code with the
state or transition modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError
from .rowconfig import RowConfig

ORACLE_CELL_LIMIT = 24


@dataclass(frozen=True, slots=True)
class GridSubset:
    """A subset of grid cells, row-major bitmask."""

    width: int
    height: int
    cells: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0 <= self.cells < (1 << (self.width * self.height)):
            raise ValueError("cell mask out of range")

    def filled(self, row: int, col: int) -> bool:
        return bool((self.cells >> (row * self.width + col)) & 1)


@lru_cache(maxsize=None)
def _masks(width: int, height: int):
    col0 = sum(1 << (r * width) for r in range(height))
    col_last = col0 << (width - 1)
    row0 = (1 << width) - 1
    row_last = row0 << ((height - 1) * width)
    full = (1 << (width * height)) - 1
    return col0, col_last, row0, row_last, full


def _connected(cells: int, width: int, height: int) -> bool:
    col0, col_last, _, _, full = _masks(width, height)
    not_col0 = full ^ col0
    not_col_last = full ^ col_last
    region = cells & -cells
    while True:
        grown = (
            region
            | ((region << 1) & not_col0)
            | ((region >> 1) & not_col_last)
            | (region << width)
            | (region >> width)
        ) & cells
        if grown == region:
            return region == cells
        region = grown


def is_inscribed_polyomino(grid: GridSubset) -> bool:
    """Nonempty, 4-connected, and touching all four sides of the grid."""
    cells = grid.cells
    if not cells:
        return False
    col0, col_last, row0, row_last, _ = _masks(grid.width, grid.height)
    if not (cells & col0 and cells & col_last and cells & row0 and cells & row_last):
        return False
    return _connected(cells, grid.width, grid.height)


def _check_size(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if width * height > ORACLE_CELL_LIMIT:
        raise ResourceLimitError(
            f"{width}x{height} grid exceeds the {ORACLE_CELL_LIMIT}-cell oracle ceiling"
        )


def brute_force_count(width: int, height: int) -> int:
    """Number of inscribed polyominoes, by scanning every cell subset."""
    return sum(brute_force_area_histogram(width, height).values())


def brute_force_area_histogram(width: int, height: int) -> dict[int, int]:
    """Counts of inscribed polyominoes keyed by number of cells, by full scan."""
    _check_size(width, height)
    col0, col_last, row0, row_last, full = _masks(width, height)
    not_col0 = full ^ col0
    not_col_last = full ^ col_last
    hist: dict[int, int] = {}
    for cells in range(1, full + 1):
        if not (cells & col0 and cells & col_last and cells & row0 and cells & row_last):
            continue
        region = cells & -cells
        while True:
            grown = (
                region
                | ((region << 1) & not_col0)
                | ((region >> 1) & not_col_last)
                | (region << width)
                | (region >> width)
            ) & cells
            if grown == region:
                break
            region = grown
        if region == cells:
            area = cells.bit_count()
            hist[area] = hist.get(area, 0) + 1
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
    _check_size(width, height)
    out = []
    full = (1 << (width * height)) - 1
    for cells in range(1, full + 1):
        if len(out) >= limit:
            break
        if is_inscribed_polyomino(GridSubset(width, height, cells)):
            out.append(_to_stack(cells, width, height))
    return out
