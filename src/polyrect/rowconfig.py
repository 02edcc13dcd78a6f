"""Row configurations: the nonempty 0/1 occupancy patterns of a single row.

A width-b row is stored as an integer bitmask.  The leftmost cell maps to the
most significant of the low b bits, so the numeric order of masks equals the
numeric order of the binary words.
"""

from __future__ import annotations

from .record import Record

MAX_WIDTH = 16


def check_width(width: int) -> int:
    """width, if it is an int in 1..MAX_WIDTH; ValueError otherwise."""
    if type(width) is not int or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width!r}")
    return width


class RowConfig(Record):
    """One nonempty row pattern of a fixed width."""

    __slots__ = ("width", "bits")

    def __init__(self, width: int, bits: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bits", bits)
        check_width(self.width)
        if type(self.bits) is not int or not 0 < self.bits < (1 << self.width):
            raise ValueError(
                f"bits must encode a nonempty width-{self.width} row, got {self.bits!r}"
            )

    @classmethod
    def from_string(cls, text: str) -> RowConfig:
        """Parse a 0/1 string, leftmost character first."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a 0/1 row string: {text!r}")
        return cls(len(text), int(text, 2))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.width}b")

    def touches_left(self) -> bool:
        return bool((self.bits >> (self.width - 1)) & 1)

    def touches_right(self) -> bool:
        return bool(self.bits & 1)


def letter_runs(bits: int) -> tuple[int, ...]:
    """Maximal blocks of filled cells of a letter, as masks, leftmost first."""
    runs = []
    while bits:
        run = bits & ~(bits + (bits & -bits))
        runs.append(run)
        bits ^= run
    return tuple(reversed(runs))


def enumerate_alphabet(width: int) -> list[RowConfig]:
    """All 2^width - 1 nonempty rows in ascending numeric order."""
    check_width(width)
    return [RowConfig(width, bits) for bits in range(1, 1 << width)]
