"""Exact counting: dynamic programming over the transition table.

The occupancy vector starts as the indicator of the initial state; each step
pushes weight along every defined transition.  counts[h] sums the accepting
entries after h steps; counts[0] is stored as 1, the constant term the
generating functions carry for the empty stack.

Area weighting packs each state's polynomial in q into byte-aligned slots of
one big integer (slot n holds the coefficient of q^n, as
`polynomial.pack_coefficients` lays it out), so a transition multiplies by
q^fill as a shift and accumulation is plain integer addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automaton import Automaton
from .polynomial import Polynomial, unpack_coefficients
from .rowconfig import RowConfig


@dataclass(frozen=True)
class SeriesTable:
    """Counts by height, optionally refined by area."""

    b: int
    counts: tuple[int, ...]
    area_counts: tuple[Polynomial, ...] | None = None

    @property
    def h_max(self) -> int:
        return len(self.counts) - 1

    def validate(self) -> None:
        """Assert the table invariants; used by tests."""
        if not self.counts or self.counts[0] != 1:
            raise AssertionError("counts[0] must be the conventional 1")
        for h in range(2, self.h_max):
            if self.counts[h + 1] < self.counts[h]:
                raise AssertionError(f"counts must be monotone from h=2, broken at {h}")
        if self.area_counts is None:
            return
        if len(self.area_counts) != len(self.counts):
            raise AssertionError("area table length mismatch")
        if self.area_counts[0] != 1:
            raise AssertionError("area_counts[0] must be the constant 1")
        for h in range(1, self.h_max + 1):
            poly = self.area_counts[h]
            if poly.evaluate(1) != self.counts[h]:
                raise AssertionError(f"area polynomial at h={h} does not sum to the count")
            if poly:
                low = next(i for i, c in enumerate(poly.coeffs) if c)
                if low < max(self.b, h) or poly.degree > self.b * h:
                    raise AssertionError(f"area support out of bounds at h={h}")


def _accepted(a: Automaton, h_max: int, shifts: list[int] | None = None):
    """Total accepting weight after each of 1..h_max steps.

    With shifts, a step into state t multiplies by 2^shifts[t].  A target's
    filled cells are its letter's, so no two letters share a target.
    """
    targets = [[t for t in row if t >= 0] for row in a.transitions]
    accepting = sorted(a.accepting)
    v = [0] * a.n_states
    v[0] = 1
    for _ in range(h_max):
        w = [0] * a.n_states
        for s, weight in enumerate(v):
            if weight:
                for t in targets[s]:
                    w[t] += weight
        v = [x << k for x, k in zip(w, shifts)] if shifts else w
        yield sum(v[f] for f in accepting)


def count_series(a: Automaton, h_max: int) -> SeriesTable:
    """Exact number of accepted stacks for every height 0..h_max."""
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    return SeriesTable(a.width, (1, *_accepted(a, h_max)))


def count_area_series(a: Automaton, h_max: int) -> SeriesTable:
    """Counts refined by area: one polynomial in q per height."""
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    # Coefficients are below (2^b - 1)^h_max, so slots of at least
    # width*h_max + 8 bits, in whole bytes, can never collide.
    slot_bytes = (a.width * max(h_max, 1) + 15) // 8
    # a step's area is its letter's cell count, which is its target's
    shifts = [8 * slot_bytes * sum(1 for c in s.word.labels if c) for s in a.states]
    counts = [1]
    polys = [Polynomial((1,))]
    for acc in _accepted(a, h_max, shifts):
        poly = Polynomial(unpack_coefficients(acc, slot_bytes))
        polys.append(poly)
        counts.append(poly.evaluate(1))
    return SeriesTable(a.width, tuple(counts), tuple(polys))


def accepts(a: Automaton, stack: Sequence[RowConfig]) -> bool:
    """Run the stack from the initial state; True when it ends accepting."""
    state = 0
    for row in stack:
        if row.width != a.width:
            raise ValueError(f"row width {row.width} does not match automaton width {a.width}")
        t = a.transitions[state][row.bits - 1]
        if t < 0:
            return False
        state = t
    return state in a.accepting
