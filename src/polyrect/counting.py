"""Exact counting: a backward dynamic program on the reflection quotient.

Reading every row right to left maps the language to itself.  A state
(w, l, r) goes to (w reversed and relabelled by first occurrence, r, l), and
a letter goes to its bit-reversal.  The orbits of that map are checked, in
one pass over the transitions, to be an ordinary lumping of the transfer
matrix M: every member of a class has its representative's accepting bit,
fill count and multiset of target classes.  With Pi the n x k class
indicator and Mk the k x k matrix of the representatives' target classes,
that is M Pi = Pi Mk, and the accepting indicator is f = Pi fk, so
M^h f = Pi Mk^h fk.  A partition that fails the check is replaced by
singleton classes, which always pass, so k = n there and the same code runs.

counts[h] = e0^T M^h f is the entry of u_h = Mk u_(h-1), u_0 = fk, at the
class of the initial state.  counts[0] is stored as 1, the constant term the
generating functions carry for the empty stack.

Area weighting packs each polynomial in q into byte-aligned slots of one big
integer (slot n holds the coefficient of q^n, as
`polynomial.pack_coefficients` lays it out).  A step into a state multiplies
by q^fill, its filled-cell count, which is the same across its class; so
each class entry is shifted by its fill slots and accumulation is plain
integer addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automaton import Automaton
from .polynomial import Polynomial, unpack_coefficients
from .rowconfig import RowConfig
from .states import first_occurrence_relabel


@dataclass(frozen=True)
class SeriesTable:
    """Counts by height, optionally refined by area."""

    b: int
    counts: tuple[int, ...]
    area_counts: tuple[Polynomial, ...] | None = None

    @property
    def h_max(self) -> int:
        return len(self.counts) - 1


def quotient_rows(a: Automaton, classes: Sequence[int]) -> list[tuple] | None:
    """Rows of the quotient if classes is a lumping of a, else None.

    classes[i] is the class of state i, numbered in order of first state.
    Row c is (accepting, fill count, sorted target classes) of class c's
    first state, and every other member must have the same row.
    """
    rows: list[tuple] = []
    for i, (c, s, row) in enumerate(zip(classes, a.states, a.transitions)):
        key = (
            i in a.accepting,
            sum(1 for x in s.word.labels if x),
            sorted([classes[t] for t in row if t >= 0]),
        )
        if c == len(rows):
            rows.append(key)
        elif rows[c] != key:
            return None
    return rows


def reflection_quotient(a: Automaton) -> tuple[list[int], list[tuple]]:
    """Verified reflection classes of a's states and the quotient's rows.

    Classes are numbered by first state; the initial state is its own mirror
    image, so it is class 0.  When the orbits are not a lumping
    (`quotient_rows`), every state is its own class.
    """
    index = {(s.word.labels, s.left_touched, s.right_touched): i for i, s in enumerate(a.states)}
    classes: list[int] = []
    k = 0
    for i, s in enumerate(a.states):
        mirror = (first_occurrence_relabel(s.word.labels[::-1]), s.right_touched, s.left_touched)
        j = index.get(mirror, i)
        if j < i:
            classes.append(classes[j])
        else:
            classes.append(k)
            k += 1
    rows = quotient_rows(a, classes)
    if rows is None:
        classes = list(range(a.n_states))
        rows = quotient_rows(a, classes)
    return classes, rows


def _accepted(a: Automaton, h_max: int, slot: int = 0):
    """Accepting weight after each of 1..h_max steps from the initial state.

    With slot, a step into a state multiplies by 2^(slot * its fill count).
    """
    _, rows = reflection_quotient(a)
    shifts = [slot * fill for _, fill, _ in rows]
    u = [int(accepting) << k for (accepting, _, _), k in zip(rows, shifts)]
    for _ in range(h_max):
        w = []
        for _, _, targets in rows:
            acc = 0
            for d in targets:
                acc += u[d]
            w.append(acc)
        yield w[0]
        u = [x << k for x, k in zip(w, shifts)] if slot else w


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
    counts = [1]
    polys = [Polynomial((1,))]
    for acc in _accepted(a, h_max, 8 * slot_bytes):
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
