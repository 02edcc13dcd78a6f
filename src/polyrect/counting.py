"""Exact counting: one-component stacks of each width, on a lumped word DP.

A stack is inscribed when it is one component touching both side columns
(every row is nonempty, so it spans the height).  Let A_w count the stacks
of width w, every row nonempty, that are one component.  A one-component
stack of width b that misses the left column is a one-component stack of
width b - 1, and so is one that misses the right column; one that misses
both has width b - 2.  So touching both sides is the inclusion-exclusion
counts = 1 + A_b - 2 A_(b-1) + A_(b-2) (Goupil, Cloutier and Nouboud), the
1 being the constant term the generating functions carry for the empty
stack; a width below 1 counts nothing.

A_w is counted on the word automaton of width w (`word_quotient`): the
kernel words `transition.advance` reaches from the empty word () under all
2^w - 1 letters, with no side flags; a word ends accepting when it is one
component.  Reading the columns right to left maps this automaton to
itself, so the words are lumped by reversal.  The classes are checked, in
the same pass, to be an ordinary lumping of the words' transfer matrix M:
every word has its class's row, that is, its accepting bit, fill count and
multiset of target classes.  With Pi the word-by-class indicator and Mk the
quotient matrix of the class rows, that is M Pi = Pi Mk, and the accepting
indicator is f = Pi fk, so M^h f = Pi Mk^h fk.  No step enters the initial
class, {()}.  A failed check raises ValueError.

counts[h] is the sum over the widths of sign_w (1, -2, 1) times the entry
of u_h = Mk u_(h-1), u_0 = fk, at the initial class.  Width w has g_w
classes, k_w = g_w - 1 besides its initial one, and they bound its
generating function's degrees (`genfunc`), so its first 2k_w + 2 terms fix
it.  When h_max + 1 >= FIT_SPAN * (2k_w + 2), `count_series` fits those
terms with `genfunc.fit_rational` and carries on along the fit's
recurrence, k_w multiply-adds per term.  A FitError there contradicts the
proof and propagates.  Nothing is kept between calls: each call lumps the
words of its widths again.

A step computes a width's w = Mk u from a plan (`dp_plan`): each class's
row sum is another's, its parent's, plus the entries of u its target
multiset has beyond the parent's, less those it lacks.  The parents form a
minimum spanning tree (Prim) under the L1 distance between target
multisets, rooted at the empty row, so a step takes the tree's weight in
additions and subtractions, not the number of targets.  A run shorter than
PLAN_PAYBACK_STEPS roots every row at the empty row instead: the plain row
sum, in the same loop.  The arithmetic is exact integer arithmetic, so each
w[c] is the same integer as its row's plain sum, whatever the sign of a
partial result.

Area weighting packs each polynomial in q into byte-aligned slots of one big
integer (slot n holds the coefficient of q^n, as
`polynomial.pack_coefficients` lays it out), that is, evaluates it at
q = 2^slot.  A step into a word multiplies by q^fill, its filled-cell
count, which is the same across its class.  Every row is nonempty, so the
DP carries each entry over q^h: a step into a class shifts it by fill - 1
slots, and a step is integer addition and subtraction.  Each w[c] is then
the integer its row's plain sum gives, and so is the signed sum over the
widths: term h is the area polynomial over q^h, so unpacking prepends h
zeros.  Its coefficients are inscribed counts, nonnegative and at most the
height's count, so `area_series`, which gives the area series of both
`count_area_series` and `genfunc.gf_height_area`, sizes its slot from the
counts of a plain DP run on the same plans first, and checks that each
polynomial sums to its count, which a slot overflow breaks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .automaton import Automaton
from .polynomial import Polynomial, unpack_coefficients
from .record import Record
from .rowconfig import RowConfig, check_width, letter_runs
from .transition import advance, mirror, reversed_masks

# sign of A_b, A_(b-1) and A_(b-2) in the inscribed counts
WIDTH_SIGNS = (1, -2, 1)
# a width's DP stops at the 2k + 2 terms that prove its fit only when h_max + 1
# is at least FIT_SPAN times that: fitting and expanding cost about as much
# as the DP they replace (measured at b = 6 and 7)
FIT_SPAN = 2
# a spanning-tree plan costs what about this many plain DP steps save
# (measured at b = 3..8), so shorter runs sum each row plainly
PLAN_PAYBACK_STEPS = 25

# (one component, fill count, sorted target classes)
Row = tuple[bool, int, list[int]]


class SeriesTable(Record):
    """Counts by height, optionally refined by area."""

    __slots__ = ("b", "counts", "area_counts")

    def __init__(self, b: int, counts: tuple[int, ...],
                 area_counts: tuple[Polynomial, ...] | None = None):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "area_counts", area_counts)


def _word_rows(width: int) -> Iterable[tuple[int, Row]]:
    """(class, row) of each word of width w, breadth-first from ().

    A word's class is its reversal class, numbered in order of first word,
    so () is class 0; its row is (one component, fill count, sorted target
    classes).
    """
    letters = [(bits, letter_runs(bits)) for bits in range(1, 1 << width)]
    flip = reversed_masks(width)
    words = [()]
    classes = {(): 0}
    n_classes = 1
    for word in words:
        out = []
        for bits, runs in letters:
            nxt = advance(word, bits, runs)
            if nxt is None:
                continue
            c = classes.get(nxt)
            if c is None:
                c = classes.get(mirror(nxt, flip))
                if c is None:
                    c = n_classes
                    n_classes += 1
                classes[nxt] = c
                words.append(nxt)
            out.append(c)
        out.sort()
        yield classes[word], (len(word) == 1, sum(word).bit_count(), out)


def lumped_rows(members: Iterable[tuple[int, Row]]) -> list[Row]:
    """The class rows, checked to be a lumping with no step into class 0.

    members gives (class, row) for every word, classes numbered in order of
    first word.  Raises ValueError when a word's row is not its class's row
    or a row has a target in class 0.
    """
    rows: list[Row] = []
    for c, row in members:
        if c == len(rows):
            rows.append(row)
        elif rows[c] != row:
            raise ValueError(f"class {c} is not a lumping: a word has row {row}, not {rows[c]}")
    if any(out[:1] == [0] for _, _, out in rows):
        raise ValueError("a step enters the initial class")
    return rows


def word_quotient(width: int) -> list[Row]:
    """Verified rows of the width-w word automaton lumped by reversal."""
    return lumped_rows(_word_rows(width))


def width_groups(width: int) -> list[tuple[int, list[Row]]]:
    """(sign, word quotient) of A_b, A_(b-1) and A_(b-2), for widths >= 1."""
    return [
        (sign, word_quotient(width - d)) for d, sign in enumerate(WIDTH_SIGNS) if width - d >= 1
    ]


def dp_plan(rows: Sequence[Row]) -> list[tuple[int, int, list[int], list[int]]]:
    """How one DP step computes a quotient's row sums, each from another.

    Entry (c, p, plus, minus) sets w[c] = w[p] + sum(u[plus]) - sum(u[minus]):
    row p's target multiset with plus added and minus taken away is row c's,
    and p = -1 is the empty row.  Entries come in evaluation order, p before
    c.  The parents form a minimum spanning tree (Prim) under the L1
    distance between target multisets, rooted at the empty row.
    """
    targets = [out for _, _, out in rows]
    span = max((out[-1] for out in targets if out), default=0) + 1
    # bit t + k * span of a row's code is set when target t occurs more than
    # k times in the row, so the bit count of two codes' XOR is their L1 distance
    codes = []
    for out in targets:
        code = k = 0
        prev = -1
        for t in out:
            k = k + 1 if t == prev else 0
            code |= 1 << (t + k * span)
            prev = t
        codes.append(code)
    # best[j]: distance from row j to the tree so far, len(row j) from the root
    best = list(map(len, targets))
    parent = [-1] * len(targets)
    left = list(range(len(targets)))
    plan = []
    while left:
        i = min(left, key=best.__getitem__)
        left.remove(i)
        p = parent[i]
        code = codes[i]
        theirs = codes[p] if p >= 0 else 0
        plan.append((i, p, _fields(code & ~theirs, span), _fields(theirs & ~code, span)))
        for j in left:
            d = (code ^ codes[j]).bit_count()
            if d < best[j]:
                best[j] = d
                parent[j] = i
    return plan


def _fields(bits: int, span: int) -> list[int]:
    """The targets a code's set bits stand for, with repeats."""
    targets = []
    while bits:
        top = bits.bit_length() - 1
        targets.append(top % span)
        bits ^= 1 << top
    return targets


def _plan(rows: Sequence[Row], h_max: int) -> list[tuple[int, int, list[int], list[int]]]:
    """dp_plan(rows), or for a run shorter than PLAN_PAYBACK_STEPS every row
    with the empty row as its parent: the plain row sum, in the same loop."""
    if h_max < PLAN_PAYBACK_STEPS:
        return [(c, -1, out, []) for c, (_, _, out) in enumerate(rows)]
    return dp_plan(rows)


def group_series(
    rows: Sequence[Row], h_max: int, slot: int = 0, plan: list | None = None
) -> list[int]:
    """A width's weight at its initial class after 0..h_max steps: A_w(0..h_max).

    With slot, a step into a class multiplies by 2^(slot * (its fill count
    - 1)), so term h is the area polynomial over q^h at q = 2^slot.  plan
    defaults to _plan(rows, h_max).
    """
    if plan is None:
        plan = _plan(rows, h_max)
    # class 0 alone has fill 0, and no step enters it
    shifts = [slot * max(fill - 1, 0) for _, fill, _ in rows]
    u = [int(one) << k for (one, _, _), k in zip(rows, shifts)]
    terms = [u[0]]
    for _ in range(h_max):
        # w[-1] is never written: the empty row's 0
        w = [0] * (len(rows) + 1)
        for c, p, plus, minus in plan:
            acc = w[p]
            for d in plus:
                acc += u[d]
            for d in minus:
                acc -= u[d]
            w[c] = acc
        terms.append(w[0])
        u = [x << k for x, k in zip(w, shifts)] if slot else w
    return terms


def _width(b: int | Automaton, h_max: int) -> int:
    """b's width, read from an Automaton or given; ValueError unless h_max is
    an int >= 0 and the width an int in 1..MAX_WIDTH."""
    if type(h_max) is not int or h_max < 0:
        raise ValueError(f"h_max must be an int >= 0, got {h_max!r}")
    return check_width(getattr(b, "width", b))


def count_series(b: int | Automaton, h_max: int) -> SeriesTable:
    """Exact number of inscribed stacks of width b for every height 0..h_max.

    b is a width, or an Automaton of which only the width is read.  A width
    whose fit pays (FIT_SPAN) takes its terms past 2k + 1 from the fit of
    its first 2k + 2 (module docstring).
    """
    from .genfunc import expand, fit_rational  # genfunc imports this module

    width = _width(b, h_max)
    counts = [1] + [0] * h_max
    for sign, rows in width_groups(width):
        k = len(rows) - 1
        if h_max + 1 >= FIT_SPAN * (2 * k + 2):
            head = group_series(rows, 2 * k + 1)
            terms = expand(fit_rational(head, k), h_max + 1, head)
        else:
            terms = group_series(rows, h_max)
        for h, t in enumerate(terms):
            counts[h] += sign * t
    return SeriesTable(width, tuple(counts))


def _area_slot_bytes(bits: int) -> int:
    """Whole bytes per slot for packed coefficients of at most bits bits."""
    return (bits + 7) // 8


def area_series(
    groups: Iterable[tuple[int, Sequence[Row]]], h_max: int, constant: int
) -> tuple[list[int], list[Polynomial]]:
    """The signed sum of groups' series to h_max, plain and refined by area.

    groups gives (sign, word quotient) pairs; constant is added at h = 0.
    Returns (counts, polynomials in q).  The slot is sized from the largest
    count of a plain pass on the same plans; ValueError when a polynomial
    does not sum to its count, which a slot overflow breaks (module docstring).
    """
    plans = [(sign, rows, _plan(rows, h_max)) for sign, rows in groups]
    counts = [constant] + [0] * h_max
    for sign, rows, plan in plans:
        for h, t in enumerate(group_series(rows, h_max, plan=plan)):
            counts[h] += sign * t
    slot_bytes = _area_slot_bytes(max(counts).bit_length())
    packed = [constant] + [0] * h_max
    for sign, rows, plan in plans:
        for h, acc in enumerate(group_series(rows, h_max, 8 * slot_bytes, plan)):
            packed[h] += sign * acc
    polys = [Polynomial([0] * h + unpack_coefficients(x, slot_bytes)) for h, x in enumerate(packed)]
    if [sum(poly.coeffs) for poly in polys] != counts:
        raise ValueError("an area polynomial does not sum to its count: a slot overflowed")
    return counts, polys


def count_area_series(b: int | Automaton, h_max: int) -> SeriesTable:
    """Counts refined by area: one polynomial in q per height.

    b is a width, or an Automaton of which only the width is read.
    ValueError when a polynomial does not sum to its count (module docstring).
    """
    width = _width(b, h_max)
    counts, polys = area_series(width_groups(width), h_max, 1)
    return SeriesTable(width, tuple(counts), tuple(polys))


def accepts(a: Automaton, stack: Sequence[RowConfig]) -> bool:
    """Run the stack from the initial state; True when it ends accepting."""
    width, transitions = a.width, a.transitions
    state = 0
    for row in stack:
        if row.width != width:
            raise ValueError(f"row width {row.width} does not match automaton width {width}")
        t = transitions[state][row.bits - 1]
        if t < 0:
            return False
        state = t
    return state in a.accepting
