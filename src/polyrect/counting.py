"""Exact counting: inclusion-exclusion over the side columns, on a lumped DP.

A stack is inscribed when it is one component touching both side columns
(every row is nonempty, so it spans the height).  Touching both side columns
is an inclusion-exclusion over four column windows: all columns (+1), the
left column empty (-1), the right column empty (-1), both empty (+1).  A
window's copy of the automaton keeps only the letters inside the window, and
a copy's node (window, state) ends accepting when its word is one component;
the side flags play no part.  For a stack whose letters fit a window the
copy's path is the automaton's path, so the signed count of the copies that
accept it is [one component] * (1 - [left empty] - [right empty] +
[both empty]) = [one component and both sides touched].  That equals the
automaton's verdict when its flags and accepting set follow the letters:
state 0 has both flags down, a target's flags are its source's flags OR the
letter's side cells, and a state accepts exactly when its word is one
component and both flags are up.  `window_nodes` checks this on every
transition and raises ValueError otherwise.

Nodes are grouped by the part of their word inside their window, up to
reversal.  Reading a window's columns right to left maps its copy to
itself, and the two side windows are the same strip of b - 1 columns, so
their copies share classes.  The groups are checked, in one pass over the
copies' transitions, to be an ordinary lumping of the copies' transfer
matrix M: every member of a class has its representative's accepting bit,
fill count and multiset of target classes.  With Pi the node-by-class
indicator and Mk the quotient matrix of the representatives' target
classes, that is M Pi = Pi Mk, and the accepting indicator is f = Pi fk, so
M^h f = Pi Mk^h fk.  A partition that fails the check is replaced by
singleton classes, which always pass, so the same code runs.  No transition
enters a copy's initial class (checked, ValueError otherwise).

The classes fall into window groups (`window_groups`), one per initial
class: all columns, the side strip and both sides empty (one per copy on
singleton classes).  Each is a run of classes closed under the transitions
(checked), so its block of Mk runs alone.  counts[h] is the sum over the
groups of sign_w, the sum of the group's copies' signs (1, -2, 1), times the
entry of u_h = Mk u_(h-1), u_0 = fk, at the group's initial class; counts[0]
is stored as 1, the constant term the generating functions carry for the
empty stack.  From b = 3 the groups' series are the all-columns series of
widths b, b - 1 and b - 2: counts = 1 + A_b - 2 A_(b-1) + A_(b-2) (Goupil,
Cloutier and Nouboud).  Group w has k_w classes besides its initial one, and
they bound its generating function's degrees (`genfunc`), so its first
2k_w + 2 terms fix it.  When h_max + 1 >= FIT_SPAN * (2k_w + 2),
`count_series` fits those terms with `genfunc.fit_rational` and carries on
along the fit's recurrence, k_w multiply-adds per term.  A FitError there
contradicts the proof and propagates.

A step computes a group's w = Mk u from a plan built once per group
(`dp_plan`): each class's row sum is another's, its parent's, plus the
entries of u its target multiset has beyond the parent's, less those it
lacks.  The parents form a minimum spanning tree (Prim) under the L1
distance between target multisets, rooted at the empty row, so a step takes
the tree's weight in additions and subtractions, 1053 at b = 6, not the
3524 of summing every row.  A run shorter than PLAN_PAYBACK_STEPS roots
every row at the empty row instead: the plain row sum, in the same loop.
The arithmetic is exact integer arithmetic, so each w[c] is the same integer
as its row's plain sum, whatever the sign of a partial result.

Area weighting packs each polynomial in q into byte-aligned slots of one big
integer (slot n holds the coefficient of q^n, as
`polynomial.pack_coefficients` lays it out), that is, evaluates it at
q = 2^slot.  A step into a node multiplies by q^fill, its filled-cell
count, which is the same across its class; so each class entry is shifted
by its fill slots and a step is integer addition and subtraction.  Each
w[c] is then the integer its row's plain sum gives, and so is the signed
sum over the groups: its coefficients are inscribed counts, nonnegative and
below the slot bound, so it unpacks to the area polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import eq
from typing import Sequence

from .automaton import Automaton
from .polynomial import Polynomial, unpack_coefficients
from .rowconfig import RowConfig
from .states import first_occurrence_relabel

# sign of each column window: all columns, left column empty, right column
# empty, both side columns empty
WINDOW_SIGNS = (1, -1, -1, 1)
# a group's DP stops at the 2k + 2 terms that prove its fit only when h_max + 1
# is at least FIT_SPAN times that: fitting and expanding cost about as much
# as the DP they replace (measured at b = 6 and 7)
FIT_SPAN = 2
# a spanning-tree plan costs what about this many plain DP steps save
# (measured at b = 3..8), so shorter runs sum each row plainly
PLAN_PAYBACK_STEPS = 25


@dataclass(frozen=True)
class SeriesTable:
    """Counts by height, optionally refined by area."""

    b: int
    counts: tuple[int, ...]
    area_counts: tuple[Polynomial, ...] | None = None

    @property
    def h_max(self) -> int:
        return len(self.counts) - 1


def _windows(width: int) -> tuple[slice, ...]:
    """Slices of a transition row holding each window's letters.

    Letter rank r is the row bits r + 1: the left column is empty below rank
    2^(b-1) - 1, the right column at odd ranks.
    """
    half = (1 << (width - 1)) - 1
    return (slice(None), slice(half), slice(1, None, 2), slice(1, half, 2))


def window_nodes(a: Automaton) -> list[tuple[int, int]]:
    """Nodes (window, state) of the four window copies, window by window.

    Raises ValueError unless a's flags and accepting set follow the letters
    (module docstring).  Then a state's flags are up exactly on the sides
    its paths from state 0 touch, so a window's copy holds the states whose
    flags are down on the window's empty sides, in index order, and its
    steps stay in it.
    """
    width = a.width
    flags = [s.left_touched << 1 | s.right_touched for s in a.states]
    for i, s in enumerate(a.states):
        if (i in a.accepting) != (_one_component(s.word.labels) and flags[i] == 3):
            raise ValueError(f"state {i} accepts otherwise than one component with both flags")
    if flags[0]:
        raise ValueError("the initial state has a side flag up")
    # a letter filling the side cells e = 2 * left + right leads from flags f
    # to flags f | e.  sides[e] holds those letters' ranks (as in `_windows`;
    # half is odd for b >= 2, and at b = 1 the one letter fills both side
    # cells); an undefined transition, -1, passes.
    half = (1 << (width - 1)) - 1
    sides = (
        slice(1, half, 2),
        slice(0, half, 2),
        slice(half | 1, None, 2),
        slice((half + 1) & ~1, None, 2),
    )
    have: list[set[int]] = [{-1} for _ in range(4)]
    for i, f in enumerate(flags):
        have[f].add(i)
    for row, f in zip(a.transitions, flags):
        for e, side in enumerate(sides):
            if not have[f | e].issuperset(row[side]):
                raise ValueError("side flags do not follow the letters")
    # flags that must be down in each window: none, left, right, both
    return [
        (window, s)
        for window, down in enumerate((0, 2, 1, 3))
        for s, f in enumerate(flags)
        if not f & down
    ]


def _one_component(labels: Sequence[int]) -> bool:
    return max(labels) == 1


def quotient_rows(
    a: Automaton, nodes: Sequence[tuple[int, int]], classes: Sequence[int]
) -> list[tuple] | None:
    """Rows of the quotient if classes is a lumping of the copies, else None.

    classes[i] is the class of node i, numbered in order of first node.  Row
    c is (one component, fill count, sorted target classes) of class c's
    first node, and every other member must have the same row.
    """
    cuts = _windows(a.width)
    class_of = [[-1] * a.n_states for _ in cuts]
    for (window, s), c in zip(nodes, classes):
        class_of[window][s] = c
    kinds = [(_one_component(s.word.labels), sum(map(bool, s.word.labels))) for s in a.states]
    transitions = a.transitions
    rows: list[tuple] = []
    for (window, s), c in zip(nodes, classes):
        into = class_of[window]
        key = (*kinds[s], sorted([into[t] for t in transitions[s][cuts[window]] if t >= 0]))
        if c == len(rows):
            rows.append(key)
        elif rows[c] != key:
            return None
    return rows


def window_quotient(a: Automaton) -> tuple[list[int], list[tuple], list[tuple[int, int]]]:
    """Verified classes of the copies' nodes, the quotient's rows, and the starts.

    starts holds (sign, initial class) for each window.  Nodes are grouped
    by the part of their word inside their window, up to reversal, so a left
    copy's node 0v shares its class with the right copy's v0 and with the
    left copy's 0v', v' the reversal of v.  When the groups are not a
    lumping (`quotient_rows`), every node is its own class.  The result is
    kept on a, so a generating-function fit and the series it counts build
    it once.
    """
    memo = a.__dict__.get("_window_quotient")
    if memo is not None:
        return memo
    nodes = window_nodes(a)
    # the columns of each window; crops of equal length are the same window
    # up to position, so the side copies share keys
    crops = (slice(None), slice(1, None), slice(None, -1), slice(1, -1))
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
    keys: dict[tuple[int, ...], int] = {}
    classes: list[int] = []
    words = [s.word.labels for s in a.states]
    for window, s in nodes:
        word = words[s][crops[window]]
        key = canonical.get(word)
        if key is None:
            key = canonical[word] = min(word, first_occurrence_relabel(word[::-1]))
        classes.append(keys.setdefault(key, len(keys)))
    rows = quotient_rows(a, nodes, classes)
    if rows is None:
        classes = list(range(len(nodes)))
        rows = quotient_rows(a, nodes, classes)
    starts = [(WINDOW_SIGNS[w], classes[i]) for i, (w, s) in enumerate(nodes) if s == 0]
    initial = {c for _, c in starts}
    if not initial.isdisjoint(chain.from_iterable(out for _, _, out in rows)):
        raise ValueError("a transition enters the initial state")
    memo = a.__dict__["_window_quotient"] = classes, rows, starts
    return memo


def degree_bound(a: Automaton) -> int:
    """K: the verified window quotient's classes less its initial classes."""
    _, rows, starts = window_quotient(a)
    return len(rows) - len({c for _, c in starts})


def window_groups(a: Automaton) -> list[tuple[int, int, int]]:
    """(sign, lo, hi) of each window group: the classes lo..hi - 1.

    Classes are numbered window by window, so a group runs from one initial
    class, lo, to the next; its sign is the sum of its starts' signs.
    Raises ValueError unless every group's targets stay in it.
    """
    _, rows, starts = window_quotient(a)
    cuts = sorted({c for _, c in starts}) + [len(rows)]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        if any(out and (out[0] < lo or out[-1] >= hi) for _, _, out in rows[lo:hi]):
            raise ValueError("a transition leaves its window group")
        groups.append((sum(sign for sign, c in starts if c == lo), lo, hi))
    return groups


def dp_plan(
    a: Automaton, group: tuple[int, int, int]
) -> list[tuple[int, int, list[int], list[int]]]:
    """How one DP step computes a window group's row sums, each from another.

    Entry (c, p, plus, minus) sets w[c] = w[p] + sum(u[plus]) - sum(u[minus])
    in the group's own class numbers, class - lo: row p's target multiset
    with plus added and minus taken away is row c's, and p = -1 is the
    empty row.  Entries come in evaluation order, p before c.  The parents
    form a minimum spanning tree (Prim) under the L1 distance between
    target multisets, rooted at the empty row.  Kept on a, one per group.
    """
    _, lo, hi = group
    plans = a.__dict__.setdefault("_dp_plans", {})
    plan = plans.get(lo)
    if plan is None:
        rows = window_quotient(a)[1][lo:hi]
        plan = plans[lo] = _spanning_tree([out for _, _, out in rows], lo)
    return plan


def _unary_codes(group: list[list[int]]) -> tuple[int, int, list[int]]:
    """Each sorted row as an int whose bit count of XOR is the L1 distance.

    Returns (span, low, codes).  Bit t - low + k * span of a row's code is
    set when target t occurs more than k times in the row.
    """
    low = min((targets[0] for targets in group if targets), default=0)
    span = max((targets[-1] for targets in group if targets), default=0) - low + 1
    unit = [0] * low + [1 << t for t in range(span)]
    codes = []
    for targets in group:
        distinct = set(targets)
        code = sum(map(unit.__getitem__, distinct))
        shift = 0
        while len(distinct) < len(targets):
            # each value that equals its predecessor: one copy of each less
            rest = targets[1:]
            targets = list(compress(rest, map(eq, targets, rest)))
            distinct = set(targets)
            shift += span
            code += sum(map(unit.__getitem__, distinct)) << shift
        codes.append(code)
    return span, low, codes


def _fields(bits: int, span: int, low: int) -> list[int]:
    """The targets a code's set bits stand for, with repeats."""
    targets = []
    while bits:
        top = bits.bit_length() - 1
        targets.append(low + top % span)
        bits ^= 1 << top
    return targets


def _spanning_tree(group: list[list[int]], lo: int) -> list[tuple[int, int, list[int], list[int]]]:
    """Prim's plan (`dp_plan`) for the rows of classes lo, lo + 1, ..., numbered from lo."""
    span, low, codes = _unary_codes(group)
    low -= lo
    # best[j]: distance from row j to the tree so far, len(row j) from the root
    best = list(map(len, group))
    parent = [-1] * len(group)
    left = list(range(len(group)))
    plan = []
    while left:
        i = min(left, key=best.__getitem__)
        left.remove(i)
        p = parent[i]
        code = codes[i]
        theirs = codes[p] if p >= 0 else 0
        plan.append((i, p, _fields(code & ~theirs, span, low), _fields(theirs & ~code, span, low)))
        for j in left:
            d = (code ^ codes[j]).bit_count()
            if d < best[j]:
                best[j] = d
                parent[j] = i
    return plan


def group_series(a: Automaton, group: tuple[int, int, int], h_max: int, slot: int = 0) -> list[int]:
    """A window group's weight at its initial class after 0..h_max steps.

    With slot, a step into a node multiplies by 2^(slot * its fill count).
    A run shorter than PLAN_PAYBACK_STEPS gives every row the empty row as
    its parent: the plain row sum, in the same loop.
    """
    _, lo, hi = group
    rows = window_quotient(a)[1][lo:hi]
    if h_max < PLAN_PAYBACK_STEPS:
        plan = [(c, -1, [t - lo for t in out], []) for c, (_, _, out) in enumerate(rows)]
    else:
        plan = dp_plan(a, group)
    shifts = [slot * fill for _, fill, _ in rows]
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


def count_series(a: Automaton, h_max: int) -> SeriesTable:
    """Exact number of accepted stacks for every height 0..h_max.

    A group whose fit pays (FIT_SPAN) takes its terms past 2k + 1 from the
    fit of its first 2k + 2 (module docstring).
    """
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    from .genfunc import expand, fit_rational  # genfunc imports this module

    counts = [1] + [0] * h_max
    for group in window_groups(a):
        sign, lo, hi = group
        k = hi - lo - 1
        if h_max + 1 >= FIT_SPAN * (2 * k + 2):
            head = group_series(a, group, 2 * k + 1)
            terms = expand(fit_rational(head, k), h_max + 1, head)
        else:
            terms = group_series(a, group, h_max)
        for h, t in enumerate(terms):
            counts[h] += sign * t
    return SeriesTable(a.width, tuple(counts))


def _area_slot_bytes(a: Automaton, h_max: int) -> int:
    """Slot width for area polynomials up to h_max in whole bytes.

    Coefficients are below (2^b - 1)^h_max, so slots of at least
    width*h_max + 8 bits can never collide.
    """
    return (a.width * max(h_max, 1) + 15) // 8


def group_area_series(a: Automaton, group: tuple[int, int, int], h_max: int) -> list[Polynomial]:
    """A window group's series refined by area: one polynomial in q per height."""
    slot_bytes = _area_slot_bytes(a, h_max)
    packed = group_series(a, group, h_max, 8 * slot_bytes)
    return [Polynomial(unpack_coefficients(acc, slot_bytes)) for acc in packed]


def count_area_series(a: Automaton, h_max: int) -> SeriesTable:
    """Counts refined by area: one polynomial in q per height."""
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    slot_bytes = _area_slot_bytes(a, h_max)
    packed = [1] + [0] * h_max
    for group in window_groups(a):
        for h, acc in enumerate(group_series(a, group, h_max, 8 * slot_bytes)):
            packed[h] += group[0] * acc
    polys = tuple(Polynomial(unpack_coefficients(acc, slot_bytes)) for acc in packed)
    return SeriesTable(a.width, tuple(poly.evaluate(1) for poly in polys), polys)


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
