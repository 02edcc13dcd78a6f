"""Automaton states: label words over a row plus side-contact flags.

A state is a width-b word of component labels (0 = empty cell, equal labels =
same connected component of everything read so far) together with two flags
recording whether the left and right sides of the bounding rectangle have been
touched.  Words are kept in canonical form: first occurrences of nonzero
labels read 1, 2, 3, ... from left to right.

The LabeledWord and AutomatonState constructors enforce every validity
condition (Separation, Non-crossing, canonical labels, the side-flag rules),
so each value of either type is a valid state.  word_masks() and
word_labels() convert to and from the kernel form that transition.advance()
runs on, the one transition in the package; the paper's three-phase
transition and its canonical relabeling live in tests/reference.py as the
reference the kernel is checked against.
"""

from __future__ import annotations

from collections.abc import Sequence

from .record import Record
from .rowconfig import MAX_WIDTH, letter_runs


def max_label(width: int) -> int:
    """Largest label a width-b word can need: ceil(b / 2)."""
    return (width + 1) // 2


def separation_ok(labels: Sequence[int]) -> bool:
    """Adjacent nonzero cells must carry the same label."""
    return all(
        not (a and b and a != b) for a, b in zip(labels, labels[1:])
    )


def non_crossing_ok(labels: Sequence[int]) -> bool:
    """No two components interleave as i < k < j < l with labels a,c,a,c.

    Balanced-bracket test: walk left to right keeping a stack of components
    whose span is still open.  Returning to a component demands that every
    component opened after it is already finished.
    """
    last: dict[int, int] = {}
    for i, a in enumerate(labels):
        if a:
            last[a] = i
    stack: list[int] = []
    opened: set[int] = set()
    for i, a in enumerate(labels):
        if not a:
            continue
        if a not in opened:
            stack.append(a)
            opened.add(a)
            continue
        while stack[-1] != a:
            t = stack.pop()
            if last[t] > i:
                return False
    return True


def canonical_ok(labels: Sequence[int]) -> bool:
    """First occurrences of nonzero labels must read 1, 2, 3, ..."""
    seen = 0
    for a in labels:
        if a > seen:
            if a != seen + 1:
                return False
            seen += 1
    return True


def word_masks(labels: Sequence[int]) -> tuple[int, ...]:
    """Kernel form of a canonical label word: one cell mask per component."""
    top = len(labels) - 1
    return tuple(
        sum(1 << (top - i) for i, a in enumerate(labels) if a == k)
        for k in range(1, max(labels, default=0) + 1)
    )


def word_labels(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Canonical label word of a kernel word; inverse of word_masks."""
    return tuple(
        next((k for k, m in enumerate(masks, 1) if m >> (width - 1 - i) & 1), 0)
        for i in range(width)
    )


class LabeledWord(Record):
    """Canonical component-label word for one row.

    Width 0 is permitted only so the degenerate width-0 state table (a lone
    initial state) stays expressible; everything else uses width >= 1.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[int]):
        labels = tuple(labels)  # a list would compare unequal and not hash
        object.__setattr__(self, "labels", labels)
        bound = max_label(len(labels))
        for a in labels:
            if type(a) is not int or a < 0 or a > bound:
                raise ValueError(f"label {a!r} out of range 0..{bound}")
        if not separation_ok(labels):
            raise ValueError(f"separation violated: {labels}")
        if not non_crossing_ok(labels):
            raise ValueError(f"crossing components: {labels}")
        if not canonical_ok(labels):
            raise ValueError(f"not canonically labeled: {labels}")

    @property
    def width(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "".join(str(a) for a in self.labels)


class AutomatonState(Record):
    """A canonical word plus left/right side-contact flags."""

    __slots__ = ("word", "left_touched", "right_touched")

    def __init__(self, word: LabeledWord, left_touched: bool, right_touched: bool):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "left_touched", left_touched)
        object.__setattr__(self, "right_touched", right_touched)
        labels = self.word.labels
        if not any(labels) and (self.left_touched or self.right_touched):
            raise ValueError("empty word cannot have touched a side")
        if labels and labels[0] and not self.left_touched:
            raise ValueError("leftmost cell filled but left flag unset")
        if labels and labels[-1] and not self.right_touched:
            raise ValueError("rightmost cell filled but right flag unset")

    @property
    def width(self) -> int:
        return self.word.width

    def __str__(self) -> str:
        flag = {True: "T", False: "F"}
        return f"({self.word},{flag[self.left_touched]},{flag[self.right_touched]})"


def initial_state(width: int) -> AutomatonState:
    """All-empty word with both flags down."""
    return AutomatonState(LabeledWord((0,) * width), False, False)


def is_accepting(state: AutomatonState) -> bool:
    """Single component covering every filled cell, both sides touched."""
    labels = state.word.labels
    return (
        any(labels)
        and all(a <= 1 for a in labels)
        and state.left_touched
        and state.right_touched
    )


def _growth_strings(n: int) -> list[tuple[int, ...]]:
    """Restricted growth strings of length n: every set partition, first-occurrence numbered."""
    strings = [()]
    for _ in range(n):
        strings = [s + (v,) for s in strings for v in range(max(s, default=-1) + 2)]
    return strings


def enumerate_valid_states(width: int) -> list[AutomatonState]:
    """Every valid state of the given width, initial state first.

    Candidates are generated structurally: for each nonempty fill mask the
    label word is constant on each maximal run, so the words for that mask are
    exactly the non-crossing set partitions of its runs.  Deterministic order:
    masks ascending, partition strings in generation order, left flag before
    right flag.
    """
    if type(width) is not int or not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 0..{MAX_WIDTH}, got {width!r}")
    if width == 0:
        return [AutomatonState(LabeledWord(()), False, False)]
    states = [initial_state(width)]
    for mask in range(1, 1 << width):
        runs = letter_runs(mask)
        for rgs in _growth_strings(len(runs)):
            masks = [0] * (max(rgs) + 1)
            for run, block in zip(runs, rgs):
                masks[block] |= run
            labels = word_labels(masks, width)
            if not non_crossing_ok(labels):
                continue
            word = LabeledWord(labels)
            left_choices = (True,) if labels[0] else (False, True)
            right_choices = (True,) if labels[-1] else (False, True)
            for left in left_choices:
                for right in right_choices:
                    states.append(AutomatonState(word, left, right))
    return states
