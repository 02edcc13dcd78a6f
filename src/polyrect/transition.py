"""The transition map: feed one row to a state, get the successor state.

The paper's three phases, kept as the reference the kernel is tested
against.  Continuation: every current component must receive at least one
cell of the new row, else the row kills a component and the transition is
undefined.  Vertical: each new cell inherits the label above it, or a fresh
label if the cell above is empty.  Horizontal: cells adjacent in the new row
are connected, so runs sharing a letter merge transitively and the result is
relabeled canonically.

step() and the automaton run advance() instead: a word is one cell mask per
component in leftmost-cell order, so canonical by construction.
"""

from __future__ import annotations

from collections.abc import Sequence

from .rowconfig import RowConfig, letter_runs
from .states import (
    AutomatonState, LabeledWord, first_occurrence_relabel, word_labels, word_masks,
)

__all__ = [
    "continuation_allowed",
    "vertical_connexity",
    "horizontal_connexity",
    "step",
]


def continuation_allowed(word: LabeledWord, row: RowConfig) -> bool:
    """True when every nonzero label of word sits above a filled cell of row."""
    if word.width != row.width:
        raise ValueError(f"width mismatch: {word.width} vs {row.width}")
    cells = row.cells
    alive = set()
    for label, filled in zip(word.labels, cells):
        if label and filled:
            alive.add(label)
    for label in word.labels:
        if label and label not in alive:
            return False
    return True


def vertical_connexity(word: LabeledWord, row: RowConfig) -> tuple[int, ...]:
    """Raw label sequence for the new row before horizontal merging.

    Empty new cell: 0.  Filled cell under a filled cell: the label above.
    Filled cell under an empty cell: a fresh label, one larger than anything
    used so far (in the old word or the sequence built so far); consecutive
    uncovered cells therefore get distinct fresh labels, and the horizontal
    phase merges them.  The result may violate Separation and may use labels
    beyond the canonical bound; only horizontal_connexity restores the word
    invariants.
    """
    if not continuation_allowed(word, row):
        raise ValueError(f"transition undefined: {word} cannot continue into {row}")
    cells = row.cells
    old = word.labels
    highest = max(old)
    out: list[int] = []
    for label, filled in zip(old, cells):
        if not filled:
            out.append(0)
        elif label:
            out.append(label)
        else:
            highest += 1
            out.append(highest)
    return tuple(out)


def horizontal_connexity(raw: Sequence[int]) -> LabeledWord:
    """Merge runs that share a letter, transitively, and relabel canonically.

    Runs are the maximal blocks of nonzero cells.  Letters within one run are
    all connected, so a union-find over letters (uniting along each run) makes
    two runs equivalent exactly when a chain of shared letters links them.
    Merged groups are numbered by their leftmost run, which is precisely the
    canonical first-occurrence order.
    """
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    prev = 0
    for label in raw:
        if label and label not in parent:
            parent[label] = label
        if label and prev:
            union(prev, label)
        prev = label

    return LabeledWord(first_occurrence_relabel([find(a) if a else 0 for a in raw]))


def advance(word: tuple[int, ...], bits: int, runs: tuple[int, ...]) -> tuple[int, ...] | None:
    """Successor of a kernel word under a letter, or None when a component misses it.

    runs is letter_runs(bits).  Each old component unites the groups of runs
    it touches; groups are disjoint masks, so decreasing order is leftmost-run
    order.
    """
    for comp in word:
        if not comp & bits:
            return None
    if len(runs) == 1:
        return runs
    groups = list(runs)
    for comp in word:
        joined = 0
        rest = []
        for g in groups:
            if g & comp:
                joined |= g
            else:
                rest.append(g)
        rest.append(joined)
        groups = rest
    groups.sort(reverse=True)
    return tuple(groups)


def reversed_masks(width: int) -> list[int]:
    """Every width-w mask with its cells in reverse order, indexed by mask."""
    return [int(format(m, f"0{width}b")[::-1], 2) for m in range(1 << width)]


def mirror(word: tuple[int, ...], flip: Sequence[int]) -> tuple[int, ...]:
    """A kernel word's left-right mirror image, flip being reversed_masks(width).

    Stepping commutes with it: mirror(word) under the letter flip[bits] steps
    to the mirror of what word steps to under bits, or both are undefined.
    """
    # a kernel word lists its components in decreasing mask order
    return tuple(sorted([flip[m] for m in word], reverse=True))


def step(state: AutomatonState, row: RowConfig) -> AutomatonState | None:
    """Successor state after reading row, or None when undefined."""
    if state.width != row.width:
        raise ValueError(f"width mismatch: {state.width} vs {row.width}")
    word = advance(word_masks(state.word.labels), row.bits, letter_runs(row.bits))
    if word is None:
        return None
    return AutomatonState(
        LabeledWord(word_labels(word, row.width)),
        state.left_touched or row.touches_left(),
        state.right_touched or row.touches_right(),
    )
