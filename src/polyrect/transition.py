"""The transition map: feed one row to a state, get the successor state.

One kernel, advance(), runs every transition: step(), build(), deserialize()
and counting.  A kernel word is one cell mask per component in leftmost-cell
order, so canonical by construction.  A component that receives no cell of
the new row makes the transition undefined; otherwise the runs of the row
that one old component touches merge into one new component.  The paper
states the same map as three phases (continuation, vertical connexity,
horizontal connexity); tests/reference.py keeps them as the reference step()
is checked against.
"""

from __future__ import annotations

from collections.abc import Sequence

from .rowconfig import RowConfig, letter_runs
from .states import AutomatonState, LabeledWord, word_labels, word_masks

__all__ = ["step"]


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
