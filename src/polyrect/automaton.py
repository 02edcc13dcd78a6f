"""Automaton construction, the closed-form state count, and persistence.

build() explores states breadth-first from the all-empty initial state, with
rows fed in ascending numeric order, so state indices are a deterministic
discovery order.  The transition table is dense: one row per state, one slot
per alphabet letter, -1 marking undefined transitions.

Side flags never affect the word transition, so build() and deserialize()
step each distinct (kernel word, letter) pair once, through a per-word memo
of flat arrays that lives only as long as the call.  The left-right
reflection maps the transition map to itself, so a word whose mirror image
was stepped first takes the image's steps reflected, without stepping.
While building, a state is the int word_id << 2 | left << 1 | right; one
LabeledWord per word, and with it word validation, and one AutomatonState per
state are made at the end.  serialize() and export_dot() render one state's
row at a time, from a template per defined-letter pattern; the CLI writes
those chunks as they come.  deserialize() checks one rule against one
exploration: a valid file's states are closed under steps and all reachable
from state 0, so they are exactly build()'s states, listed in some order.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections.abc import Iterator
from itertools import compress
from math import comb

from .errors import (
    AutomatonFormatError,
    AutomatonInvariantError,
    AutomatonVersionError,
    ResourceLimitError,
)
from .record import Record
from .rowconfig import MAX_WIDTH, check_width, letter_runs
from .states import AutomatonState, LabeledWord, initial_state, is_accepting, word_labels
from .transition import advance, mirror, reversed_masks

FORMAT_VERSION = 1
DEFAULT_STATE_CEILING = 10**6


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def state_count_formula(width: int) -> int:
    """Exact number of valid states for the given width.

    1 for the initial state, plus one term per nonempty fill mask: the
    Catalan number of its run count r (the non-crossing groupings of the
    runs), doubled once when the leftmost cell is empty (free left flag) and
    once when the rightmost cell is empty (free right flag).  Of the width-w
    masks with r runs, C(w - 1, 2r - 2) fill both end cells, 2 C(w - 1, 2r - 1)
    fill exactly one and C(w - 1, 2r) fill neither, so the sum runs over r.
    """
    if type(width) is not int or not 0 <= width <= 62:
        raise ValueError(f"width must be in 0..62, got {width!r}")
    if not width:
        return 1
    n = width - 1
    return 1 + sum(
        catalan(r) * (comb(n, 2 * r - 2) + 4 * comb(n, 2 * r - 1) + 4 * comb(n, 2 * r))
        for r in range(1, n // 2 + 2)
    )


class Automaton(Record):
    """Built automaton: states in discovery order, dense transition table.

    transitions holds one array('i') row per state; slot bits - 1 holds the
    target index of the letter with those row bits, or -1 (any negative
    value) when it is undefined.
    """

    __slots__ = ("width", "states", "accepting", "transitions")

    def __init__(self, width: int, states: tuple[AutomatonState, ...],
                 accepting: frozenset[int], transitions: tuple[array, ...]):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "transitions", transitions)

    @property
    def n_states(self) -> int:
        return len(self.states)


def _explore(width: int, max_states: int) -> Automaton:
    """build() without its checks of width and ceiling.

    While exploring, a state is the key word_id << 2 | left << 1 | right,
    where words[word_id] is its kernel word; walking keys while it grows is
    the search.  Raises ResourceLimitError on reaching more than max_states.

    A word's defined steps are two flat arrays, letter ranks ascending and
    target bases word_id << 2 | touches.  A word whose mirror image already
    has steps takes the image's reflected: each letter flipped, each target
    word mirrored, the touch bits swapped.
    """
    letters = [
        (bits - 1, bits, letter_runs(bits), (bits >> (width - 1)) << 1 | bits & 1)
        for bits in range(1, 1 << width)
    ]
    flip = reversed_masks(width)
    flipped_rank = [flip[bits] - 1 for bits in range(1, 1 << width)]
    words: list[tuple[int, ...]] = [()]
    word_ids = {(): 0}
    memo: dict[int, tuple[array, array]] = {}
    mirrored: dict[int, int] = {}  # target base -> its mirror image's base
    keys = [0]
    index = {0: 0}
    rows = []
    for key in keys:
        steps = memo.get(key >> 2)
        if steps is None:
            word = words[key >> 2]
            image = memo.get(word_ids.get(mirror(word, flip), -1))  # its mirror's steps
            if image is None:
                ranks, bases = array("i"), array("i")
                for rank, bits, runs, touches in letters:
                    nxt = advance(word, bits, runs)
                    if nxt is not None:
                        nid = word_ids.setdefault(nxt, len(words))
                        if nid == len(words):
                            words.append(nxt)
                        ranks.append(rank)
                        bases.append(nid << 2 | touches)
            else:
                for base in set(image[1]).difference(mirrored):
                    nxt = mirror(words[base >> 2], flip)
                    nid = word_ids.setdefault(nxt, len(words))
                    if nid == len(words):
                        words.append(nxt)
                    mirrored[base] = nid << 2 | (base & 1) << 1 | base >> 1 & 1
                by_rank = dict(zip(map(flipped_rank.__getitem__, image[0]),
                                   map(mirrored.__getitem__, image[1])))
                ranks = array("i", sorted(by_rank))
                bases = array("i", map(by_rank.__getitem__, ranks))
            steps = memo[key >> 2] = ranks, bases
        flags = key & 3
        row = array("i", [-1]) * len(letters)
        for rank, base in zip(*steps):
            j = index.get(base | flags)
            if j is None:
                j = len(keys)
                if j >= max_states:
                    raise ResourceLimitError(
                        f"state ceiling {max_states} hit while building width {width}"
                    )
                index[base | flags] = j
                keys.append(base | flags)
            row[rank] = j
        rows.append(row)
    labeled = [LabeledWord(word_labels(word, width)) for word in words]
    states = tuple(AutomatonState(labeled[key >> 2], key & 2 > 0, key & 1 > 0) for key in keys)
    accepting = frozenset(i for i, s in enumerate(states) if is_accepting(s))
    return Automaton(width, states, accepting, tuple(rows))


def check_ceiling(width: int, max_states: int) -> None:
    """Raise unless width is an int in 1..MAX_WIDTH and its automaton fits max_states.

    ValueError for the width or a max_states that is not an int,
    ResourceLimitError when the projected state count exceeds max_states.
    Counting builds no automaton, but keeps this ceiling, so every command
    stops at the same widths.
    """
    check_width(width)
    if type(max_states) is not int:
        raise ValueError(f"max_states must be an int, got {max_states!r}")
    projected = state_count_formula(width)
    if projected > max_states:
        raise ResourceLimitError(
            f"width {width} projects {projected} states, ceiling is {max_states}"
        )


def build(width: int, max_states: int = DEFAULT_STATE_CEILING) -> Automaton:
    """Breadth-first closure of the transition map from the initial state.

    Raises ResourceLimitError when the projected or discovered state count
    exceeds max_states.
    """
    check_ceiling(width, max_states)
    return _explore(width, max_states)


def _render_word(word: LabeledWord, width: int) -> str:
    if width <= 9:
        return str(word)
    return ",".join(str(a) for a in word.labels)


def _parse_word(text: str, width: int) -> tuple[int, ...]:
    # isdigit alone also admits digits such as "²" and "١"
    parts = text if width <= 9 else text.split(",")
    if len(parts) != width or not text.isascii() or not all(p.isdigit() for p in parts):
        raise AutomatonFormatError(f"bad word string {text!r} for width {width}")
    return tuple(map(int, parts))


# where a row entry's most significant byte sits in the row's bytes, and a
# table mapping that byte to 1 when the entry is defined: non-negative, so
# the byte is below 0x80
_ITEMSIZE = array("i").itemsize
_HIGH_BYTE = _ITEMSIZE - 1 if sys.byteorder == "little" else 0
_DEFINED = bytes(int(b < 0x80) for b in range(256))


def _row_shapes(a: Automaton, make):
    """Per state, (make(selector), targets) for the selector of its defined letters.

    A row's selector is its own defined-letter pattern, one byte 0 or 1 per
    letter, read from the array('i') bytes; make runs once per distinct
    pattern, so a hand-made row gets the right template by construction.
    """
    shapes = {}
    for row in a.transitions:
        selector = row.tobytes()[_HIGH_BYTE::_ITEMSIZE].translate(_DEFINED)
        template = shapes.get(selector)
        if template is None:
            template = shapes[selector] = make(selector)
        yield template, tuple(compress(row, selector))


def serialize_chunks(a: Automaton) -> Iterator[bytes]:
    """serialize(a) in pieces: the JSON header, one row per state, the tail.

    The transitions are spliced in as text after the JSON-encoded header,
    each row filling the template of its defined letters, "[[1,%d],[3,%d],...]".
    """
    doc = {
        "version": FORMAT_VERSION,
        "b": a.width,
        "states": [
            {"word": _render_word(s.word, a.width), "l": s.left_touched, "r": s.right_touched}
            for s in a.states
        ],
        "accepting": sorted(a.accepting),
        "transitions": 0,
    }
    # up to the placeholder "0}"
    yield json.dumps(doc, separators=(",", ":"))[:-2].encode("ascii") + b"["
    pairs = [b"[%d,%%d]" % bits for bits in range(1, 1 << a.width)]
    sep = b""
    for template, targets in _row_shapes(a, lambda sel: b"[%s]" % b",".join(compress(pairs, sel))):
        yield sep + template % targets
        sep = b","
    yield b"]}"


def serialize(a: Automaton) -> bytes:
    """Versioned JSON encoding; byte-identical for equal automata."""
    return b"".join(serialize_chunks(a))


def _checked_states(doc) -> tuple[int, list[AutomatonState]]:
    """Width and states of a decoded document, after every check of its header."""
    if not isinstance(doc, dict):
        raise AutomatonFormatError("top level must be an object")
    version = doc.get("version")
    # bool is an int subclass and 1.0 == 1, so every number is checked by type
    if type(version) is not int or version != FORMAT_VERSION:
        raise AutomatonVersionError(f"unsupported format version {version!r}")
    for key in ("b", "states", "accepting", "transitions"):
        if key not in doc:
            raise AutomatonFormatError(f"missing key {key!r}")
    width = doc["b"]
    if type(width) is not int or not 1 <= width <= MAX_WIDTH:
        raise AutomatonFormatError(f"bad width {width!r}")
    raw_states = doc["states"]
    raw_accepting = doc["accepting"]
    raw_transitions = doc["transitions"]
    if not isinstance(raw_states, list) or not raw_states:
        raise AutomatonFormatError("states must be a nonempty list")
    if not isinstance(raw_accepting, list):
        raise AutomatonFormatError("accepting must be a list")
    for entry in raw_accepting:
        if type(entry) is not int:
            raise AutomatonFormatError(f"bad accepting entry {entry!r}")
    if not isinstance(raw_transitions, list) or len(raw_transitions) != len(raw_states):
        raise AutomatonFormatError("transitions must list one row per state")

    words: dict[str, LabeledWord] = {}  # states share words: parse and validate each once
    states = []
    for entry in raw_states:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("word"), str)
            or not isinstance(entry.get("l"), bool)
            or not isinstance(entry.get("r"), bool)
        ):
            raise AutomatonFormatError(f"bad state entry {entry!r}")
        # outside the try: AutomatonFormatError is a ValueError too
        labels = None if entry["word"] in words else _parse_word(entry["word"], width)
        try:
            if labels is not None:
                words[entry["word"]] = LabeledWord(labels)
            states.append(AutomatonState(words[entry["word"]], entry["l"], entry["r"]))
        except ValueError as exc:
            raise AutomatonInvariantError(f"invalid state {entry['word']!r}: {exc}") from exc

    if states[0] != initial_state(width):
        raise AutomatonInvariantError("state 0 must be the all-empty initial state")
    if len(set(states)) != len(states):
        raise AutomatonInvariantError("duplicate states")
    return width, states


def _parse_rows(raw_transitions: list, width: int, n: int) -> list[array]:
    """Dense rows from the decoded [letter, target] pairs, each pair checked."""
    n_letters = (1 << width) - 1
    rows: list[array] = []
    for i, pairs in enumerate(raw_transitions):
        if not isinstance(pairs, list):
            raise AutomatonFormatError(f"transition row {i} must be a list")
        row = array("i", [-1]) * n_letters
        for pair in pairs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise AutomatonFormatError(f"bad transition entry {pair!r} in row {i}")
            bits, target = pair
            if not 1 <= bits <= n_letters:
                raise AutomatonFormatError(f"letter {bits} out of range in row {i}")
            if row[bits - 1] >= 0:
                raise AutomatonFormatError(f"letter {bits} repeated in row {i}")
            if not 0 <= target < n:
                raise AutomatonInvariantError(f"target {target} out of range in row {i}")
            row[bits - 1] = target
        rows.append(row)
    return rows


def _checked_rows(built: Automaton, states: list, raw_accepting: list, rows) -> Automaton:
    """The automaton of states, once they are built's states in some order,
    rows are built's rows in that order and raw_accepting its accepting states."""
    listed = {s: i for i, s in enumerate(states)}
    order = [listed.get(s, -1) for s in built.states]  # each built state's listed index
    if -1 in order:
        raise AutomatonInvariantError("a step leaves the listed states")
    if len(states) > len(order):
        raise AutomatonInvariantError("serialized automaton has unreachable states")
    want_rows = list(built.transitions)
    if order != list(range(len(order))):
        renumber = order + [-1]  # renumber[-1] keeps an undefined letter undefined
        for i, row in zip(order, built.transitions):
            want_rows[i] = array("i", map(renumber.__getitem__, row))
    for i, (want, have) in enumerate(zip(want_rows, rows)):
        if want != have:
            bits = 1 + next(k for k in range(len(want)) if want[k] != have[k])
            target = states[want[bits - 1]] if want[bits - 1] >= 0 else "nothing (undefined)"
            raise AutomatonInvariantError(f"row {i} letter {bits} should map to {target}")
    accepting = frozenset(i for i, s in enumerate(states) if is_accepting(s))
    if frozenset(raw_accepting) != accepting:
        raise AutomatonInvariantError("accepting set does not match the states")
    return Automaton(built.width, tuple(states), accepting, tuple(want_rows))


def _utf8(data) -> str:
    try:
        return str(data, "utf-8")
    except (UnicodeDecodeError, TypeError) as exc:  # not utf-8, or not bytes-like
        raise AutomatonFormatError(f"not utf-8: {exc}") from exc


def _is_serialization(data: str | bytes | bytearray, a: Automaton) -> bool:
    """Whether data is serialize(a) and then only JSON whitespace, compared in
    place one chunk at a time: bytes against the ASCII chunks, str against
    their text."""
    text = isinstance(data, str)
    pos = 0
    for chunk in serialize_chunks(a):
        if text:
            chunk = chunk.decode("ascii")
        if not data.startswith(chunk, pos):
            return False
        pos += len(chunk)
    return not data[pos:].strip(" \t\n\r" if text else b" \t\n\r")


def deserialize(data: bytes | bytearray | memoryview | str) -> Automaton:
    """Parse and fully re-validate a serialized automaton.

    data is a str or any bytes-like object, which is decoded as UTF-8.
    Malformed or truncated input, or input of another type, raises
    AutomatonFormatError, an unsupported version AutomatonVersionError, and
    structurally parseable data violating an automaton invariant (wrong
    accepting set, wrong or missing transition, unreachable state,
    non-canonical word) AutomatonInvariantError.

    When the header before the last ',"transitions":' lists exactly
    state_count_formula(b) states, the input is compared with
    serialize(build(b)) chunk by chunk, in place: a str, bytes or bytearray
    is neither decoded nor copied (another bytes-like object is decoded
    first), and only JSON whitespace may follow.  If equal, that automaton
    is returned.  Any other input is decoded in full and checked pair by
    pair against that build, or else one capped at the listed state count:
    build's rows, renumbered into the listed order, must equal the file's.
    """
    if not isinstance(data, (str, bytes, bytearray)):
        data = _utf8(data)  # other bytes-like objects have no startswith
    text = isinstance(data, str)
    built = None  # build's automaton of the width the header names
    try:
        cut = data.rfind(',"transitions":' if text else b',"transitions":')
        if cut >= 0:
            head = json.loads((data[:cut] if text else data[:cut].decode()) + "}")
            width, n = head["b"], len(head["states"])
            if type(width) is int and 1 <= width <= MAX_WIDTH and n == state_count_formula(width):
                built = build(width, n)
                if _is_serialization(data, built):
                    return built
    except (ValueError, TypeError, LookupError, RecursionError):  # the full parse reports it
        pass

    if not text:
        data = _utf8(data)
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # a decode error, or too deep or too long a number
        raise AutomatonFormatError(f"bad json: {exc}") from exc
    width, states = _checked_states(doc)
    rows = _parse_rows(doc["transitions"], width, len(states))
    if built is None or built.width != width:
        try:
            built = _explore(width, len(states))
        except ResourceLimitError as exc:
            raise AutomatonInvariantError("a step leaves the listed states") from exc
    return _checked_rows(built, states, doc["accepting"], rows)


def export_dot_chunks(a: Automaton) -> Iterator[str]:
    """export_dot(a) in pieces: the header, one line per state, then each
    state's edges, then the closing brace."""
    yield 'digraph automaton {\n  rankdir=TB;\n  __start [shape=point, label=""];\n'
    for i, s in enumerate(a.states):
        shape = "doublecircle" if i in a.accepting else "circle"
        yield f'  q{i} [shape={shape}, label="{s}"];\n'
    yield "  __start -> q0;\n"
    labels = [format(bits, f"0{a.width}b") for bits in range(1, 1 << a.width)]

    def make(selector):
        return "".join(
            f'  {{source}} -> q%d [label="{label}"];\n' for label in compress(labels, selector)
        )

    for i, (template, targets) in enumerate(_row_shapes(a, make)):
        yield template.replace("{source}", f"q{i}") % targets
    yield "}\n"


def export_dot(a: Automaton) -> str:
    """Graphviz rendering: accepting states doubled, initial state marked."""
    return "".join(export_dot_chunks(a))
