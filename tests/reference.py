"""Reference implementations that only the tests use.

Each one computes something the package computes faster or by another
route, so the tests can cross-check the two: the paper's three-phase
transition (continuation, vertical connexity, horizontal connexity) with
its canonical relabeling, which step() and its mask kernel
transition.advance() must match; the forward counting DP on the full
automaton; the dense transfer matrix; a symbolic generating function by
determinant elimination; the reversed characteristic polynomial; the
straightforward serializer and DOT writer that render one transition at a
time; and the schoolbook ring on Polynomial values (`poly_add`, `poly_mul`
and their kin), which the package does on packed integers instead.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from polyrect import Automaton, LabeledWord, Polynomial, RowConfig, SeriesTable, build
from polyrect.genfunc import RationalGF
from polyrect.polynomial import ONE, unpack_coefficients

ZERO = Polynomial()


def first_occurrence_relabel(labels: Sequence[int]) -> tuple[int, ...]:
    """Rename nonzero labels in order of first appearance, one left-to-right pass."""
    mapping: dict[int, int] = {}
    out = []
    for a in labels:
        if not a:
            out.append(0)
            continue
        if a not in mapping:
            mapping[a] = len(mapping) + 1
        out.append(mapping[a])
    return tuple(out)


def continuation_allowed(word: LabeledWord, row: RowConfig) -> bool:
    """True when every nonzero label of word sits above a filled cell of row."""
    if word.width != row.width:
        raise ValueError(f"width mismatch: {word.width} vs {row.width}")
    cells = [c == "1" for c in str(row)]
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
    cells = [c == "1" for c in str(row)]
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


def _lift(c) -> Polynomial:
    """c as a Polynomial: an int is a constant."""
    return c if isinstance(c, Polynomial) else Polynomial((c,))


def poly_add(a, b):
    """a + b for ints and Polynomials whose coefficients are either, nested."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    a, b = _lift(a).coeffs, _lift(b).coeffs
    if len(a) < len(b):
        a, b = b, a
    return Polynomial(poly_add(c, b[i]) if i < len(b) else c for i, c in enumerate(a))


def poly_neg(a):
    """-a, coefficient by coefficient."""
    return -a if isinstance(a, int) else Polynomial(poly_neg(c) for c in a.coeffs)


def poly_sub(a, b):
    """a - b."""
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    """a * b by the schoolbook convolution; an int factor scales."""
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    a, b = _lift(a).coeffs, _lift(b).coeffs
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[i + j] = poly_add(out[i + j], poly_mul(x, y))
    return Polynomial(out)


def expand_reference(gf: RationalGF, n_terms: int, head=()) -> list:
    """expand(gf, n_terms, head) by the schoolbook recurrence on nested Polynomials."""
    num, den = gf.numerator.coeffs, gf.denominator.coeffs
    out = list(head[:n_terms])
    for j in range(len(out), n_terms):
        acc = num[j] if j < len(num) else 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = poly_sub(acc, poly_mul(den[k], out[j - k]))
        out.append(acc)
    return out


def poly_prod(factors):
    """The product of the factors, ONE for none."""
    out = ONE
    for f in factors:
        out = poly_mul(out, f)
    return out


def serialize_reference(a: Automaton) -> bytes:
    """serialize(a) as one json.dumps over the whole document."""
    def word(s):
        return str(s.word) if a.width <= 9 else ",".join(map(str, s.word.labels))

    doc = {
        "version": 1,
        "b": a.width,
        "states": [
            {"word": word(s), "l": s.left_touched, "r": s.right_touched} for s in a.states
        ],
        "accepting": sorted(a.accepting),
        "transitions": [
            [[rank + 1, t] for rank, t in enumerate(row) if t >= 0] for row in a.transitions
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


def export_dot_reference(a: Automaton) -> str:
    """export_dot(a), one line per state and per defined transition."""
    lines = ["digraph automaton {", "  rankdir=TB;", '  __start [shape=point, label=""];']
    for i, s in enumerate(a.states):
        shape = "doublecircle" if i in a.accepting else "circle"
        lines.append(f'  q{i} [shape={shape}, label="{s}"];')
    lines.append("  __start -> q0;")
    for i, row in enumerate(a.transitions):
        for rank, t in enumerate(row):
            if t >= 0:
                lines.append(f'  q{i} -> q{t} [label="{rank + 1:0{a.width}b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transfer_matrix(a: Automaton) -> list[list[int]]:
    """M[i][j] = number of letters carrying state i to state j."""
    n = a.n_states
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(a.transitions):
        for t in row:
            if t >= 0:
                m[i][t] += 1
    return m


def _forward_accepted(a: Automaton, h_max: int, shifts: list[int] | None = None):
    """Total accepting weight after each of 1..h_max steps, on every state.

    The occupancy vector starts as the indicator of the initial state and
    each step pushes weight along every defined transition.  With shifts, a
    step into state t multiplies by 2^shifts[t].
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


def forward_counts(a: Automaton, h_max: int) -> tuple[int, ...]:
    """count_series(a, h_max).counts by the forward DP on the full automaton."""
    return (1, *_forward_accepted(a, h_max))


def forward_area_counts(a: Automaton, h_max: int) -> tuple[Polynomial, ...]:
    """count_area_series(a, h_max).area_counts by the forward DP."""
    slot_bytes = (a.width * max(h_max, 1) + 15) // 8
    shifts = [8 * slot_bytes * sum(1 for c in s.word.labels if c) for s in a.states]
    return (
        Polynomial((1,)),
        *(Polynomial(unpack_coefficients(acc, slot_bytes))
          for acc in _forward_accepted(a, h_max, shifts)),
    )


def validate_table(table: SeriesTable) -> None:
    """Assert the invariants of a series table."""
    if not table.counts or table.counts[0] != 1:
        raise AssertionError("counts[0] must be the conventional 1")
    h_max = len(table.counts) - 1
    for h in range(2, h_max):
        if table.counts[h + 1] < table.counts[h]:
            raise AssertionError(f"counts must be monotone from h=2, broken at {h}")
    if table.area_counts is None:
        return
    if len(table.area_counts) != len(table.counts):
        raise AssertionError("area table length mismatch")
    if table.area_counts[0] != 1:
        raise AssertionError("area_counts[0] must be the constant 1")
    for h in range(1, h_max + 1):
        poly = table.area_counts[h]
        if poly.evaluate(1) != table.counts[h]:
            raise AssertionError(f"area polynomial at h={h} does not sum to the count")
        if poly:
            low = next(i for i, c in enumerate(poly.coeffs) if c)
            if low < max(table.b, h) or poly.degree > table.b * h:
                raise AssertionError(f"area support out of bounds at h={h}")


def _exact_int_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact division of integer polynomials (raises if not exact)."""
    if not a:
        return ZERO
    ra = list(a.coeffs)
    rb = b.coeffs
    db = len(rb) - 1
    lead = rb[-1]
    if len(ra) <= db:
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(ra) - db)
    for i in range(len(ra) - db - 1, -1, -1):
        c = ra[i + db]
        if c:
            q, rem = divmod(c, lead)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            out[i] = q
            for j in range(db + 1):
                ra[i + j] -= q * rb[j]
    if any(ra):
        raise ArithmeticError("inexact polynomial division")
    return Polynomial(out)


def _poly_det_bareiss(mat: list[list[Polynomial]]) -> Polynomial:
    """Determinant of an integer-polynomial matrix, fraction-free."""
    n = len(mat)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not mat[k][k]:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return ZERO
        piv = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                value = poly_sub(poly_mul(piv, row_i[j]), poly_mul(lead, mat[k][j]))
                row_i[j] = _exact_int_div(value, prev)
            row_i[k] = ZERO
        prev = piv
    result = mat[n - 1][n - 1]
    return result if sign > 0 else poly_neg(result)


def gf_height_by_elimination(
    width: int,
    *,
    automaton: Automaton | None = None,
) -> RationalGF:
    """Second backend: solve the linear system symbolically, no series fit.

    G = 1 + a^T (I - xM)^{-1} e0 for transfer matrix M, accepting indicator a,
    and initial unit vector e0, computed as a ratio of two determinants by
    fraction-free elimination, and not reduced.  Exponentially sized
    intermediates make this a small-width cross-check, not a production path.
    """
    a = automaton if automaton is not None else build(width)
    m = transfer_matrix(a)
    n = a.n_states
    x = Polynomial((0, 1))

    def entry(i: int, j: int) -> Polynomial:
        base = ONE if i == j else ZERO
        return poly_sub(base, poly_mul(x, m[i][j])) if m[i][j] else base

    system = [[entry(i, j) for j in range(n)] for i in range(n)]
    den = _poly_det_bareiss([row[:] for row in system])
    # border with the accepting column and -e0 row: the bordered determinant
    # equals den * (e0^T (I - xM)^{-1} a), the height series without its
    # constant term
    bordered = [
        row[:] + [ONE if i in a.accepting else ZERO]
        for i, row in enumerate(system)
    ]
    border_row = [Polynomial((-1,)) if i == 0 else ZERO for i in range(n)] + [ZERO]
    bordered.append(border_row)
    num = _poly_det_bareiss(bordered)
    return RationalGF(poly_add(den, num), den)


def reversed_charpoly(a: Automaton) -> Polynomial:
    """det(I - x M) for the transfer matrix M, ascending powers of x.

    Faddeev-LeVerrier over exact integers; every division is exact.  The
    denominator of the fitted height generating function divides this.
    """
    m = transfer_matrix(a)
    n = a.n_states
    coeffs = [1]
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [
            [sum(m[i][t] * work[t][j] for t in range(n) if m[i][t]) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        ck = -trace // k
        assert ck * k == -trace
        coeffs.append(ck)
        for i in range(n):
            prod[i][i] += ck
        work = prod
    return Polynomial(coeffs)
