"""Rational generating functions fitted from exact series and then verified.

The height series of a built automaton satisfies a linear recurrence of order
at most the state count, so the generating function is recovered by a minimal
recurrence fit (iterative discrepancy method, kept fraction-free over the
integers) and re-checked against a window of extra series terms.  A fit that
fails its verification window is never returned.

The area-refined series lives over polynomials in q.  Fitting there works by
exact specialization: evaluate q at the integer points 1, -1, 2, -2, ...
(integer Horner), fit each specialized integer series, and interpolate the
fitted coefficients back to polynomials in q in Newton form.  Integer
polynomials have integer divided differences at integer nodes, so the
interpolation divides exactly in the integers.  The candidate is then checked
once, exactly, against every computed term by substituting q = 2^s with a
slot width s large enough that the integer identity implies the identity in
Z[q] (see `_matches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd as _int_gcd
from typing import Sequence

from .automaton import Automaton, DEFAULT_STATE_CEILING, build, transfer_matrix
from .counting import count_area_series, count_series
from .errors import FitCancelled, FitError, ResourceLimitError
from .polynomial import (
    ONE,
    Polynomial,
    ZERO,
    divmod_exact,
    json_ready,
    pack_coefficients,
    poly_gcd,
)

VERIFY_WINDOW = 25
AREA_WIDTH_LIMIT = 4


def _check_cancel(cancel) -> None:
    if cancel is not None and cancel.is_set():
        raise FitCancelled("fit cancelled by caller")


@dataclass(frozen=True)
class RationalGF:
    """Reduced rational function with denominator constant term 1."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if not self.denominator:
            raise ValueError("zero denominator")
        if not self.denominator.coeffs[0] == 1:
            raise ValueError("denominator constant term must be 1")

    @property
    def is_bivariate(self) -> bool:
        return any(
            isinstance(c, Polynomial)
            for c in self.numerator.coeffs + self.denominator.coeffs
        )

    def degrees(self) -> tuple[int, int, int]:
        """(numerator degree, denominator degree, max of the two)."""
        dn = self.numerator.degree
        dd = self.denominator.degree
        return dn, dd, max(dn, dd)

    def to_text(self) -> str:
        return f"({self.numerator.to_string()}) / ({self.denominator.to_string()})"

    def to_json_obj(self) -> dict:
        return {
            "num": [json_ready(c) for c in self.numerator.coeffs],
            "den": [json_ready(c) for c in self.denominator.coeffs],
        }


def expand(gf: RationalGF, n_terms: int) -> list:
    """First n_terms power-series coefficients of the rational function."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    num = gf.numerator.coeffs
    den = gf.denominator.coeffs
    out: list = []
    for j in range(n_terms):
        acc = num[j] if j < len(num) else 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = acc - den[k] * out[j - k]
        out.append(acc)
    return out


def _content_reduce(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = _int_gcd(g, c)
        if g == 1:
            break
    if coeffs[0] < 0:
        g = -g
    if g not in (0, 1):
        coeffs = [c // g for c in coeffs]
    elif g == -1:
        coeffs = [-c for c in coeffs]
    return coeffs


def _min_lfsr(seq: list[int], cancel) -> tuple[list[int], int]:
    """Minimal connection polynomial of an integer sequence.

    Fraction-free iterative discrepancy method: updates cross-multiply instead
    of dividing, and the connection polynomial is content-reduced after every
    change, keeping all arithmetic in the integers.  Returns (C, L) with
    C[0] > 0 and sum(C[i] * seq[n-i]) == 0 for every n >= L.
    """
    c = [1]
    b = [1]
    length = 0
    m = 1
    last_d = 1
    for n, s_n in enumerate(seq):
        _check_cancel(cancel)
        d = 0
        for i, ci in enumerate(c):
            if i > n:
                break
            if ci:
                d += ci * seq[n - i]
        if d == 0:
            m += 1
            continue
        updated = [last_d * x for x in c]
        need = m + len(b)
        if need > len(updated):
            updated.extend([0] * (need - len(updated)))
        for i, bv in enumerate(b):
            if bv:
                updated[m + i] -= d * bv
        while updated[-1] == 0:
            updated.pop()
        if 2 * length <= n:
            c, b = _content_reduce(updated), c
            length = n + 1 - length
            last_d = d
            m = 1
        else:
            c = _content_reduce(updated)
            m += 1
    return c, length


def fit_rational(
    series: Sequence[int | Fraction],
    degree_bound: int,
    cancel=None,
) -> RationalGF:
    """Minimal rational function matching every supplied series term.

    Raises FitError("insufficient terms ...") when fewer than
    2 * degree_bound + 2 terms are supplied or when no rational function with
    denominator degree <= degree_bound and numerator degree <= degree_bound + 1
    fits.  Within those bounds 2 * degree_bound + 2 terms determine the fit:
    for two such fits P/Q and P'/Q', PQ' - P'Q has degree at most
    2 * degree_bound + 1 and vanishes to order 2 * degree_bound + 2, so it is 0.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    series = list(series)
    if len(series) < 2 * degree_bound + 2:
        raise FitError(
            f"insufficient terms: need at least {2 * degree_bound + 2}, got {len(series)}"
        )
    # Scale rational inputs to integers; the connection polynomial is scale
    # invariant and the numerator is rebuilt from the original terms.
    scale = 1
    for v in series:
        if isinstance(v, Fraction):
            scale = scale * v.denominator // _int_gcd(scale, v.denominator)
    ints = [int(v * scale) for v in series]
    c, length = _min_lfsr(ints, cancel)
    deg_c = len(c) - 1
    if deg_c > degree_bound:
        raise FitError(
            f"insufficient terms: minimal denominator degree {deg_c} "
            f"exceeds bound {degree_bound}"
        )
    for n in range(length, len(ints)):
        if sum(c[i] * ints[n - i] for i in range(len(c))) != 0:
            raise FitError("insufficient terms: no rational fit reproduces the series")
    num = []
    for j in range(length):
        acc = 0
        for i in range(min(j, deg_c) + 1):
            acc += c[i] * series[j - i]
        num.append(acc)
    deg_num = max((j for j, v in enumerate(num) if v), default=-1)
    if deg_num > degree_bound + 1:
        raise FitError(
            f"insufficient terms: numerator degree {deg_num} exceeds bound {degree_bound + 1}"
        )
    c0 = c[0]
    if c0 != 1:
        den_coeffs = [Fraction(v, c0) for v in c]
        num = [Fraction(v, c0) if not isinstance(v, Fraction) else v / c0 for v in num]
    else:
        den_coeffs = c
    return RationalGF(
        Polynomial(map(_scalar_tidy, num)),
        Polynomial(map(_scalar_tidy, den_coeffs)),
    )


def gf_height(
    width: int,
    *,
    max_states: int = DEFAULT_STATE_CEILING,
    automaton: Automaton | None = None,
    cancel=None,
) -> RationalGF:
    """Verified generating function of counts by height.

    The fit uses 2n + 10 series terms for n reachable states with degree bound
    n, then must reproduce 25 further terms exactly.  The verified fit is
    strong evidence, not a proof of the closed form.
    """
    a = automaton if automaton is not None else build(width, max_states)
    n = a.n_states
    fit_len = 2 * n + 10
    total = fit_len + VERIFY_WINDOW
    table = count_series(a, total - 1)
    series = list(table.counts)
    gf = fit_rational(series[:fit_len], n, cancel=cancel)
    if expand(gf, total) != series:
        raise FitError("verification window mismatch for the height series fit")
    return gf


class _NewtonTable:
    """Incremental Newton interpolation at distinct integer nodes.

    Divided differences of an integer polynomial at integer nodes are
    integers, so each one is an exact divmod.  A nonzero remainder means no
    integer polynomial fits the values; that difference falls back to a
    Fraction, which keeps the table exact and makes the result non-integer.
    """

    __slots__ = ("xs", "diag", "coeffs")

    def __init__(self):
        self.xs: list[int] = []
        self.diag: list = []
        self.coeffs: list = []

    def add(self, x: int, y) -> None:
        new_diag = [y]
        for k, prev in enumerate(self.diag):
            diff, gap = new_diag[k] - prev, x - self.xs[-1 - k]
            quot, rem = divmod(diff, gap)
            new_diag.append(Fraction(diff, gap) if rem else quot)
        self.xs.append(x)
        self.diag = new_diag
        self.coeffs.append(new_diag[-1])

    def stable(self) -> bool:
        return (
            len(self.coeffs) >= 3
            and not self.coeffs[-1]
            and not self.coeffs[-2]
        )

    def polynomial(self) -> Polynomial:
        acc = Polynomial()
        basis = ONE
        for k, c in enumerate(self.coeffs):
            if c:
                acc = acc + basis * c
            if k < len(self.coeffs) - 1:
                basis = basis * Polynomial((-self.xs[k], 1))
        return acc


def _fit_bivariate(
    series: list[Polynomial],
    fit_len: int,
    degree_bound: int,
    cancel,
) -> RationalGF:
    """Fit over polynomials in q by exact specialization and interpolation.

    q runs over the integers 1, -1, 2, -2, ...; specializations whose minimal
    denominator degree falls short of the generic degree (roots of leading or
    cancelling factors) are discarded.  The interpolated candidate must
    reproduce every supplied series term exactly (`_matches`) before it is
    returned.
    """
    prefix = series[:fit_len]
    fits: list[tuple[int, tuple]] = []
    generic_degree = -1
    den_tables: list[_NewtonTable] = []
    num_tables: list[_NewtonTable] = []
    # q-degrees of the recurrence coefficients are at most width * x-degree,
    # so this leaves generous room past the expected stabilization point
    cap = 8 * degree_bound + 64
    points = (sign * k for k in count(1) for sign in (1, -1))
    for _ in range(cap):
        t = next(points)
        _check_cancel(cancel)
        seq = [p.evaluate(t) for p in prefix]
        try:
            g = fit_rational(seq, degree_bound, cancel=cancel)
        except FitError:
            continue
        den, num = g.denominator.coeffs, g.numerator.coeffs
        degree = len(den) - 1
        if degree < generic_degree:
            continue
        if degree > generic_degree:
            # every earlier point was degenerate: start over from this one
            generic_degree, fits, num_tables = degree, [], []
            den_tables = [_NewtonTable() for _ in range(degree + 1)]
        if len(num) > len(num_tables):
            # a longer numerator showed up: rebuild numerator tables
            num_tables = [_NewtonTable() for _ in range(len(num))]
            for ft, fnum in fits:
                _feed(num_tables, ft, fnum)
        fits.append((t, num))
        _feed(den_tables, t, den)
        _feed(num_tables, t, num)
        tables = den_tables + num_tables
        if not all(table.stable() for table in tables):
            continue
        # an integer polynomial has integer divided differences at integer
        # nodes, so a Fraction anywhere rules the candidate out
        if any(type(c) is not int for table in tables for c in table.coeffs):
            continue
        candidate = RationalGF(
            Polynomial(table.polynomial() for table in num_tables),
            Polynomial([ONE] + [table.polynomial() for table in den_tables[1:]]),
        )
        if _matches(candidate, series):
            return candidate
    raise FitError("insufficient terms: bivariate fit did not stabilize")


def _feed(tables: list[_NewtonTable], t: int, values: tuple) -> None:
    for j, table in enumerate(tables):
        table.add(t, values[j] if j < len(values) else 0)


def _matches(gf: RationalGF, series: list[Polynomial]) -> bool:
    """Whether gf = N/D over Z[q] expands to every term of series, exactly.

    With D_0 = 1, the expansion agrees on all terms j < T exactly when every
    E_j = sum_k D_k * S_{j-k} - N_j vanishes in Z[q].  Each coefficient of
    E_j is at most B = sum_k |D_k|_1 * max_h |S_h|_inf + max_j |N_j|_inf in
    absolute value.  Substitute q = 2^s with s >= bitlen(B) + 2 (whole bytes),
    so every coefficient lies strictly inside (-2^(s-1), 2^(s-1)).  Balanced
    base-2^s digits are unique, so E_j(2^s) = 0 holds exactly when E_j = 0,
    and one integer per term decides the identity in Z[q]: a proof over the
    checked terms, not a sampled test.

    Each D_k(2^s) * S_i(2^s) is summed as d_km * S_i(2^s) shifted by s*m over
    the nonzero coefficients d_km of D_k: scaling a big integer by the small
    d_km is several times cheaper than multiplying it by the packed D_k.
    """
    den, num = gf.denominator.coeffs, gf.numerator.coeffs
    top = max(abs(c) for p in series for c in p.coeffs)
    bound = top * sum(abs(c) for p in den for c in p.coeffs)
    bound += max((abs(c) for p in num for c in p.coeffs), default=0)
    slot_bytes = (bound.bit_length() + 2 + 7) // 8
    slot = 8 * slot_bytes
    packed = [pack_coefficients(p.coeffs, slot_bytes) for p in series]
    packed_num = [pack_coefficients(p.coeffs, slot_bytes) for p in num]
    for j in range(len(packed)):
        e_j = -packed_num[j] if j < len(packed_num) else 0
        for k, p in enumerate(den[: j + 1]):
            e_j += sum(d * packed[j - k] << (slot * m) for m, d in enumerate(p.coeffs) if d)
        if e_j:
            return False
    return True


def gf_height_area(
    width: int,
    *,
    max_width: int = AREA_WIDTH_LIMIT,
    max_states: int = DEFAULT_STATE_CEILING,
    automaton: Automaton | None = None,
    cancel=None,
) -> RationalGF:
    """Verified bivariate generating function by height and area.

    Coefficients are exact integer polynomials in q.  Desk-scale widths only;
    the guard is a resource ceiling, not a correctness bound.
    """
    if width > max_width:
        raise ResourceLimitError(
            f"area generating functions are desk-scale for width <= {max_width}"
        )
    a = automaton if automaton is not None else build(width, max_states)
    n = a.n_states
    fit_len = 2 * n + 10
    total = fit_len + VERIFY_WINDOW
    table = count_area_series(a, total - 1)
    series = list(table.area_counts)
    return _fit_bivariate(series, fit_len, n, cancel)


def specialize_q(gf: RationalGF, value) -> RationalGF:
    """Substitute a value for q in a bivariate generating function and reduce."""

    def sub(c):
        return c.evaluate(value) if isinstance(c, Polynomial) else c

    num = gf.numerator.map_coefficients(sub)
    den = gf.denominator.map_coefficients(sub)
    return reduce_gf(num, den)


def reduce_gf(num: Polynomial, den: Polynomial) -> RationalGF:
    """Cancel the gcd and normalize the denominator constant term to 1."""
    if not den:
        raise ValueError("zero denominator")
    g = poly_gcd(num, den) if num else ONE
    if g.degree >= 1:
        num = divmod_exact(num, g)[0]
        den = divmod_exact(den, g)[0]
    d0 = den.coeffs[0]
    if d0 != 1:
        if not d0:
            raise ValueError("denominator constant term vanishes")
        inv = Fraction(1, 1) / Fraction(d0)
        num = (num * inv).map_coefficients(_scalar_tidy)
        den = (den * inv).map_coefficients(_scalar_tidy)
    return RationalGF(num, den)


def _scalar_tidy(v):
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


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
                value = piv * row_i[j] - lead * mat[k][j]
                row_i[j] = _exact_int_div(value, prev)
            row_i[k] = ZERO
        prev = piv
    result = mat[n - 1][n - 1]
    return result if sign > 0 else -result


def gf_height_by_elimination(
    width: int,
    *,
    automaton: Automaton | None = None,
) -> RationalGF:
    """Second backend: solve the linear system symbolically, no series fit.

    G = 1 + a^T (I - xM)^{-1} e0 for transfer matrix M, accepting indicator a,
    and initial unit vector e0, computed as a ratio of two determinants by
    fraction-free elimination.  Exponentially sized intermediates make this a
    small-width cross-check, not a production path.
    """
    a = automaton if automaton is not None else build(width)
    m = transfer_matrix(a)
    n = a.n_states
    x = Polynomial((0, 1))

    def entry(i: int, j: int) -> Polynomial:
        base = ONE if i == j else ZERO
        return base - x * m[i][j] if m[i][j] else base

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
    total_num = den + num
    return reduce_gf(total_num, den)


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
