"""Rational generating functions fitted from exact series, with a proof.

The generating functions come from `counting.window_quotient`: a verified
lumping of the nodes of four letter-restricted copies of the automaton into
classes, with quotient matrix Mk, accepting indicator fk and a signed
initial class per copy; counts[h] is the signed sum of the entries of
Mk^h fk at those classes.  No transition enters an initial class.  So with B the block of Mk on the K
other classes, f' = fk there, and r the signed sum of the initial classes'
rows there, counts[h] = r^T B^(h-1) f' for h >= 1, and the height series is
1 + x r^T (I - xB)^(-1) f', where the 1 is the conventional counts[0].
Cramer's rule writes it as P/Q with Q = det(I - xB) and
P = Q + x r^T adj(I - xB) f', so deg P, deg Q <= K.  `fit_rational` returns
only fits P'/Q' with deg Q' <= K and deg P' <= K + 1.  If such a fit agrees
with the series on 2K + 2 terms, PQ' - P'Q has degree at most 2K + 1 and
vanishes to order 2K + 2, so it is zero and P'/Q' = P/Q.  So each fit runs on
exactly 2K + 2 exact terms, and agreement on them is the certificate: no
further terms are checked.  The one assumption is that K counts the classes
of a verified lumping, less the initial ones.  A failed check leaves
singleton classes, and then K is the node count less four, which bounds the
degrees the same way.  At b = 1..6, K is the degree of the generating
function itself.

The fit is a minimal recurrence.  Berlekamp-Massey runs modulo primes just
below 2^61; the residues of primes that agree on the recurrence length are
combined by the Chinese remainder theorem, and after each prime the lift is
checked exactly, in the integers, against every term.  Only a candidate that
passes is used, so the primes decide the running time, never the result: the
certificate is that exact check plus the degree bounds.  By Fatou's lemma a
rational power series with integer coefficients has an integer denominator
with constant term 1, so for the generating functions the symmetric lift is
the answer once the primes' product exceeds twice its largest coefficient.

The area-refined series lives over polynomials in q.  Fitting there works by
exact specialization: evaluate q at the integer points 1, -1, 2, -2, ...
(integer Horner), fit each specialized integer series, and interpolate the
fitted coefficients back to polynomials in q in Newton form.  Integer
polynomials have integer divided differences at integer nodes, so the
interpolation divides exactly in the integers.  The same degree argument
holds over Z[q], since B(q) has entries c * q^fill with c a nonnegative
integer: the candidate is checked once, exactly, against the 2K + 2 terms by
substituting q = 2^s with a slot width s large enough that the integer
identity implies the identity in Z[q] (see `_matches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .automaton import Automaton, DEFAULT_STATE_CEILING, build
from .counting import count_area_series, count_series, degree_bound
from .errors import FitError, ResourceLimitError
from .polynomial import (
    ONE,
    Polynomial,
    divmod_exact,
    json_ready,
    pack_coefficients,
    poly_gcd,
)

AREA_WIDTH_LIMIT = 5


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


# Berlekamp-Massey runs modulo the primes just below 2^61, found on first use
_PRIMES: list[int] = []
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2..37: deterministic for odd 37 < n < 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^61 in descending order, each found once per process."""
    for k in count():
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 2 if _PRIMES else (1 << 61) - 1
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[k]


def _min_lfsr_mod(seq: Sequence[int], p: int) -> tuple[list[int], int]:
    """Minimal connection polynomial of seq modulo the prime p.

    Iterative discrepancy method: C <- C - (d / last_d) * x^m * B touches
    only the entries that x^m * B overlaps, and one inverse per length change
    keeps the update that short.  Returns (C, L) with C[0] = 1,
    len(C) == L + 1 and sum(C[i] * seq[n-i]) == 0 mod p for every n >= L.
    When no nonzero discrepancy of the run over Q vanishes mod p, every
    branch matches that run, so C is its connection polynomial reduced mod p.
    """
    total = len(seq)
    rev = [v % p for v in reversed(seq)]
    c, b = [1], [1]
    length, m, inv_d = 0, 1, 1
    for n in range(total):
        window = total - 1 - n
        d = sum(map(mul, c, rev[window : window + len(c)])) % p
        if not d:
            m += 1
            continue
        scale, end = d * inv_d % p, m + len(b)
        t = c + [0] * (end - len(c))
        t[m:end] = [(x - scale * y) % p for x, y in zip(t[m:end], b)]
        while not t[-1]:
            t.pop()
        if 2 * length <= n:
            c, b = t, c
            length, inv_d, m = n + 1 - length, pow(d, -1, p), 1
        else:
            c = t
            m += 1
    return c + [0] * (length + 1 - len(c)), length


def _lifts(residues: list[int], modulus: int, rational: bool):
    """Integer candidates for the connection polynomial with these residues.

    First the symmetric lift.  Then, if rational is set, a rational
    reconstruction over one common denominator d: each residue r lifts as
    the symmetric residue of d * r, and when that exceeds sqrt(modulus / 2)
    the half extended Euclidean algorithm finds the factor d lacks.  Each
    candidate has C[0] > 0; only C / C[0] matters.
    """
    half = modulus >> 1
    yield [r - modulus if r > half else r for r in residues]
    if not rational:
        return
    bound = isqrt(half)
    den, nums = 1, []
    for r in residues:
        a = den * r % modulus
        if a > half:
            a -= modulus
        if abs(a) > bound:
            r0, r1, t0, t1 = modulus, a % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            den *= t1
            if den > bound:
                return
            nums = [v * t1 for v in nums]
            a = r1
        nums.append(a)
    if den != 1:
        yield nums


def _reproduces(c: list[int], seq: list[int], length: int) -> bool:
    """Whether sum(c[i] * seq[n-i]) == 0 for every n from length on, exactly."""
    total = len(seq)
    rev = seq[::-1]
    for n in range(length, total):
        window = total - 1 - n
        if sum(map(mul, c, rev[window : window + len(c)])):
            return False
    return True


def _min_recurrence(seq: list[int], degree_bound: int) -> tuple[list[int], int]:
    """Minimal recurrence (C, L) of an integer sequence over Q, C[0] > 0.

    Primes whose recurrence length L agrees are combined by the Chinese
    remainder theorem.  After each prime the lifts of its group are checked
    exactly (`_reproduces`), and the first that passes is returned.  A prime
    can give another L than the run over Q.  A shorter one comes from a
    discrepancy that vanishes mod p; no lift of it passes, as no shorter
    recurrence exists.  A longer one comes from a prime that divides a
    denominator of C / C[0], and its lift can pass as a recurrence that is
    not minimal: P^3, P^2, P, 1 is 0, 0, 0, 1 mod P, with L = 4, where the
    check tests no term.  While 2L <= len(seq) it cannot pass (Gauss's
    lemma: it would be a multiple of the primitive C, whose constant term
    the prime divides), so a group with 2L > len(seq) is lifted only once
    its modulus passes the limit below, which the primes dividing one
    denominator do not reach.

    Each coefficient of C / C[0] is a ratio of two L x L minors of the
    Hankel matrix of seq, at most (sqrt(L) * max |seq|)^L by Hadamard's
    inequality.  So a group whose modulus exceeds twice the square of that
    bound at L = degree_bound + 2 without a passing lift rules out every
    recurrence a fit within the bounds could have, and FitError is raised.
    """
    rank = degree_bound + 2
    top_bits = max(max(seq), -min(seq)).bit_length()
    limit_bits = 2 * rank * (top_bits + rank.bit_length()) + 2
    # length -> (modulus, residues, modulus bits for the next rational
    # reconstruction); reconstruction costs grow with the modulus, so it is
    # tried each time the modulus doubles in size, not at every prime
    groups: dict[int, tuple[int, list[int], int]] = {}
    for p in _primes():
        values, length = _min_lfsr_mod(seq, p)
        if length in groups:
            modulus, residues, rational_bits = groups[length]
            inv = pow(modulus % p, -1, p)
            residues = [
                r + modulus * ((v - r % p) * inv % p) for r, v in zip(residues, values)
            ]
            modulus *= p
        else:
            modulus, residues, rational_bits = p, values, 0
        bits = modulus.bit_length()
        rational = bits >= rational_bits or bits > limit_bits
        if rational:
            rational_bits = 2 * bits
        groups[length] = modulus, residues, rational_bits
        if 2 * length <= len(seq) or bits > limit_bits:
            for c in _lifts(residues, modulus, rational):
                while not c[-1]:
                    c.pop()
                if _reproduces(c, seq, length):
                    return c, length
        if bits > limit_bits:
            break
    raise FitError("insufficient terms: no rational fit reproduces the series")


def fit_rational(
    series: Sequence[int | Fraction],
    degree_bound: int,
) -> RationalGF:
    """Minimal rational function matching every supplied series term.

    Raises FitError("insufficient terms ...") when fewer than
    2 * degree_bound + 2 terms are supplied or when no rational function with
    denominator degree <= degree_bound and numerator degree <= degree_bound + 1
    fits.  Within those bounds 2 * degree_bound + 2 terms determine the fit:
    for two such fits P/Q and P'/Q', PQ' - P'Q has degree at most
    2 * degree_bound + 1 and vanishes to order 2 * degree_bound + 2, so it is 0.
    Such a series also satisfies a recurrence of length at most
    degree_bound + 2, which `_min_recurrence` finds and checks exactly
    against every term.  So when the series is known to be a rational
    function within the bounds, the returned fit is that function in lowest
    terms: a proof, not evidence, and no further term needs checking.  A
    finite prefix may need rational recurrence coefficients (128, 64, ..., 1
    has C = 1 - x/2); rational reconstruction recovers them.
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
    ints = series
    if not all(isinstance(v, int) for v in series):
        scale = lcm(*(v.denominator for v in series))
        ints = [int(v * scale) for v in series]
    c, length = _min_recurrence(ints, degree_bound)
    deg_c = len(c) - 1
    if deg_c > degree_bound:
        raise FitError(
            f"insufficient terms: minimal denominator degree {deg_c} "
            f"exceeds bound {degree_bound}"
        )
    num = [sum(map(mul, c, series[j::-1])) for j in range(length)]
    deg_num = max((j for j, v in enumerate(num) if v), default=-1)
    if deg_num > degree_bound + 1:
        raise FitError(
            f"insufficient terms: numerator degree {deg_num} exceeds bound {degree_bound + 1}"
        )
    c0 = c[0]
    if c0 != 1:
        c = [Fraction(v, c0) for v in c]
        num = [Fraction(v, c0) if not isinstance(v, Fraction) else v / c0 for v in num]
    return RationalGF(
        Polynomial(map(_scalar_tidy, num)),
        Polynomial(map(_scalar_tidy, c)),
    )


def gf_height(
    width: int,
    *,
    max_states: int = DEFAULT_STATE_CEILING,
    automaton: Automaton | None = None,
) -> RationalGF:
    """Generating function of counts by height, proved from 2K + 2 terms.

    K, the class count of the automaton's verified window quotient less its
    initial classes, bounds both degrees of the generating function (module
    docstring), so the fit on exactly 2K + 2 exact terms with degree bound K
    is the generating function.
    """
    a = automaton if automaton is not None else build(width, max_states)
    k = degree_bound(a)
    return fit_rational(count_series(a, 2 * k + 1).counts, k)


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

    def polynomial(self, basis: list[Polynomial] | None = None) -> Polynomial:
        """The interpolant; basis is `_newton_basis(self.xs)`, shareable across tables."""
        if basis is None:
            basis = _newton_basis(self.xs)
        acc = Polynomial()
        for c, b in zip(self.coeffs, basis):
            if c:
                acc = acc + b * c
        return acc


def _newton_basis(xs: list[int]) -> list[Polynomial]:
    """The products (q - x_0)...(q - x_(j-1)) for j = 0..len(xs) - 1."""
    basis = [ONE]
    for x in xs[:-1]:
        basis.append(basis[-1] * Polynomial((-x, 1)))
    return basis


def _fit_bivariate(series: Sequence[Polynomial], degree_bound: int) -> RationalGF:
    """Fit over polynomials in q by exact specialization and interpolation.

    q runs over the integers 1, -1, 2, -2, ...; specializations whose minimal
    denominator degree falls short of the generic degree (roots of a leading
    coefficient, or points where numerator and denominator share a factor)
    are discarded.  Every specialization is fitted on all of series, and the
    interpolated candidate must reproduce all of it exactly (`_matches`)
    before it is returned.  With 2 * degree_bound + 2 terms of a series that
    is a rational function within the bound, that agreement proves the
    candidate (`fit_rational`).
    """
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
        seq = [p.evaluate(t) for p in series]
        try:
            g = fit_rational(seq, degree_bound)
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
        # every table holds the same nodes, so they share one basis
        basis = _newton_basis(den_tables[0].xs)
        candidate = RationalGF(
            Polynomial(table.polynomial(basis) for table in num_tables),
            Polynomial([ONE] + [table.polynomial(basis) for table in den_tables[1:]]),
        )
        if _matches(candidate, series):
            return candidate
    raise FitError("insufficient terms: bivariate fit did not stabilize")


def _feed(tables: list[_NewtonTable], t: int, values: tuple) -> None:
    for j, table in enumerate(tables):
        table.add(t, values[j] if j < len(values) else 0)


def _matches(gf: RationalGF, series: Sequence[Polynomial]) -> bool:
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
    max_states: int = DEFAULT_STATE_CEILING,
    automaton: Automaton | None = None,
) -> RationalGF:
    """Bivariate generating function by height and area, proved from 2K + 2 terms.

    Coefficients are exact integer polynomials in q.  The quotient matrix of
    the verified window quotient has entries c * q^fill with c a nonnegative
    integer, so Cramer's rule bounds both degrees in x by K (`gf_height`)
    over Z[q] too, and the candidate that reproduces 2K + 2 exact terms is
    the generating function.  Desk-scale widths only; the guard is a
    resource ceiling, not a correctness bound.
    """
    if width > AREA_WIDTH_LIMIT:
        raise ResourceLimitError(
            f"area generating functions are desk-scale for width <= {AREA_WIDTH_LIMIT}"
        )
    a = automaton if automaton is not None else build(width, max_states)
    k = degree_bound(a)
    return _fit_bivariate(count_area_series(a, 2 * k + 1).area_counts, k)


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
