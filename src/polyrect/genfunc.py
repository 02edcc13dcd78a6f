"""Rational generating functions fitted from exact series, with a proof.

The generating functions come from `counting.window_quotient`: a verified
lumping of the nodes of four letter-restricted copies of the automaton into
classes, with quotient matrix Mk, accepting indicator fk and a signed
initial class per copy.  The classes fall into window groups, each closed
under the transitions with one initial class (`counting.window_groups`),
and no transition enters an initial class.  So with B_w the block of Mk on
group w's k_w other classes, f_w = fk there, and r_w the initial class's row
there, the group's series is r_w^T B_w^(h-1) f_w for h >= 1 and 0 at h = 0,
and Cramer's rule writes x r_w^T (I - xB_w)^(-1) f_w as P_w/Q_w with
Q_w = det(I - xB_w) and deg P_w, deg Q_w <= k_w.  `fit_rational` returns
only fits P'/Q' with deg Q' <= k and deg P' <= k + 1.  If such a fit agrees
with the series on 2k + 2 terms, PQ' - P'Q has degree at most 2k + 1 and
vanishes to order 2k + 2, so it is zero and P'/Q' = P/Q.  So each group is
fitted on exactly 2k_w + 2 exact terms, and agreement on them is the
certificate.  The one assumption is that k_w counts the classes of a
verified lumping, less the initial one; singleton classes, one group per
copy, bound the degrees the same way.

The height series is 1 + sum(sign_w P_w/Q_w) = N/D with D = prod(Q_w) and
N = D + sum(sign_w P_w prod_(v != w) Q_v) (`sum_fractions`).  Each fit is
in lowest terms, so if the Q_w are pairwise coprime, gcd(N, Q_w) =
gcd(P_w prod_(v != w) Q_v, Q_w) = 1 and N/D is reduced.  A gcd of 1 modulo
a prime dividing neither leading coefficient proves a pair coprime (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 6); otherwise the gcd is
cancelled exactly.  The reduced fraction with denominator constant term 1
is unique, so this is the fit of the whole series with K = sum(k_w), which
bounds its degrees the same way; at b = 1..7, K is its degree.

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
interpolation divides exactly in the integers.  This fit runs on the whole
series, with bound K: the degree argument holds over Z[q] on the block of
Mk(q) on all K non-initial classes, whose entries are c * q^fill with c a
nonnegative integer.  The candidate is checked once, exactly, against the
2K + 2 terms by substituting q = 2^s with a slot width s large enough that
the integer identity implies the identity in Z[q] (see `_matches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import isqrt, lcm, prod
from operator import mul
from typing import Sequence

from .automaton import Automaton, DEFAULT_STATE_CEILING, build
from .counting import count_area_series, degree_bound, group_series, window_groups
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


def expand(gf: RationalGF, n_terms: int, head: Sequence = ()) -> list:
    """First n_terms power-series coefficients of the rational function.

    head holds terms already known to be the first ones; the expansion
    carries on from them.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    num = gf.numerator.coeffs
    den = gf.denominator.coeffs
    out = list(head[:n_terms])
    for j in range(len(out), n_terms):
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
    """Generating function of counts by height, proved group by group.

    Each window group's series is fitted on exactly 2k + 2 exact terms with
    degree bound k, its class count less one, and the fits are summed with
    the groups' signs (module docstring).
    """
    a = automaton if automaton is not None else build(width, max_states)
    parts = []
    for group in window_groups(a):
        sign, lo, hi = group
        k = hi - lo - 1
        parts.append((sign, fit_rational(group_series(a, group, 2 * k + 1), k)))
    return sum_fractions(parts)


def sum_fractions(parts: Sequence[tuple[int, RationalGF]]) -> RationalGF:
    """1 + sum(sign * P/Q) over reduced parts with integer denominators, reduced.

    N/D with D the product of the denominators is in lowest terms when they
    are pairwise coprime (`_coprime`, module docstring); else `reduce_gf`.
    """
    dens = [gf.denominator for _, gf in parts]
    den = prod(dens, start=ONE)
    num = den
    for i, (sign, gf) in enumerate(parts):
        num = num + gf.numerator * prod(dens[:i] + dens[i + 1 :], start=ONE) * sign
    if all(_coprime(p, q) for p, q in combinations(dens, 2)):
        return RationalGF(num, den)
    return reduce_gf(num, den)


def _coprime(a: Polynomial, b: Polynomial) -> bool:
    """Whether gcd(a, b) is 1 modulo a prime dividing neither leading coefficient.

    The primitive gcd over Q divides a and b in Z[x] (Gauss's lemma) and
    keeps its degree modulo such a prime, so True proves them coprime.
    """
    p = next(p for p in _primes() if a.coeffs[-1] % p and b.coeffs[-1] % p)
    f = [c % p for c in reversed(a.coeffs)]
    g = [c % p for c in reversed(b.coeffs)]
    # Euclid on leading-first residues: f <- f mod g, then swap
    while g:
        inv = pow(g[0], -1, p)
        while len(f) >= len(g):
            scale = f[0] * inv % p
            f = [(x - scale * y) % p for x, y in zip(f[1:], g[1:])] + f[len(g) :]
            while f and not f[0]:
                del f[0]
        f, g = g, f
    return len(f) == 1


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
    integer, so Cramer's rule bounds both degrees in x by K over Z[q] too
    (module docstring), and the candidate that reproduces 2K + 2 exact terms
    is the generating function.  Desk-scale widths only; the guard is a
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
