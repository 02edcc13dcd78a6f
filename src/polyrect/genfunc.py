"""Rational generating functions fitted from exact series, with a proof.

The generating functions come from `counting.word_quotient`: for each of
the widths w = b, b - 1 and b - 2 that is at least 1, a verified lumping of
the width-w word automaton by reversal, with quotient matrix Mk_w,
accepting indicator fk_w and an initial class that no step enters
(`counting.width_groups`, signs 1, -2 and 1).  So with B_w the block of
Mk_w on its k_w other classes, f_w = fk_w there, and r_w the initial
class's row there, A_w's series is r_w^T B_w^(h-1) f_w for h >= 1 and 0 at
h = 0, and Cramer's rule writes x r_w^T (I - xB_w)^(-1) f_w as P_w/Q_w
with Q_w = det(I - xB_w) and deg P_w, deg Q_w <= k_w.  `fit_rational`
returns only fits P'/Q' with deg Q' <= k and deg P' <= k + 1.  If such a
fit agrees with the series on 2k + 2 terms, PQ' - P'Q has degree at most
2k + 1 and vanishes to order 2k + 2, so it is zero and P'/Q' = P/Q.  So
each width is fitted on exactly 2k_w + 2 exact terms, and agreement on them
is the certificate.  The one assumption is that k_w counts the classes of
a verified lumping, less the initial one.

The height series is 1 + sum(sign_w P_w/Q_w) = N/D with D = prod(Q_w) and
N = D + sum(sign_w P_w prod_(v != w) Q_v) (`sum_fractions`).  Each fit is
in lowest terms, so if the Q_w are pairwise coprime, gcd(N, Q_w) =
gcd(P_w prod_(v != w) Q_v, Q_w) = 1 and N/D is reduced.  A gcd of 1 modulo
a prime dividing neither leading coefficient proves a pair coprime (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 6); otherwise N/D is
fitted again from its own expansion.  The reduced fraction with denominator
constant term 1 is unique, so this is the fit of the whole series with
K = sum(k_w), which bounds its degrees the same way; at b = 1..7, K is its
degree.

The fit is a minimal recurrence, and it takes integer terms only.  By
Fatou's lemma a rational power series with integer coefficients has an
integer denominator with constant term 1, so the recurrence is integral.
Berlekamp-Massey runs modulo primes just below 2^61; the residues of primes
that agree on the recurrence length are combined by the Chinese remainder
theorem, and after each prime the symmetric lift is checked exactly, in the
integers, against every term.  Only a candidate that passes is used, so the
primes decide the running time, never the result: the certificate is that
exact check plus the degree bounds.  The lift is the answer once the primes'
product exceeds twice the largest coefficient.

The area-refined series lives over polynomials in q, and everything above
holds over Z[q] and its fraction field Q(q): the matrices Mk_w(q) have
entries c * q^fill with c a nonnegative integer, so each width's degrees in
x are at most k_w over Z[q] as well.  `gf_height_area` fits each width on
its 2k_w + 2 area polynomials and sums the fits; a pair of denominators is
proved coprime over Q(q) by setting q to an integer where neither leading
coefficient vanishes (`_coprime`).  A width is fitted at one point q = 2^s
per slot, s a whole number of bytes (Kronecker substitution, von zur Gathen
and Gerhard, section 8.4): each term S_j(2^s) is one exact integer,
Berlekamp-Massey runs on these modulo primes just below 2^61, and primes
that agree on the recurrence length are combined by the Chinese remainder
theorem.  F_w, the sum of the classes' fills, bounds every q-degree: a term
of the x^i coefficient of det(I - xB_w) over a set S of i classes enters
each class of S once, so it carries q^(sum of S's fills), and the reduced
denominator divides that determinant over Z[q] (Gauss's lemma, as its
constant term is 1), so its q-degree is no larger.  So when every
q-coefficient of D lies inside (-2^(s-1), 2^(s-1)), no |D_i(2^s)| reaches
2^((F_w + 1) s), and once the modulus has more than (F_w + 1) s + 1 bits
the symmetric lift is D(2^s), whose balanced base-2^s digits are D's
q-coefficients.  The first slot is sized from D(x, 1), one run at q = 1
modulo one prime.  One exact pass over the 2k_w + 2 terms at q = 2^s', with
a slot width s' large enough that the integer identity implies the
identity in Z[q], first checks that the terms of D * S beyond x^(k_w + 1)
vanish, so a wrong candidate fails after one of them, and then reads off
the numerator (D * S) mod x^(k_w + 2) (see `_proved_numerator`).  A
candidate that fails, from a q-coefficient too wide for the slot or from a
point where N(x, 2^s) and D(x, 2^s) share a factor, doubles s.  That pass
sizes its own slot from the candidate and the terms, so the primes, the
slot and the point decide only the running time, never the result, and so
does F_w: a bound that was too small could only make every candidate fail
that pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, count, islice
from math import prod
from operator import mul

from .automaton import Automaton
from .counting import area_series, group_series, width_groups
from .errors import FitError, ResourceLimitError
from .polynomial import (
    ONE,
    Polynomial,
    json_ready,
    pack_coefficients,
    signed_slot_bytes,
    unpack_signed,
)
from .record import Record
from .rowconfig import check_width

AREA_WIDTH_LIMIT = 6


class RationalGF(Record):
    """Reduced rational function with denominator constant term 1."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
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

    def to_json_obj(self) -> dict:
        return {
            "num": [json_ready(c) for c in self.numerator.coeffs],
            "den": [json_ready(c) for c in self.denominator.coeffs],
        }


def expand(gf: RationalGF, n_terms: int, head: Sequence = ()) -> list:
    """First n_terms power-series coefficients of the rational function.

    head holds terms already known to be the first ones; the expansion
    carries on from them.  ValueError unless n_terms is an int >= 0 and each
    head term an int, or over Z[q] an int or a Polynomial of ints.  Each
    term is S_j = N_j - sum_(k >= 1) D_k * S_(j-k), with D_0 = 1.  Over Z[q]
    every new term is a Polynomial, computed at q = 2^s on packed integers
    by `_convolve`, as `_proved_numerator` does.  Its slot is sized before
    the first product, from the same recurrence on L1 norms with D's signs
    dropped: B_j = |N_j|_1 + sum_(k >= 1) |D_k|_1 * B_(j-k), seeded by the
    head's norms, bounds |S_j|_1 by induction, so at the slot
    `signed_slot_bytes(max B_j)` the balanced base-2^s digits of S_j(2^s)
    are exactly its q-coefficients (`unpack_signed`).
    """
    if type(n_terms) is not int or n_terms < 0:
        raise ValueError(f"n_terms must be an int >= 0, got {n_terms!r}")
    bivariate = gf.is_bivariate
    kinds = "an int or a Polynomial of ints" if bivariate else "an int"
    for term in head:
        if not (type(term) is int or bivariate and type(term) is Polynomial
                and all(type(c) is int for c in term.coeffs)):
            raise ValueError(f"head term {term!r} is not {kinds}")
    out = list(head[:n_terms])
    if bivariate:
        return out + _expand_packed(gf, out, n_terms)
    num = gf.numerator.coeffs
    den = gf.denominator.coeffs
    for j in range(len(out), n_terms):
        acc = num[j] if j < len(num) else 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = acc - den[k] * out[j - k]
        out.append(acc)
    return out


def _expand_packed(gf: RationalGF, head: list, n_terms: int) -> list[Polynomial]:
    """Terms len(head)..n_terms - 1 of a series over Z[q] (`expand`)."""
    num = [_q_coeffs(c) for c in gf.numerator.coeffs]
    den = [_q_coeffs(c) for c in gf.denominator.coeffs]
    terms = [_q_coeffs(c) for c in head]
    den_norms = [sum(map(abs, d)) for d in den]
    bounds = [sum(map(abs, t)) for t in terms]
    for j in range(len(head), n_terms):
        b = sum(map(abs, num[j])) if j < len(num) else 0
        bounds.append(b + sum(map(mul, den_norms[1 : j + 1], bounds[j - 1 :: -1])))
    slot_bytes = signed_slot_bytes(max(bounds, default=0))
    slot = 8 * slot_bytes
    packed = [pack_coefficients(t, slot_bytes) for t in terms]
    for j in range(len(head), n_terms):
        n_j = pack_coefficients(num[j], slot_bytes) if j < len(num) else 0
        packed.append(n_j - _convolve(den, packed, j, slot, 1))
    return [Polynomial(unpack_signed(v, slot_bytes)) for v in packed[len(head) :]]


def _convolve(
    den: Sequence[Sequence[int]], packed: Sequence[int], j: int, slot: int, start: int
) -> int:
    """sum_(k >= start) D_k(2^slot) * packed[j - k], D_k given by its q-coefficients.

    Each product is summed as d_km * packed[j - k] shifted by slot * m over
    the nonzero coefficients d_km of D_k: scaling a big integer by the small
    d_km is several times cheaper than multiplying it by the packed D_k.
    """
    e_j = 0
    for k, p in enumerate(den[start : j + 1], start):
        e_j += sum(d * packed[j - k] << (slot * m) for m, d in enumerate(p) if d)
    return e_j


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


def _symmetric(residues: list[int], modulus: int) -> list[int]:
    """Each residue as the integer of least absolute value it stands for."""
    half = modulus >> 1
    return [r - modulus if r > half else r for r in residues]


def _lifts(seq: Sequence[int]):
    """(L, modulus, residues) after each prime p, L the length `_min_lfsr_mod(seq, p)` gives.

    The residues are the connection polynomial modulo every prime so far
    that gave L, combined by the Chinese remainder theorem.
    """
    groups: dict[int, tuple[int, list[int]]] = {}
    for p in _primes():
        values, length = _min_lfsr_mod(seq, p)
        if length in groups:
            modulus, residues = groups[length]
            inv = pow(modulus % p, -1, p)
            values = [r + modulus * ((v - r % p) * inv % p) for r, v in zip(residues, values)]
            p *= modulus
        groups[length] = p, values
        yield length, p, values


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
    """Minimal integral recurrence (C, L) of an integer sequence, C[0] = 1.

    Primes whose recurrence length L agrees are combined by the Chinese
    remainder theorem.  After each prime the symmetric lift of its group is
    checked exactly (`_reproduces`), and returned if it passes.  A prime can
    give another L than the run over Q.  A shorter one comes from a
    discrepancy that vanishes mod p; its lift does not pass, as no shorter
    recurrence exists.  A longer one comes only when the minimal recurrence
    C over Q is not integral, from a prime that divides a denominator of C,
    and its lift can pass as a recurrence that is not minimal: P^3, P^2, P,
    1 is 0, 0, 0, 1 mod P, with L = 4, where the check tests no term.  While
    2L <= len(seq) it cannot pass (Gauss's lemma: it would be a multiple of
    the primitive form of C, whose constant term the prime divides), so a
    group with 2L > len(seq) is lifted only once its modulus passes
    `_limit_bits`, which the primes dividing one denominator do not reach.
    Such an input has no integral fit and ends in FitError.  A group past
    that limit without a passing lift rules out every recurrence a fit
    within the bounds could have, and FitError is raised.
    """
    limit_bits = _limit_bits(max(max(seq), -min(seq)), degree_bound)
    for length, modulus, residues in _lifts(seq):
        bits = modulus.bit_length()
        if 2 * length <= len(seq) or bits > limit_bits:
            c = _symmetric(residues, modulus)
            while not c[-1]:
                c.pop()
            if _reproduces(c, seq, length):
                return c, length
        if bits > limit_bits:
            break
    raise FitError("insufficient terms: no rational fit reproduces the series")


def _limit_bits(top: int, degree_bound: int) -> int:
    """An upper bound on the bits of 2 * ((sqrt(L) * top)^L)^2, L = degree_bound + 2.

    Each coefficient of a minimal recurrence of length at most L over Q, of
    terms at most top in absolute value, is a ratio of two Hankel minors of
    at most (sqrt(L) * top)^L (Hadamard's inequality), so a modulus with
    more bits lifts all of them.
    """
    rank = degree_bound + 2
    return 2 * rank * (top.bit_length() + rank.bit_length()) + 2


def _check_fit(n_terms: int, degree_bound: int) -> None:
    """ValueError unless degree_bound is an int >= 0; FitError below 2 * degree_bound + 2 terms."""
    if type(degree_bound) is not int or degree_bound < 0:
        raise ValueError(f"degree_bound must be an int >= 0, got {degree_bound!r}")
    if n_terms < 2 * degree_bound + 2:
        raise FitError(
            f"insufficient terms: need at least {2 * degree_bound + 2}, got {n_terms}"
        )


def fit_rational(
    series: Sequence[int],
    degree_bound: int,
) -> RationalGF:
    """Minimal rational function with integer coefficients matching every term.

    The terms and degree_bound must be ints, degree_bound >= 0; anything
    else raises ValueError.  Raises
    FitError("insufficient terms ...") when fewer than
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
    finite prefix whose minimal recurrence is not integral (128, 64, ..., 1
    has C = 1 - x/2) has no such fit and raises FitError.
    """
    series = list(series)
    if not all(type(v) is int for v in series):
        raise ValueError("series terms must be ints")
    _check_fit(len(series), degree_bound)
    c, length = _min_recurrence(series, degree_bound)
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
    return RationalGF(Polynomial(num), Polynomial(c))


def gf_height(width: int) -> RationalGF:
    """Generating function of counts by height, proved width by width.

    Each of A_b, A_(b-1) and A_(b-2) is fitted on exactly 2k + 2 exact
    terms with degree bound k, its word quotient's class count less one,
    and the fits are summed with their signs (module docstring).  ValueError
    unless width is an int in 1..MAX_WIDTH.
    """
    check_width(width)
    parts = []
    for sign, rows in width_groups(width):
        k = len(rows) - 1
        parts.append((sign, fit_rational(group_series(rows, 2 * k + 1), k)))
    return sum_fractions(parts)


def sum_fractions(parts: Sequence[tuple[int, RationalGF]]) -> RationalGF:
    """1 + sum(sign * P/Q) over reduced parts, over Z or Z[q], reduced.

    N/D with D the product of the denominators is in lowest terms when they
    are pairwise coprime (`_coprime`, module docstring).  Otherwise N/D is
    fitted again from its own expansion, which reduces it.  Zero parts are
    skipped.  Each P and Q is packed into one integer (`_pack_xq`), N and D
    are summed on those integers, and read back from them: over Z the
    stride is 1 and the packed values are the polynomials at x = 2^s.
    """
    parts = [(sign, gf) for sign, gf in parts if gf.numerator]
    # no coefficient of a product exceeds the product of the L1 norms
    bound = _sum([(abs(sign), _l1(gf.numerator), _l1(gf.denominator)) for sign, gf in parts])[0]
    slot_bytes = signed_slot_bytes(bound)
    # a q-degree of N or D is at most the sum of the parts' largest ones
    stride = 1 + sum(
        max(len(_q_coeffs(c)) for c in gf.numerator.coeffs + gf.denominator.coeffs) - 1
        for _, gf in parts
    )
    packed = [
        (sign, _pack_xq(gf.numerator, stride, slot_bytes), _pack_xq(gf.denominator, stride, slot_bytes))
        for sign, gf in parts
    ]
    num, den = (unpack_signed(f, slot_bytes) for f in _sum(packed))
    bivariate = any(gf.is_bivariate for _, gf in parts)
    num, den = (_from_flat(f, stride) if bivariate else Polynomial(f) for f in (num, den))
    dens = [gf.denominator for _, gf in parts]
    if all(_coprime(p, q) for p, q in combinations(dens, 2)):
        return RationalGF(num, den)
    if bivariate:
        # the reduced denominator divides den, so its q-degree is at most den's
        q_bound = max(c.degree for c in den.coeffs)
        return _refit(num, den, lambda series, k: _fit_bivariate(series, k, q_bound))
    return _refit(num, den, fit_rational)


def _refit(num: Polynomial, den: Polynomial, fit) -> RationalGF:
    """N/D in lowest terms: fit again from 2k + 2 terms, k = max(deg D, deg N - 1).

    N/D lies within the degree bound k, so the fit of its own 2k + 2 terms is
    N/D reduced (`fit_rational`).
    """
    k = max(den.degree, num.degree - 1)
    return fit(expand(RationalGF(num, den), 2 * k + 2), k)


def _sum(parts: Sequence[tuple[int, int, int]]) -> tuple[int, int]:
    """(N, D) of 1 + sum(sign * P/Q) over (sign, P, Q) in parts, D = prod(Q)."""
    dens = [den for _, _, den in parts]
    den = prod(dens)
    num = den
    for i, (sign, p, _) in enumerate(parts):
        num = num + p * prod(dens[:i] + dens[i + 1 :]) * sign
    return num, den


def _q_coeffs(c) -> tuple[int, ...]:
    """The coefficients in q of an x-coefficient; an int is a constant."""
    return c.coeffs if isinstance(c, Polynomial) else (c,)


def _l1(f: Polynomial) -> int:
    """Sum of the absolute values of the integer coefficients of f in Z[x] or Z[q][x]."""
    return sum(abs(v) for c in f.coeffs for v in _q_coeffs(c))


def _pack_xq(f: Polynomial, stride: int, slot_bytes: int) -> int:
    """f in Z[x] or Z[q][x] at q = 2^s, x = 2^(s * stride), s = 8 * slot_bytes.

    Products of such values are the values of the products, and read back
    (`unpack_signed`, then `_from_flat` over Z[q]) while every q-degree
    stays below stride and every coefficient strictly inside
    (-2^(s-1), 2^(s-1)).
    """
    flat: list[int] = []
    for c in f.coeffs:
        c = _q_coeffs(c)
        flat += c + (0,) * (stride - len(c))
    return pack_coefficients(flat, slot_bytes)


def _from_flat(flat: Sequence[int], stride: int) -> Polynomial:
    """The polynomial in Z[q][x] whose x^i coefficient is flat[i * stride : (i + 1) * stride]."""
    return Polynomial(Polynomial(flat[i : i + stride]) for i in range(0, len(flat), stride))


def _coprime(a: Polynomial, b: Polynomial) -> bool:
    """Whether gcd(a, b) is 1 modulo a prime dividing neither leading coefficient.

    The primitive gcd over Q divides a and b in Z[x] (Gauss's lemma) and
    keeps its degree modulo such a prime, so True proves them coprime.  Over
    Z[q][x], q is set to integers t >= 1 at which neither leading coefficient
    vanishes, the first three of them, until one gives True.  A common
    factor of positive degree over Q(q) has a primitive form in Z[q][x]
    whose leading coefficient divides theirs, so it keeps its degree at t
    and would divide both images: True proves a and b coprime over Q(q) too.
    A pair coprime over Q(q) fails only at roots of its resultant, as
    (1 - x)(1 - 2x) and 1 - q^2 x do at t = 1.
    """
    if isinstance(a.coeffs[-1], Polynomial):
        points = (t for t in count(1) if a.coeffs[-1].evaluate(t) and b.coeffs[-1].evaluate(t))
        return any(_coprime(_substitute(a, t), _substitute(b, t)) for t in islice(points, 3))
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


def _fit_bivariate(series: Sequence[Polynomial], degree_bound: int, q_bound: int) -> RationalGF:
    """Fit over Z[q] at one point q = 2^s per slot, proved by `_proved_numerator`.

    q_bound bounds the denominator's degree in q.  The first slot holds the
    symmetric lift of D(x, 1) modulo one prime with 2 bits to spare, in
    whole bytes.  `_denominator_at` reads a candidate D at q = 2^s, and D is
    returned once `_proved_numerator` proves that N/D reproduces all of
    series, which with 2 * degree_bound + 2 terms proves the fit
    (`fit_rational`); otherwise s doubles (module docstring).  A failed slot
    wider than the ceiling `_limit_bits` sets for the largest integer in
    series ends the search with FitError.  An all-zero series is 0/1.
    """
    _check_fit(len(series), degree_bound)
    if not any(series):
        return RationalGF(Polynomial(), Polynomial((ONE,)))
    limit_bits = _limit_bits(max(abs(c) for s in series for c in s.coeffs), degree_bound)
    p = next(_primes())
    at_one, _ = _min_lfsr_mod([sum(s.coeffs) for s in series], p)
    slot_bytes = signed_slot_bytes(2 * max(map(abs, _symmetric(at_one, p))))
    while True:
        den = _denominator_at(series, degree_bound, q_bound, slot_bytes)
        if den is not None:
            num = _proved_numerator(den, series, degree_bound)
            if num is not None:
                return RationalGF(num, den)
        if 8 * slot_bytes > limit_bits:
            raise FitError("insufficient terms: bivariate fit did not stabilize")
        slot_bytes *= 2


def _denominator_at(
    series: Sequence[Polynomial], degree_bound: int, q_bound: int, slot_bytes: int
) -> Polynomial | None:
    """The candidate D read from the terms at q = 2^s, s = 8 * slot_bytes, or None.

    `_lifts` runs `_min_lfsr_mod` once per prime on the exact S_j(2^s)
    (`pack_coefficients`) and combines the primes that agree on the
    recurrence length L.  Once a group's modulus has more than
    (q_bound + 1) * s + 1 bits, its symmetric lift is read back as balanced
    base-2^s digits (module docstring).  None when the candidate leaves the
    x-degree or q-degree bound.  L is at most max(deg D, deg N + 1) over
    Q(q), as D stays a recurrence at any q and modulo any prime, so FitError
    when it is longer than the bound or half the terms allow.
    """
    slot = 8 * slot_bytes
    values = [pack_coefficients(s.coeffs, slot_bytes) for s in series]
    for n, modulus, residues in _lifts(values):
        if n > degree_bound + 2 or 2 * n > len(series):
            raise FitError(f"insufficient terms: recurrence of length {n} at q = 2^{slot}")
        if modulus.bit_length() > (q_bound + 1) * slot + 1:
            den = Polynomial(
                Polynomial(unpack_signed(d, slot_bytes)) for d in _symmetric(residues, modulus)
            )
            if den.degree > degree_bound or max(d.degree for d in den.coeffs) > q_bound:
                return None
            return den


def _proved_numerator(
    den: Polynomial, series: Sequence[Polynomial], degree_bound: int
) -> Polynomial | None:
    """N = (den * series) mod x^(degree_bound + 2) over Z[q] if N/den expands to series, else None.

    With D_0 = 1, the expansion of N/D agrees on all terms j < T exactly
    when every E_j = sum_k D_k * S_{j-k} is N_j for j < degree_bound + 2
    and vanishes in Z[q] beyond.  The E_j that must vanish come first, so
    a wrong den is rejected at the first nonzero one, before any numerator
    term is computed.  Each coefficient of E_j is at most
    B = sum_k |D_k|_1 * max_h |S_h|_inf in absolute value.  Substitute
    q = 2^s at the slot `signed_slot_bytes(B)`.  Balanced base-2^s digits
    are unique, so the digits of E_j(2^s) are the q-coefficients of E_j, and
    E_j(2^s) = 0 holds exactly when E_j = 0: one integer per term decides
    the identity in Z[q], a proof over the checked terms, not a sampled test.

    The sums are `_convolve`'s small-scalar shifts.
    """
    top = max(abs(c) for p in series for c in p.coeffs)
    slot_bytes = signed_slot_bytes(top * _l1(den))
    slot = 8 * slot_bytes
    packed = [pack_coefficients(p.coeffs, slot_bytes) for p in series]
    den_q = [_q_coeffs(c) for c in den.coeffs]
    cut = min(degree_bound + 2, len(packed))
    if any(_convolve(den_q, packed, j, slot, 0) for j in range(cut, len(packed))):
        return None
    return Polynomial(
        Polynomial(unpack_signed(_convolve(den_q, packed, j, slot, 0), slot_bytes))
        for j in range(cut)
    )


def gf_height_area(width: int, *, automaton: Automaton | None = None) -> RationalGF:
    """Bivariate generating function by height and area, proved width by width.

    Coefficients are exact integer polynomials in q.  Each of A_b, A_(b-1)
    and A_(b-2) is fitted over Z[q] on exactly 2k + 2 exact area terms with
    degree bound k, its word quotient's class count less one: its quotient
    matrix has entries c * q^fill with c a nonnegative integer, so Cramer's
    rule bounds both degrees in x by k over Z[q] too, and the sum of its
    classes' fills bounds the denominator's degree in q (module docstring).
    The fits are summed with their signs, in lowest terms over Q(q) once
    the denominators are proved coprime (`sum_fractions`).  The automaton
    argument is accepted and ignored.  ValueError unless width is an int in
    1..MAX_WIDTH; desk-scale widths only, and that guard is a resource
    ceiling, not a correctness bound.
    """
    check_width(width)
    if width > AREA_WIDTH_LIMIT:
        raise ResourceLimitError(
            f"area generating functions are desk-scale for width <= {AREA_WIDTH_LIMIT}"
        )
    parts = []
    for sign, rows in width_groups(width):
        k = len(rows) - 1
        _, series = area_series([(1, rows)], 2 * k + 1, 0)
        parts.append((sign, _fit_bivariate(series, k, sum(fill for _, fill, _ in rows))))
    return sum_fractions(parts)


def specialize_q(gf: RationalGF, value: int) -> RationalGF:
    """Set q to the integer value in a bivariate generating function and reduce.

    The substituted fraction is fitted again from its own expansion
    (`_refit`).  ValueError unless value is an int: True would set q to 1.
    """
    if type(value) is not int:
        raise ValueError(f"q must be set to an int, got {value!r}")
    return _refit(_substitute(gf.numerator, value), _substitute(gf.denominator, value), fit_rational)


def _substitute(f: Polynomial, value: int) -> Polynomial:
    """f in Z[q][x] with q set to value."""
    return Polynomial([c.evaluate(value) if isinstance(c, Polynomial) else c for c in f.coeffs])
