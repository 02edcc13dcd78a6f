import random
from fractions import Fraction
from math import factorial

import pytest

from polyrect import (
    FitError,
    Polynomial,
    RationalGF,
    ResourceLimitError,
    expand,
    fit_rational,
    gf_height,
    gf_height_area,
    specialize_q,
)
from polyrect import counting, genfunc
from polyrect.counting import count_area_series
from polyrect.genfunc import (
    _coprime,
    _fit_bivariate,
    _proved_numerator,
    sum_fractions,
)
from polyrect.polynomial import ONE

from reference import (
    expand_reference,
    forward_counts,
    gf_height_by_elimination,
    poly_add,
    poly_mul,
    poly_neg,
    poly_prod,
    poly_sub,
    reversed_charpoly,
)


def test_rational_gf_invariants():
    RationalGF(Polynomial((1,)), Polynomial((1, -2)))
    with pytest.raises(ValueError):
        RationalGF(ONE, Polynomial())
    with pytest.raises(ValueError):
        RationalGF(ONE, Polynomial((2, 1)))


def test_degrees_and_text():
    gf = RationalGF(Polynomial((1, -2)), Polynomial((1, 0, 3)))
    assert gf.degrees() == (1, 2, 2)
    assert (gf.numerator.to_string(), gf.denominator.to_string()) == ("1 - 2*x", "1 + 3*x^2")
    assert gf.to_json_obj() == {"num": [1, -2], "den": [1, 0, 3]}


def test_expand_basics():
    gf = RationalGF(ONE, Polynomial((1, -1)))
    assert expand(gf, 5) == [1, 1, 1, 1, 1]
    gf = RationalGF(Polynomial((0, 0, 1)), ONE)
    assert expand(gf, 5) == [0, 0, 1, 0, 0]
    assert expand(gf, 0) == []
    for n_terms in (-1, 2.5, 2.0, True, None):
        with pytest.raises(ValueError, match="n_terms must be an int"):
            expand(gf, n_terms)


def test_expand_rejects_a_head_term_that_is_not_an_int():
    gf = RationalGF(ONE, Polynomial((1, -1)))
    assert expand(gf, 4, [1, 1]) == [1, 1, 1, 1]
    for term in (True, 1.0, 1.5, "1", None, ONE, Polynomial((1, 2))):
        with pytest.raises(ValueError, match="^head term .* is not an int$"):
            expand(gf, 4, [term])
    area = gf_height_area(2)
    want = expand(area, 4)
    assert expand(area, 4, want[:2]) == want
    assert expand(area, 4, [1]) == want  # the constant term as an int
    for term in (True, 1.0, Polynomial((1.0,)), Polynomial((True,)), Polynomial((ONE,)), [1]):
        with pytest.raises(ValueError, match="^head term .* is not an int or a Polynomial of ints$"):
            expand(area, 4, [term])


def test_fit_geometric():
    gf = fit_rational([1, 2, 4, 8, 16, 32], 2)
    assert gf.numerator == 1
    assert gf.denominator.coeffs == (1, -2)


def test_fit_transient_then_constant():
    series = [5, 9, 2, 7] + [1] * 8
    gf = fit_rational(series, 3)
    assert gf.denominator.coeffs == (1, -1)
    assert expand(gf, len(series)) == series


def test_fit_zero_series():
    gf = fit_rational([0] * 10, 3)
    assert not gf.numerator
    assert gf.denominator == 1


def test_fit_fibonacci():
    gf = fit_rational([0, 1, 1, 2, 3, 5, 8, 13], 2)
    assert gf.numerator.coeffs == (0, 1)
    assert gf.denominator.coeffs == (1, -1, -1)


def test_fit_rejects_non_integer_terms():
    for series in ([1.0, 2.0, 4.0, 8.0], [1, 2, Fraction(4), 8], [1, 2, 4, True]):
        with pytest.raises(ValueError, match="must be ints"):
            fit_rational(series, 1)


def test_fit_rejects_a_degree_bound_that_is_not_an_int():
    # True would fit as bound 1, and 1.5 reached the arithmetic of the limit
    series = [1, 2, 4, 8, 16, 32]
    for bound in (-1, 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="degree_bound must be an int"):
            fit_rational(series, bound)


def test_fit_series_with_prime_ratio():
    # P^3, P^2, P, 1 is 0, 0, 0, 1 mod P: that prime alone gives a recurrence
    # of length 4, which reproduces the four terms without testing one.  The
    # only fit is P^3 / (1 - x/P), which is not integral
    big = 2**61 - 1
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational([big ** (3 - k) for k in range(4)], 1)


def test_fit_limit_ends_search(monkeypatch):
    # 14 random terms have a minimal recurrence of length 7, longer than any
    # fit with degree bound 3 allows; its coefficients need more bits than
    # the limit, so the search stops there with nothing passing
    rng = random.Random(4099)
    series = [rng.randint(-(2**20), 2**20) for _ in range(14)]
    primes = []
    real = genfunc._min_lfsr_mod

    def spy(seq, p):
        primes.append(p)
        return real(seq, p)

    monkeypatch.setattr(genfunc, "_min_lfsr_mod", spy)
    with pytest.raises(FitError, match="no rational fit reproduces"):
        fit_rational(series, 3)
    assert 2 <= len(primes) <= 6


def test_fit_requires_enough_terms():
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational([1, 2, 3], 4)


def test_fit_rejects_numerator_beyond_bound():
    # x^5 needs numerator degree 5; bound 2 admits numerator degree 3 at most
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational([0, 0, 0, 0, 0, 1, 0, 0, 0, 0], 2)
    with pytest.raises(FitError, match="numerator degree 5 exceeds bound 3"):
        fit_rational([0] * 5 + [1] + [0] * 6, 2)
    with pytest.raises(FitError, match="numerator degree 5 exceeds bound 3"):
        fit_rational([0] * 5 + [1] * 7, 2)
    gf = fit_rational([0, 0, 0] + [1] * 9, 2)
    assert gf.numerator.coeffs == (0, 0, 0, 1)
    assert gf.denominator.coeffs == (1, -1)


def test_fit_rejects_unfittable_series():
    factorials = [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880]
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational(factorials, 2)


def test_fit_round_trip_random_rationals():
    rng = random.Random(97013)
    for _ in range(25):
        dd = rng.randrange(0, 5)
        nd = rng.randrange(0, 5)
        den = [1] + [rng.randrange(-4, 5) for _ in range(dd)]
        num = [rng.randrange(-9, 10) for _ in range(nd + 1)]
        source = RationalGF(Polynomial(num), Polynomial(den))
        bound = max(dd, nd + 1)
        series = expand(source, 2 * bound + 8)
        fitted = fit_rational(series, bound)
        assert expand(fitted, 3 * bound + 20) == expand(source, 3 * bound + 20)
        assert fitted.denominator.degree <= dd


SMALL_PRIMES = [p for p in range(3, 212) if all(p % d for d in range(2, p))]


def test_small_primes_change_no_fit(automaton, monkeypatch):
    # primes this small make discrepancies vanish, so some primes give the
    # wrong recurrence length and lifts need several CRT rounds; 3 divides
    # the ratio of the geometric series below, so that prime gives a longer
    # recurrence, and its only fit 3^7 / (1 - x/3) is not integral.
    # The 46 primes are all there is: a FitError case that uses them up
    # ends for that reason, not at the limit (see test_fit_limit_ends_search)
    heights = {b: gf_height(b) for b in range(1, 5)}
    area = gf_height_area(2, automaton=automaton(2))
    lengths: dict[tuple, list[int]] = {}
    real = genfunc._min_lfsr_mod

    def spy(seq, p):
        c, length = real(seq, p)
        lengths.setdefault(tuple(seq), []).append(length)
        return c, length

    monkeypatch.setattr(genfunc, "_primes", lambda: iter(SMALL_PRIMES))
    monkeypatch.setattr(genfunc, "_min_lfsr_mod", spy)
    for check in (
        test_fit_geometric,
        test_fit_transient_then_constant,
        test_fit_zero_series,
        test_fit_fibonacci,
        test_fit_rejects_non_integer_terms,
        test_fit_series_with_prime_ratio,
        test_fit_requires_enough_terms,
        test_fit_rejects_numerator_beyond_bound,
        test_fit_rejects_unfittable_series,
        test_fit_round_trip_random_rationals,
    ):
        check()
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational([3 ** (7 - k) for k in range(8)], 2)
    for b, gf in heights.items():
        assert gf_height(b) == gf, b
    assert gf_height_area(2, automaton=automaton(2)) == area
    assert any(len(set(seen)) > 1 for seen in lengths.values())
    assert max(len(seen) for seen in lengths.values()) >= 5


def test_gf_height_width_two():
    gf = gf_height(2)
    assert gf.numerator.coeffs == (1, -2, 3, 2)
    assert gf.denominator.coeffs == (1, -3, 1, 1)
    assert expand(gf, 6) == [1, 1, 5, 15, 39, 97]


def test_gf_height_matches_series(automaton):
    for width in (1, 2, 3, 4):
        a = automaton(width)
        gf = gf_height(width)
        n = 25
        assert expand(gf, n + 1) == list(forward_counts(a, n)), width


def test_gf_height_is_fixed_by_two_n_plus_two_terms(automaton):
    # fit_rational refuses fewer than 2n + 2 terms, and since the state count
    # n bounds both degrees, the fit on 2n + 2 reproduces the series far past
    for width in (1, 2, 3, 4):
        a = automaton(width)
        n = a.n_states
        counts = list(forward_counts(a, 4 * n))
        with pytest.raises(FitError, match="insufficient terms"):
            fit_rational(counts[: 2 * n + 1], n)
        assert expand(gf_height(width), 4 * n + 1) == counts, width


def test_fits_build_the_quotient_once(monkeypatch):
    # a fit lumps each of its widths' words once, and keeps nothing for the
    # next call
    built = []
    word_quotient = counting.word_quotient

    def counted(width):
        built.append(width)
        return word_quotient(width)

    monkeypatch.setattr(counting, "word_quotient", counted)
    gf_height(4)
    gf_height_area(3)
    gf_height(4)
    assert built == [4, 3, 2, 3, 2, 1, 4, 3, 2]


def test_gf_height_numerator_denominator_coprime():
    for width in (1, 2, 3, 4):
        gf = gf_height(width)
        assert _coprime(gf.numerator, gf.denominator), width


def test_sum_of_fractions_with_a_common_factor_is_reduced_exactly():
    # x / (1 - x)(1 - 2x) and x^2 / (1 - x)(1 + 3x) share the factor 1 - x,
    # so the product of the denominators is not the reduced one
    x = Polynomial((0, 1))
    one_minus_x = Polynomial((1, -1))
    first = RationalGF(x, poly_mul(one_minus_x, Polynomial((1, -2))))
    second = RationalGF(poly_mul(x, x), poly_mul(one_minus_x, Polynomial((1, 3))))
    assert not _coprime(first.denominator, second.denominator)
    den = poly_mul(first.denominator, second.denominator)
    num = poly_sub(
        poly_add(den, poly_mul(first.numerator, second.denominator)),
        poly_mul(poly_mul(second.numerator, first.denominator), 2),
    )
    got = sum_fractions([(1, first), (-2, second)])
    assert poly_mul(got.numerator, den) == poly_mul(num, got.denominator)
    assert got.denominator.degree == 3
    assert got.denominator.coeffs[0] == 1
    want = [a - 2 * b for a, b in zip(expand(first, 20), expand(second, 20))]
    want[0] += 1
    assert expand(got, 20) == want


def _degree_bound(width):
    """K: the classes of the width's word quotients less their initial ones."""
    return sum(len(rows) - 1 for _, rows in counting.width_groups(width))


def test_window_group_denominators_are_coprime_mod_p(automaton):
    # the certificate gf_height relies on: each pair of the groups' reduced
    # denominators has gcd 1 modulo a 61-bit prime, and the reduced sum
    # is the fit of the whole series
    for width in (3, 4, 5):
        parts = []
        for sign, rows in counting.width_groups(width):
            k = len(rows) - 1
            parts.append((sign, fit_rational(counting.group_series(rows, 2 * k + 1), k)))
        dens = [gf.denominator for _, gf in parts]
        assert all(_coprime(p, q) for i, p in enumerate(dens) for q in dens[i + 1 :]), width
        k = _degree_bound(width)
        whole = fit_rational(forward_counts(automaton(width), 2 * k + 1), k)
        assert sum_fractions(parts) == whole, width


def test_elimination_backend_agrees(automaton):
    for width in (1, 2, 3):
        ge = gf_height_by_elimination(width, automaton=automaton(width))
        gh = gf_height(width)
        assert poly_mul(ge.numerator, gh.denominator) == poly_mul(gh.numerator, ge.denominator), width


def test_denominator_divides_reversed_charpoly(automaton):
    for width in (2, 3, 4):
        a = automaton(width)
        den = gf_height(width).denominator
        charpoly = reversed_charpoly(a)
        # den(0) = 1, so den divides charpoly exactly when the quotient's
        # expansion, truncated past deg charpoly, multiplies back to it
        quotient = Polynomial(expand(RationalGF(charpoly, den), charpoly.degree + 1))
        assert poly_mul(quotient, den) == charpoly, width


def test_reversed_charpoly_constant_term(automaton):
    assert reversed_charpoly(automaton(2)).coeffs[0] == 1


def test_bivariate_width_two(automaton):
    gf = gf_height_area(2, automaton=automaton(2))
    q = Polynomial((0, 1))
    terms = expand(gf, 4)
    assert terms[0] == 1
    assert terms[1] == poly_mul(q, q)
    assert terms[2] == Polynomial((0, 0, 0, 4, 1))
    assert terms[3] == Polynomial((0, 0, 0, 0, 8, 6, 1))
    assert gf.is_bivariate
    assert gf.denominator.coeffs == (
        Polynomial((1,)),
        Polynomial((0, -2, -1)),
        Polynomial((0, 0, 1)),
        Polynomial((0, 0, 0, 0, 1)),
    )


def test_bivariate_collapses_at_q_one(automaton):
    for width in (1, 2, 3, 4, 5):
        gf = gf_height_area(width, automaton=automaton(width))
        collapsed = specialize_q(gf, 1)
        direct = gf_height(width)
        assert expand(collapsed, 20) == expand(direct, 20), width
        if width < 2:
            continue
        area = count_area_series(width, 30).area_counts
        for t in (2, -1, 0):
            want = [p.evaluate(t) for p in area]
            assert expand(specialize_q(gf, t), 31) == want, (width, t)


def test_bivariate_group_sum_is_the_whole_series_fit(automaton):
    # the groups' fits, summed, are the fit of the whole area series with
    # bound K: the reduced fraction with denominator constant term 1 is unique
    for width in (1, 2, 3, 4):
        a = automaton(width)
        k = _degree_bound(width)
        # the whole denominator is the product of the groups', so the sum of
        # every group's fills bounds its q-degree
        fills = sum(fill for _, rows in counting.width_groups(width) for _, fill, _ in rows)
        whole = _fit_bivariate(count_area_series(a, 2 * k + 1).area_counts, k, fills)
        assert gf_height_area(width, automaton=a) == whole, width


def test_bivariate_sum_with_a_common_factor_is_reduced():
    # q x / (1 - q x)(1 - 2x) and x^2 / (1 - q x)(1 + q^2 x) share 1 - q x
    q = Polynomial((0, 1))
    one, zero = Polynomial((1,)), Polynomial()
    q_squared = poly_mul(q, q)
    shared = Polynomial((one, poly_neg(q)))
    first = RationalGF(Polynomial((zero, q)), poly_mul(shared, Polynomial((one, Polynomial((-2,))))))
    second = RationalGF(Polynomial((zero, zero, one)), poly_mul(shared, Polynomial((one, q_squared))))
    assert not _coprime(first.denominator, second.denominator)
    got = sum_fractions([(1, first), (-2, second)])
    assert got.denominator.degree == 3
    assert got.denominator.coeffs[0] == ONE
    want = [poly_sub(a, poly_mul(b, 2)) for a, b in zip(expand(first, 20), expand(second, 20))]
    want[0] = poly_add(want[0], 1)
    assert expand(got, 20) == want
    # coprime denominators in Z[q][x] are summed as they are
    third = RationalGF(Polynomial((zero, one)), Polynomial((one, poly_neg(q_squared))))
    assert _coprime(first.denominator, third.denominator)
    assert sum_fractions([(1, first), (1, third)]).denominator.degree == 3


def _schoolbook_sum(parts):
    """1 + sum(sign * P/Q) as (N, D), D = prod(Q), by the schoolbook product."""
    den = poly_prod(gf.denominator for _, gf in parts)
    num = den
    for i, (sign, gf) in enumerate(parts):
        others = poly_prod(g.denominator for j, (_, g) in enumerate(parts) if j != i)
        num = poly_add(num, poly_mul(poly_mul(gf.numerator, others), sign))
    return num, den


def _random_coefficient(rng, q_degree):
    """An int above 2^64 or below, of either sign, or 0; a Polynomial in q for q_degree >= 0."""
    def one():
        return rng.choice((0, 1, -1, rng.randint(-(2**80), 2**80), rng.randint(-9, 9)))

    if q_degree < 0:
        return one()
    return Polynomial(one() for _ in range(rng.randint(1, q_degree + 1)))


def _random_part(rng, q_degree, shared=ONE):
    """A random P/Q with Q(0) = 1, Q a multiple of shared."""
    unit = 1 if q_degree < 0 else ONE
    num = Polynomial(_random_coefficient(rng, q_degree) for _ in range(rng.randint(1, 4)))
    den = Polynomial([unit] + [_random_coefficient(rng, q_degree) for _ in range(rng.randint(1, 3))])
    return RationalGF(num or Polynomial((unit,)), poly_mul(den, shared))


def test_bivariate_expand_matches_the_area_series():
    for width in range(1, 6):
        gf = gf_height_area(width)
        area = list(count_area_series(width, 30).area_counts)
        assert expand(gf, 31) == area, width
        assert expand(gf, 31, area[:5]) == area, width


def test_bivariate_expand_matches_the_schoolbook_expansion():
    # coefficients above 2^64 and negative ones, q-degree 0..4; a head of
    # random terms seeds the slot bound too
    rng = random.Random(26001)
    for q_degree in range(5):
        for _ in range(12):
            gf = _random_part(rng, q_degree)
            want = expand_reference(gf, 12)
            got = expand(gf, 12)
            assert got == want
            assert all(type(term) is Polynomial for term in got)
            head = [_random_coefficient(rng, q_degree) for _ in range(3)]
            assert expand(gf, 12, head) == expand_reference(gf, 12, head)
            assert expand(gf, 0) == expand(gf, 0, head) == []


def test_bivariate_expand_returns_polynomials_only():
    # a zero numerator, or a denominator of x-degree 0, leaves no product to
    # make a term a Polynomial; each term is one all the same
    for num in (Polynomial(), Polynomial((ONE,)), Polynomial((ONE, Polynomial(), Polynomial((0, 3))))):
        for den in (Polynomial((ONE,)), Polynomial((ONE, Polynomial((0, -1))))):
            terms = expand(RationalGF(num, den), 6)
            assert all(type(term) is Polynomial for term in terms), (num, den)
            assert terms == expand_reference(RationalGF(num, den), 6)


def test_sum_fractions_matches_the_schoolbook_sum():
    # Z[x] (q_degree -1) and Z[q][x]; coefficients above 2^64 and negative
    rng = random.Random(24001)
    for q_degree in (-1, 0, 2, 4):
        for _ in range(12):
            parts = [(sign, _random_part(rng, q_degree)) for sign in (1, -2, 1)]
            num, den = _schoolbook_sum(parts)
            got = sum_fractions(parts)
            assert got.is_bivariate == (q_degree >= 0)
            assert poly_mul(got.numerator, den) == poly_mul(num, got.denominator)
            dens = [gf.denominator for _, gf in parts]
            if all(_coprime(p, q) for i, p in enumerate(dens) for q in dens[i + 1 :]):
                assert got == RationalGF(num, den)


def test_sum_fractions_refits_a_common_factor():
    # two parts share 1 - 3x (over Z) or 1 - q x (over Z[q]), so N/D is refitted
    rng = random.Random(24002)
    q = Polynomial((0, 1))
    for q_degree, shared in ((-1, Polynomial((1, -3))), (1, Polynomial((ONE, poly_neg(q))))):
        for _ in range(3):
            parts = [
                (1, _random_part(rng, q_degree, shared)),
                (-2, _random_part(rng, q_degree, shared)),
                (1, _random_part(rng, q_degree)),
            ]
            num, den = _schoolbook_sum(parts)
            got = sum_fractions(parts)
            assert poly_mul(got.numerator, den) == poly_mul(num, got.denominator)
            assert got.denominator.degree < den.degree


def test_bivariate_width_guard():
    with pytest.raises(ResourceLimitError):
        gf_height_area(7)


def test_specialize_q_reduces():
    q = Polynomial((0, 1))
    one = Polynomial((1,))
    # (1 - q^2 x) / (1 - q x)(1 + q x) has a common factor at q = 1
    minus_q_squared = poly_neg(poly_mul(q, q))
    num = Polynomial((one, minus_q_squared))
    den = Polynomial((one, Polynomial(()), minus_q_squared))
    gf = RationalGF(num, den)
    collapsed = specialize_q(gf, 1)
    assert collapsed.numerator == 1
    assert collapsed.denominator.coeffs == (1, 1)
    # q = 1/2 would leave rational coefficients
    with pytest.raises(ValueError):
        specialize_q(gf_height_area(2), 0.5)


def test_specialize_q_rejects_a_value_that_is_not_an_int():
    # True would set q to 1 and return the height GF without a word
    gf = gf_height_area(2)
    for value in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="q must be set to an int"):
            specialize_q(gf, value)


def test_bivariate_slot_grows_until_the_coefficient_fits(monkeypatch):
    # 1 / (1 - c q x) with c above 2^70: D(x, 1) = 1 - c x sizes the first
    # slot from c mod p, too narrow for c, so a wider slot is needed
    c = 2**70 + 3
    series = [Polynomial((0,) * j + (c**j,)) for j in range(6)]
    slots = []
    real = genfunc._denominator_at

    def spy(series, degree_bound, q_bound, slot_bytes):
        slots.append(slot_bytes)
        return real(series, degree_bound, q_bound, slot_bytes)

    monkeypatch.setattr(genfunc, "_denominator_at", spy)
    gf = _fit_bivariate(series, 2, 1)
    assert gf.denominator.coeffs == (ONE, Polynomial((0, -c)))
    assert gf.numerator.coeffs == (ONE,)
    assert len(slots) > 1
    assert slots == [slots[0] << i for i in range(len(slots))]
    assert 8 * slots[0] <= c.bit_length() < 8 * slots[-1]


def test_bivariate_fit_survives_a_degenerate_point(monkeypatch):
    # (1 + 16x) / (1 - q x^2): D(x, 1) = 1 - x^2 sizes an 8-bit slot, and at
    # q = 256, 1 - 256 x^2 = (1 - 16x)(1 + 16x) shares a factor with the
    # numerator, so the recurrence there is 1 - 16x, which the proof rejects
    series = [Polynomial((0,) * (j // 2) + (16 if j % 2 else 1,)) for j in range(6)]
    tried = []
    real = genfunc._proved_numerator

    def spy(den, series, degree_bound):
        tried.append(den.degree)
        return real(den, series, degree_bound)

    monkeypatch.setattr(genfunc, "_proved_numerator", spy)
    gf = _fit_bivariate(series, 2, 1)
    q = Polynomial((0, 1))
    assert gf.numerator.coeffs == (ONE, Polynomial((16,)))
    assert gf.denominator.coeffs == (ONE, Polynomial(), poly_neg(q))
    assert tried == [1, 2]


def test_bivariate_q_bound_too_small_fails_the_proof():
    # with q-degree bound 0 every lift is 1 - c x, which no proof accepts
    c = 2**70 + 3
    series = [Polynomial((0,) * j + (c**j,)) for j in range(6)]
    with pytest.raises(FitError, match="insufficient terms"):
        _fit_bivariate(series, 2, 0)


def test_bivariate_fit_of_a_zero_series_is_zero():
    zero = [Polynomial()] * 6
    gf = _fit_bivariate(zero, 2, 0)
    assert not gf.numerator
    assert gf.denominator == ONE
    assert expand(gf, 6) == zero
    with pytest.raises(FitError, match="insufficient terms"):
        _fit_bivariate(zero[:5], 2, 0)


def test_bivariate_fit_degree_bounds():
    # q x^3 / (1 - q x) has numerator degree 3, the most bound 2 admits; its
    # recurrence of length 4 is fixed by 8 terms, not by 6 (as in fit_rational)
    q = Polynomial((0, 1))
    series = [Polynomial()] * 3 + [Polynomial((0,) * (j - 2) + (1,)) for j in range(3, 8)]
    gf = _fit_bivariate(series, 2, 1)
    assert gf.numerator.coeffs == (Polynomial(), Polynomial(), Polynomial(), q)
    assert gf.denominator.coeffs == (ONE, poly_neg(q))
    with pytest.raises(FitError, match="insufficient terms"):
        _fit_bivariate(series[:6], 2, 1)
    with pytest.raises(FitError, match="insufficient terms"):
        fit_rational([s.evaluate(1) for s in series[:6]], 2)
    # q^j j! has no recurrence of length 3 or less
    series = [Polynomial((0,) * j + (factorial(j),)) for j in range(6)]
    with pytest.raises(FitError, match="insufficient terms"):
        _fit_bivariate(series, 2, 5)


def _width_fit(width):
    """A width's word quotient, its area series, its fill sum F and its fit."""
    rows = counting.word_quotient(width)
    k = len(rows) - 1
    _, series = counting.area_series([(1, rows)], 2 * k + 1, 0)
    fills = sum(fill for _, fill, _ in rows)
    return rows, series, fills, _fit_bivariate(series, k, fills)


def test_fill_sums_bound_each_denominator_coefficient():
    # D_i of det(I - xB(q)) has q-degree at most the sum of the i largest
    # fills; the fitted, reduced D obeys the same bound, and meets F_w
    for width in range(1, 6):
        rows, _, fills, gf = _width_fit(width)
        largest = sorted((fill for _, fill, _ in rows[1:]), reverse=True)
        for i, d in enumerate(gf.denominator.coeffs):
            assert d.degree <= sum(largest[:i]), (width, i)
        assert max(d.degree for d in gf.denominator.coeffs) == fills, width


def test_bivariate_fit_runs_fewer_berlekamp_massey_than_q_coefficients(monkeypatch):
    # one point q = 2^s packs every q-coefficient of D_i into D_i(2^s), so
    # the primes' runs, and the one at q = 1 that sizes the slot, number
    # fewer than the F_w + 1 points an interpolation would need
    for width in (3, 4, 5):
        runs = []
        real = genfunc._min_lfsr_mod

        def spy(seq, p):
            runs.append(p)
            return real(seq, p)

        monkeypatch.setattr(genfunc, "_min_lfsr_mod", spy)
        _, _, fills, _ = _width_fit(width)
        monkeypatch.undo()
        assert len(runs) < fills + 1, (width, len(runs))


def _area_setup(automaton, width):
    a = automaton(width)
    series = list(count_area_series(a, 2 * a.n_states + 1).area_counts)
    return gf_height_area(width, automaton=a), series


def _bump_last(entries, delta):
    """Entries with the highest q-degree coefficient of the last entry moved by delta."""
    coeffs = list(entries[-1].coeffs)
    coeffs[-1] += delta
    return Polynomial(entries[:-1] + (Polynomial(coeffs),))


def test_proved_numerator_rejects_one_coefficient_perturbations(automaton):
    gf, series = _area_setup(automaton, 3)
    bound = max(gf.denominator.degree, gf.numerator.degree - 1)
    assert _proved_numerator(gf.denominator, series, bound) == gf.numerator
    for delta in (1, -1):
        bad = _bump_last(gf.denominator.coeffs, delta)
        assert _proved_numerator(bad, series, bound) is None, delta


def test_proved_numerator_checks_vanishing_sums_first(monkeypatch, automaton):
    # a wrong denominator is rejected before any numerator term is unpacked
    gf, series = _area_setup(automaton, 3)
    bound = max(gf.denominator.degree, gf.numerator.degree - 1)

    def refuse(*args):
        raise AssertionError("a numerator term was unpacked")

    monkeypatch.setattr(genfunc, "unpack_signed", refuse)
    assert _proved_numerator(_bump_last(gf.denominator.coeffs, 1), series, bound) is None


def test_proved_numerator_rejects_perturbations_that_vanish_at_a_power_of_two(automaton):
    # adding q - 2^s leaves the value at q = 2^s unchanged, so only a slot
    # width sized from the candidate's own coefficients can see it
    gf, series = _area_setup(automaton, 2)
    den = gf.denominator.coeffs
    bound = max(gf.denominator.degree, gf.numerator.degree - 1)
    for s in range(8, 520, 8):
        hidden = poly_add(den[-1], Polynomial((-(1 << s), 1)))
        assert _proved_numerator(Polynomial(den[:-1] + (hidden,)), series, bound) is None, s
