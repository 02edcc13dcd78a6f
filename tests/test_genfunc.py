import random
import threading
from fractions import Fraction

import pytest

from polyrect import (
    FitCancelled,
    FitError,
    Polynomial,
    RationalGF,
    ResourceLimitError,
    count_series,
    expand,
    fit_rational,
    gf_height,
    gf_height_area,
    gf_height_by_elimination,
    reversed_charpoly,
    specialize_q,
)
from polyrect.counting import count_area_series
from polyrect.genfunc import VERIFY_WINDOW, _matches, _NewtonTable, reduce_gf
from polyrect.polynomial import ONE, divmod_exact, poly_gcd


def test_rational_gf_invariants():
    RationalGF(Polynomial((1,)), Polynomial((1, -2)))
    with pytest.raises(ValueError):
        RationalGF(ONE, Polynomial())
    with pytest.raises(ValueError):
        RationalGF(ONE, Polynomial((2, 1)))


def test_degrees_and_text():
    gf = RationalGF(Polynomial((1, -2)), Polynomial((1, 0, 3)))
    assert gf.degrees() == (1, 2, 2)
    assert gf.to_text() == "(1 - 2*x) / (1 + 3*x^2)"
    assert gf.to_json_obj() == {"num": [1, -2], "den": [1, 0, 3]}


def test_expand_basics():
    gf = RationalGF(ONE, Polynomial((1, -1)))
    assert expand(gf, 5) == [1, 1, 1, 1, 1]
    gf = RationalGF(Polynomial((0, 0, 1)), ONE)
    assert expand(gf, 5) == [0, 0, 1, 0, 0]
    assert expand(gf, 0) == []
    with pytest.raises(ValueError):
        expand(gf, -1)


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


def test_fit_fraction_series():
    series = [Fraction(1, 2 ** (k + 1)) for k in range(8)]
    gf = fit_rational(series, 2)
    assert expand(gf, 8) == series
    assert gf.denominator.coeffs == (1, Fraction(-1, 2))


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


def test_fit_cancellation():
    event = threading.Event()
    event.set()
    with pytest.raises(FitCancelled):
        fit_rational([1, 2, 4, 8, 16, 32], 2, cancel=event)
    with pytest.raises(FitCancelled):
        gf_height(2, cancel=event)


def test_gf_height_width_two(automaton):
    gf = gf_height(2, automaton=automaton(2))
    assert gf.numerator.coeffs == (1, -2, 3, 2)
    assert gf.denominator.coeffs == (1, -3, 1, 1)
    assert expand(gf, 6) == [1, 1, 5, 15, 39, 97]


def test_gf_height_matches_series(automaton):
    for width in (1, 2, 3, 4):
        a = automaton(width)
        gf = gf_height(width, automaton=a)
        n = 25
        assert expand(gf, n + 1) == list(count_series(a, n).counts), width


def test_gf_height_numerator_denominator_coprime(automaton):
    for width in (1, 2, 3, 4):
        gf = gf_height(width, automaton=automaton(width))
        assert poly_gcd(gf.numerator, gf.denominator).degree == 0, width


def test_elimination_backend_agrees(automaton):
    for width in (1, 2, 3):
        ge = gf_height_by_elimination(width, automaton=automaton(width))
        gh = gf_height(width, automaton=automaton(width))
        assert ge.numerator == gh.numerator, width
        assert ge.denominator == gh.denominator, width


def test_denominator_divides_reversed_charpoly(automaton):
    for width in (2, 3, 4):
        a = automaton(width)
        gh = gf_height(width, automaton=a)
        quotient, remainder = divmod_exact(reversed_charpoly(a), gh.denominator)
        assert not remainder, width
        assert quotient.coeffs == tuple(int(c) for c in quotient.coeffs)


def test_reversed_charpoly_constant_term(automaton):
    assert reversed_charpoly(automaton(2)).coeffs[0] == 1


def test_bivariate_width_two(automaton):
    gf = gf_height_area(2, automaton=automaton(2))
    q = Polynomial((0, 1))
    terms = expand(gf, 4)
    assert terms[0] == 1
    assert terms[1] == q * q
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
    for width in (2, 3):
        gf = gf_height_area(width, automaton=automaton(width))
        collapsed = specialize_q(gf, 1)
        direct = gf_height(width, automaton=automaton(width))
        assert expand(collapsed, 20) == expand(direct, 20), width


def test_bivariate_width_guard():
    with pytest.raises(ResourceLimitError):
        gf_height_area(5)


def test_specialize_q_reduces():
    q = Polynomial((0, 1))
    one = Polynomial((1,))
    # (1 - q^2 x) / (1 - q x)(1 + q x) has a common factor at q = 1
    num = Polynomial((one, -(q * q)))
    den = Polynomial((one, Polynomial(()), -(q * q)))
    gf = RationalGF(num, den)
    collapsed = specialize_q(gf, 1)
    assert collapsed.numerator == 1
    assert collapsed.denominator.coeffs == (1, 1)


def test_reduce_gf_normalizes():
    num = Polynomial((2, 2))
    den = Polynomial((2, 0, -2))
    gf = reduce_gf(num, den)
    assert gf.numerator == 1
    assert gf.denominator.coeffs == (1, -1)
    with pytest.raises(ValueError):
        reduce_gf(ONE, Polynomial())


def test_newton_table_rebuilds_integer_polynomial():
    target = Polynomial((3, -5, 0, 7, 0, -2))
    table = _NewtonTable()
    for k in range(1, 5):
        for x in (k, -k):
            table.add(x, target.evaluate(x))
    assert table.xs == [1, -1, 2, -2, 3, -3, 4, -4]
    assert table.stable()
    rebuilt = table.polynomial()
    assert rebuilt == target
    assert all(type(c) is int for c in table.coeffs + list(rebuilt.coeffs))


def test_newton_table_non_integer_polynomial_falls_back_to_fractions():
    # q(q + 1) / 2 is integer-valued but has no integer coefficients
    table = _NewtonTable()
    for x in (1, -1, 2, -2, 3):
        table.add(x, x * (x + 1) // 2)
    assert table.stable()
    assert table.polynomial().coeffs == (0, Fraction(1, 2), Fraction(1, 2))


def _area_setup(automaton, width):
    a = automaton(width)
    total = 2 * a.n_states + 10 + VERIFY_WINDOW
    series = list(count_area_series(a, total - 1).area_counts)
    return gf_height_area(width, automaton=a), series


def _bump_last(entries, delta):
    """Entries with the highest q-degree coefficient of the last entry moved by delta."""
    coeffs = list(entries[-1].coeffs)
    coeffs[-1] += delta
    return Polynomial(entries[:-1] + (Polynomial(coeffs),))


def test_matches_rejects_one_coefficient_perturbations(automaton):
    gf, series = _area_setup(automaton, 3)
    assert _matches(gf, series)
    num, den = gf.numerator.coeffs, gf.denominator.coeffs
    for delta in (1, -1):
        bad_num = RationalGF(_bump_last(num, delta), gf.denominator)
        assert not _matches(bad_num, series), delta
        bad_den = RationalGF(gf.numerator, _bump_last(den, delta))
        assert not _matches(bad_den, series), delta


def test_matches_rejects_perturbations_that_vanish_at_a_power_of_two(automaton):
    # adding q - 2^s leaves the value at q = 2^s unchanged, so only a slot
    # width sized from the candidate's own coefficients can see it
    gf, series = _area_setup(automaton, 2)
    num = gf.numerator.coeffs
    for s in range(8, 520, 8):
        hidden = num[-1] + Polynomial((-(1 << s), 1))
        bad = RationalGF(Polynomial(num[:-1] + (hidden,)), gf.denominator)
        assert not _matches(bad, series), s
