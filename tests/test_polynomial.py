import copy
import pickle
import random
from fractions import Fraction

import pytest

from polyrect import Polynomial
from polyrect.polynomial import (
    ONE,
    json_ready,
    pack_coefficients,
    signed_slot_bytes,
    unpack_coefficients,
    unpack_signed,
)

from reference import ZERO, poly_add, poly_mul, poly_neg, poly_sub


def test_construction_trims_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0)).coeffs == ()
    assert Polynomial().degree == -1
    assert Polynomial((7,)).degree == 0


def test_equality_with_scalars():
    assert Polynomial((5,)) == 5
    assert Polynomial() == 0
    assert Polynomial((0, 1)) != 1
    assert hash(Polynomial((5,))) == hash(5)


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        del p.coeffs
    assert p == Polynomial((1, 2)) and p.coeffs == (1, 2)


def test_copy_and_pickle_round_trips():
    for p in (Polynomial(), Polynomial((1, 2)), Polynomial((ONE, Polynomial((0, -3)), 5))):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is Polynomial and twin == p and repr(twin) == repr(p)


def test_basic_arithmetic():
    # the schoolbook ring the tests keep in reference.py
    p = Polynomial((1, 2))
    q = Polynomial((0, 1, 1))
    assert poly_add(p, q).coeffs == (1, 3, 1)
    assert poly_sub(p, q).coeffs == (1, 1, -1)
    assert poly_mul(p, q).coeffs == (0, 1, 3, 2)
    assert poly_neg(p).coeffs == (-1, -2)
    assert poly_mul(2, p).coeffs == (2, 4)
    assert poly_add(p, 1).coeffs == (2, 2)
    assert poly_sub(1, p).coeffs == (0, -2)
    assert poly_mul(p, 0) == ZERO
    assert poly_mul(p, ONE) == p


def test_evaluate():
    p = Polynomial((1, 2))
    assert p.evaluate(10) == 21
    assert p.evaluate(Fraction(1, 2)) == 2
    assert Polynomial().evaluate(3) == 0


def test_polynomial_is_a_value_without_ring_operators():
    # the package adds and multiplies on packed integers, never on Polynomials
    p = Polynomial((1, 2))
    for op in (lambda: p + p, lambda: p - 1, lambda: 2 * p, lambda: p * p, lambda: -p):
        with pytest.raises(TypeError):
            op()
    assert not hasattr(p, "shift")


def test_schoolbook_reference_small():
    a = Polynomial((1, -1, 2))
    b = Polynomial((3, 0, -2))
    assert poly_mul(a, b).coeffs == (3, -3, 4, 2, -4)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_long_product_matches_convolution():
    # long operands with wide signed coefficients, against a plain convolution
    rng = random.Random(40417)
    for _ in range(30):
        la = rng.randrange(16, 40)
        lb = rng.randrange(16, 40)
        mag = 10 ** rng.randrange(1, 30)
        a = [rng.randrange(-mag, mag + 1) for _ in range(la)]
        b = [rng.randrange(-mag, mag + 1) for _ in range(lb)]
        a[-1] = a[-1] or 1
        b[-1] = b[-1] or 1
        assert poly_mul(Polynomial(a), Polynomial(b)).coeffs == convolve(a, b)


def test_product_extremes():
    # zero runs between wide coefficients of opposite signs
    a = [0] * 20 + [-1]
    b = [-(10**40)] + [0] * 18 + [10**40]
    assert poly_mul(Polynomial(a), Polynomial(b)).coeffs == convolve(a, b)


def test_unpack_inverts_pack():
    rng = random.Random(52361)
    for slot_bytes in (1, 3, 8):
        top = 1 << (8 * slot_bytes)
        for length in (1, 2, 17):
            coeffs = [rng.choice((0, 1, rng.randrange(top))) for _ in range(length)]
            coeffs[-1] = top - 1
            packed = pack_coefficients(coeffs, slot_bytes)
            assert unpack_coefficients(packed, slot_bytes) == coeffs
    assert unpack_coefficients(0, 4) == []


def test_pack_takes_coefficients_wider_than_the_slot():
    # up to 5 slots wide, negative and zero included: the packs of every r-th
    # coefficient at an r-times-wider slot add up to the value at 2^s
    rng = random.Random(52367)
    for slot_bytes in (1, 2, 8):
        s = 8 * slot_bytes
        for length in (1, 2, 7, 30):
            top = (1 << 5 * s) - 1
            coeffs = [
                rng.choice((0, -1, rng.randrange(-(1 << s), 1 << s), rng.randint(-top, top)))
                for _ in range(length)
            ]
            coeffs[rng.randrange(length)] = rng.choice((top, -top))
            assert pack_coefficients(coeffs, slot_bytes) == Polynomial(coeffs).evaluate(1 << s)


def test_unpack_signed_inverts_pack():
    rng = random.Random(52363)
    for slot_bytes in (1, 3, 8):
        half = 1 << (8 * slot_bytes - 1)
        for length in (1, 2, 17):
            coeffs = [rng.choice((0, 1, -1, rng.randrange(-half + 1, half))) for _ in range(length)]
            coeffs[-1] = rng.choice((1, -1, half - 1, 1 - half))
            got = unpack_signed(pack_coefficients(coeffs, slot_bytes), slot_bytes)
            assert Polynomial(got) == Polynomial(coeffs)
    assert Polynomial(unpack_signed(0, 4)) == Polynomial()


def test_signed_slot_bytes_leaves_one_bit():
    for k in (1, 2, 3):
        for bound, want in (((1 << (8 * k - 1)) - 1, k), (1 << (8 * k - 1), k + 1)):
            slot_bytes = signed_slot_bytes(bound)
            assert slot_bytes == want
            got = unpack_signed(pack_coefficients([bound, -bound], slot_bytes), slot_bytes)
            assert Polynomial(got) == Polynomial([bound, -bound])
    assert signed_slot_bytes(0) == 1


def test_nested_coefficients():
    q = Polynomial((0, 1))
    p = Polynomial((ONE, q))          # 1 + q*x
    r = Polynomial((q, Polynomial((1,))))  # q + x
    prod = poly_mul(p, r)
    assert prod.coeffs[0] == q
    assert prod.coeffs[1] == Polynomial((1, 0, 1))  # 1 + q^2
    assert prod.coeffs[2] == q


def test_to_string():
    assert Polynomial().to_string() == "0"
    assert Polynomial((1, -2, 3)).to_string() == "1 - 2*x + 3*x^2"
    assert Polynomial((0, 1)).to_string() == "x"
    assert Polynomial((0, 0, -1)).to_string() == "-x^2"
    assert Polynomial((5,)).to_string("q") == "5"
    inner = Polynomial((Polynomial((1,)), Polynomial((0, -2)), Polynomial((0, 0, 1, 2))))
    assert inner.to_string() == "1 + (-2*q)*x + (q^2 + 2*q^3)*x^2"


def test_json_ready():
    assert json_ready(7) == 7
    assert json_ready(Polynomial((1, -2))) == [1, -2]
    assert json_ready(Polynomial((ONE, ZERO, Polynomial((0, 3))))) == [[1], [], [0, 3]]
