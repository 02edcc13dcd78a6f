"""Dense exact polynomials.

Coefficients are Python ints, Fractions, or (for bivariate work) nested
Polynomial values; arithmetic never leaves exact types.  Large integer
multiplications go through Kronecker packing: coefficients are laid out in
fixed-width bit slots of one big integer so CPython's subquadratic integer
multiply does the convolution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

_KRONECKER_MIN = 16


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


class Polynomial:
    """Immutable dense polynomial, lowest-degree coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c) -> Polynomial:
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if _is_scalar(other):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if not self.coeffs:
            return hash(0)
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_string()

    def __add__(self, other):
        if _is_scalar(other):
            if not other:
                return self
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if _is_scalar(other):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return Polynomial()
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        if (
            min(len(a), len(b)) >= _KRONECKER_MIN
            and all(type(c) is int for c in a)
            and all(type(c) is int for c in b)
        ):
            return Polynomial(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def evaluate(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def map_coefficients(self, fn) -> Polynomial:
        return Polynomial(tuple(fn(c) for c in self.coeffs))

    def to_string(self, var: str = "x", inner_var: str = "q") -> str:
        """Render lowest degree first, e.g. '1 - 2*x + 3*x^2'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            power = "" if j == 0 else (var if j == 1 else f"{var}^{j}")
            if isinstance(c, Polynomial):
                inner = c.to_string(inner_var)
                body = f"({inner})" if (" " in inner or inner.startswith("-")) else inner
                text = body if not power else (power if body == "1" else f"{body}*{power}")
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                if not power:
                    text = str(mag)
                elif mag == 1:
                    text = power
                else:
                    text = f"{mag}*{power}"
            if not parts:
                parts.append(text if sign == "+" else f"-{text}")
            else:
                parts.append(f"{sign} {text}")
        return " ".join(parts)


ZERO = Polynomial()
ONE = Polynomial((1,))


def pack_coefficients(coeffs, slot_bytes: int) -> int:
    """Value of an integer polynomial at x = 2^(8 * slot_bytes), in linear time.

    Each coefficient must have absolute value below 2^(8 * slot_bytes).  The
    positive and negative parts are laid out byte-wise in two buffers and
    read back as two integers, instead of a Horner loop that shifts an
    ever-growing integer (quadratic time).
    """
    pos = bytearray(slot_bytes * len(coeffs))
    neg = bytearray(len(pos))
    for i, c in enumerate(coeffs):
        if c:
            buf = pos if c > 0 else neg
            buf[i * slot_bytes:(i + 1) * slot_bytes] = abs(c).to_bytes(slot_bytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Signed convolution through one big-integer multiply."""
    ma = max(abs(c) for c in a)
    mb = max(abs(c) for c in b)
    slot_bytes = (ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 9) // 8
    slot = 8 * slot_bytes
    product = pack_coefficients(a, slot_bytes) * pack_coefficients(b, slot_bytes)
    n = len(a) + len(b) - 1
    half = 1 << (slot - 1)
    mask = (1 << slot) - 1
    out = []
    for _ in range(n):
        digit = product & mask
        if digit >= half:
            digit -= mask + 1
            product += mask + 1
        out.append(digit)
        product >>= slot
    return out


def _as_fraction_coeffs(p: Polynomial) -> list[Fraction]:
    return [c if isinstance(c, Fraction) else Fraction(c) for c in p.coeffs]


def divmod_exact(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder over the rationals (scalar coefficients only)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _as_fraction_coeffs(a)
    den = _as_fraction_coeffs(b)
    dlen = len(den)
    lead = den[-1]
    if len(rem) < dlen:
        return Polynomial(), a
    quot = [Fraction(0)] * (len(rem) - dlen + 1)
    for i in range(len(rem) - dlen, -1, -1):
        factor = rem[i + dlen - 1] / lead
        if factor:
            quot[i] = factor
            for j, c in enumerate(den):
                rem[i + j] -= factor * c
    return Polynomial(_tidy(quot)), Polynomial(_tidy(rem[: dlen - 1]))


def _tidy(coeffs) -> list:
    """Turn denominator-1 fractions back into ints."""
    return [int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in coeffs]


def content(p: Polynomial) -> int:
    """Positive gcd of integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = _int_gcd(g, c)
    return g


def primitive_part(p: Polynomial) -> Polynomial:
    """Divide out the content; leading coefficient made positive."""
    if not p:
        return p
    g = content(p)
    if p.coeffs[-1] < 0:
        g = -g
    return Polynomial(tuple(c // g for c in p.coeffs))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd over the rationals, returned as a primitive integer polynomial.

    The leading coefficient is normalized positive (the sign tie-break), so
    the result is deterministic.
    """
    while b:
        a, b = b, divmod_exact(a, b)[1]
    if not a:
        return a
    fracs = _as_fraction_coeffs(a)
    scale = 1
    for c in fracs:
        scale = scale * c.denominator // _int_gcd(scale, c.denominator)
    ints = Polynomial(tuple(int(c * scale) for c in fracs))
    return primitive_part(ints)


def json_ready(c):
    """Coefficient as a JSON-safe value: int, 'p/q' string, or nested list."""
    if isinstance(c, Polynomial):
        return [json_ready(v) for v in c.coeffs]
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return c
