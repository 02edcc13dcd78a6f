"""Dense exact polynomials, and the packing that does their arithmetic.

Coefficients are Python ints or (for bivariate work) nested Polynomial
values.  A Polynomial is a value: it compares, hashes, evaluates and
prints, but has no ring operators.  Callers do the arithmetic on packed
integers instead (`pack_coefficients`): the coefficients are laid out in
fixed-width byte slots of one big integer, its value at 2^(8 * slot_bytes),
so sums, small-scalar shifts and CPython's subquadratic integer multiply
act on every coefficient at once, and the balanced digits of the result
are read back (`unpack_signed`).
"""

from __future__ import annotations

from .record import Record


class Polynomial(Record):
    """Immutable dense polynomial, lowest-degree coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
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

    def evaluate(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_string(self, var: str = "x") -> str:
        """Render lowest degree first, e.g. '1 - 2*x + 3*x^2'; a nested coefficient in q."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            power = "" if j == 0 else (var if j == 1 else f"{var}^{j}")
            if isinstance(c, Polynomial):
                inner = c.to_string("q")
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


ONE = Polynomial((1,))


def pack_coefficients(coeffs, slot_bytes: int) -> int:
    """Value of a sequence of int coefficients at x = 2^(8 * slot_bytes), in linear time.

    The positive and negative parts are laid out byte-wise in two buffers and
    read back as two integers, instead of a Horner loop that shifts an
    ever-growing integer (quadratic time).  A coefficient too wide for the
    slot makes `to_bytes` raise OverflowError; then every r-th coefficient is
    packed at an r-times-wider slot, r large enough for the widest, and the
    r packs are added, each shifted into place.
    """
    zero = bytes(slot_bytes)
    try:
        pos = b"".join([c.to_bytes(slot_bytes, "little") if c > 0 else zero for c in coeffs])
        value = int.from_bytes(pos, "little")
        if any(c < 0 for c in coeffs):
            neg = b"".join([(-c).to_bytes(slot_bytes, "little") if c < 0 else zero for c in coeffs])
            value -= int.from_bytes(neg, "little")
    except OverflowError:
        r = -(-max(map(abs, coeffs)).bit_length() // (8 * slot_bytes))
        return sum(
            pack_coefficients(coeffs[i::r], r * slot_bytes) << (8 * slot_bytes * i)
            for i in range(r)
        )
    return value


def unpack_coefficients(value: int, slot_bytes: int) -> list[int]:
    """Base-2^(8 * slot_bytes) digits of a nonnegative integer, lowest first.

    The inverse of `pack_coefficients` for nonnegative coefficients, in
    linear time: one `to_bytes` and a slice per slot, instead of a loop that
    shifts an ever-shrinking integer (quadratic time).
    """
    slots = -(-value.bit_length() // (8 * slot_bytes))
    raw = value.to_bytes(slots * slot_bytes, "little")
    return [
        int.from_bytes(raw[i:i + slot_bytes], "little")
        for i in range(0, len(raw), slot_bytes)
    ]


def unpack_signed(value: int, slot_bytes: int) -> list[int]:
    """Balanced base-2^(8 * slot_bytes) digits of an integer, lowest first.

    The inverse of `pack_coefficients` when every coefficient lies strictly
    inside (-2^(s-1), 2^(s-1)), s = 8 * slot_bytes: adding 2^(s-1) to every
    slot, one past the top one included, makes each digit nonnegative, so
    `unpack_coefficients` reads them off and the offset is subtracted again.
    Trailing zeros may remain.
    """
    slots = abs(value).bit_length() // (8 * slot_bytes) + 2
    half = 1 << (8 * slot_bytes - 1)
    offset = int.from_bytes(half.to_bytes(slot_bytes, "little") * slots, "little")
    return [d - half for d in unpack_coefficients(value + offset, slot_bytes)]


def json_ready(c):
    """Coefficient as a JSON-safe value: an int, or a nested list for a Polynomial."""
    if isinstance(c, Polynomial):
        return [json_ready(v) for v in c.coeffs]
    return c
