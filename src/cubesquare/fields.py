"""Exact coefficient fields: the rationals Q and prime fields F_p with p > 3.

Field objects are stateless tags.  Elements are plain Python values
(``Fraction`` over Q, ``int`` in ``[0, p)`` over F_p), so containers such as
polynomials hold raw values and carry one field tag.  Every operation is a
pure function of its arguments; field objects are safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class FieldError(ValueError):
    """Bad field construction or an operation on mismatched fields."""


# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24,
# which covers the supported range p < 2**62.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 2**62


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**62."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q.  Elements are ``Fraction`` values."""

    kind = "Q"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def coerce(self, value) -> Fraction:
        return value if type(value) is Fraction else Fraction(value)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def sqrt(self, a):
        """Canonical square root (the non-negative one), or None."""
        a = Fraction(a)
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


class PrimeField:
    """The field F_p for a prime 3 < p < 2**62.  Elements are ints in [0, p).

    Characteristics 2 and 3 are rejected: every formula in this package
    divides by 2 or 3 somewhere (duplication law, the u-invariants, the
    108-rescaling between the two cube-plus-square normalizations).
    """

    kind = "Fp"

    def __init__(self, p: int):
        p = int(p)
        if p <= 3:
            raise FieldError(f"characteristic must exceed 3, got {p}")
        if p >= MAX_PRIME:
            raise FieldError(f"p too large (need p < 2**62), got {p}")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def coerce(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def legendre(self, a) -> int:
        """1 for a nonzero square, -1 for a non-square, 0 for zero."""
        a %= self.p
        if a == 0:
            return 0
        t = pow(a, (self.p - 1) // 2, self.p)
        return 1 if t == 1 else -1

    def sqrt(self, a):
        """Canonical square root (smaller of the two as an int in [0,p)), or None."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            r = self._tonelli(a)
        return min(r, p - r)

    def _tonelli(self, a: int) -> int:
        p = self.p
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.legendre(z) != -1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            t = t * b % p * b % p
            c = b * b % p
            m = i
        return r

    def parse(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def format(self, a) -> str:
        return str(a % self.p)


QQ = Rationals()


def field_from_json(obj: dict, where: str = "field"):
    """Decode {"kind": "Q"} or {"kind": "Fp", "p": ...}; ``p`` is an integer
    or a decimal string.  Malformed documents raise FieldError naming ``where``."""
    if not isinstance(obj, dict):
        raise FieldError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "Q":
        return QQ
    if kind != "Fp":
        raise FieldError(f"{where}.kind: unknown field kind {kind!r}")
    if "p" not in obj:
        raise FieldError(f"{where}: missing field 'p'")
    p = obj["p"]
    if isinstance(p, str):
        try:
            p = int(p)
        except ValueError:
            raise FieldError(f"{where}.p: not a decimal integer: {obj['p']!r}") from None
    elif isinstance(p, bool) or not isinstance(p, int):
        raise FieldError(f"{where}.p: expected an integer, got {type(p).__name__}")
    try:
        return PrimeField(p)
    except FieldError as exc:
        raise FieldError(f"{where}.p: {exc}") from None


def field_to_json(field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def same_field(a, b):
    if a != b:
        raise FieldError(f"mixed fields: {a!r} and {b!r}")
    return a
