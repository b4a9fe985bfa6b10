"""Exact coefficient fields: the rationals Q and prime fields F_p with p > 3.

Field objects are stateless tags.  Elements are plain Python values
(``Fraction`` over Q, ``int`` in ``[0, p)`` over F_p), so containers such as
polynomials hold raw values and carry one field tag.  Every operation is a
pure function of its arguments; field objects are safe to share.

A binary form (``binform``) stores integer numerators over one denominator
instead of elements.  ``normalize`` puts such a pair in its one canonical
form: over Q a positive denominator in lowest terms with the numerators, over
F_p the residues over 1.  ``parse`` reads "n" or "n/d" into a (numerator,
denominator) pair and ``format`` writes one back, both without a
``Fraction`` over Q unless a coefficient is spelled some other way ("0.5").
``ZZ`` tags integer polynomials: by Gauss's lemma ``binform`` takes a square
root over Q in Z[x].  It is a ring for ``UniPoly``, not a field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index

# "n" and "n/d" in decimal digits, the spellings that ``Rationals.parse``
# reads without a Fraction.
_RATIO = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


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

    def ratio(self, value) -> tuple[int, int]:
        """(numerator, denominator) of a value that ``coerce`` accepts."""
        if type(value) is not int:
            value = self.coerce(value)
        return value.numerator, value.denominator

    def normalize(self, nums, den: int) -> tuple[tuple, int]:
        """The form nums / den as (numerators, positive denominator) with
        gcd(den, nums) = 1."""
        if den == 1:
            return tuple(nums), 1
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        return tuple([n // g for n in nums]), den // g

    def zero(self) -> Fraction:
        return Fraction(0)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

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

    def parse(self, s: str) -> tuple[int, int]:
        """The value of s as (numerator, positive denominator) in lowest
        terms.  Spellings other than "n" and "n/d" ("0.5", " 1e3") go
        through ``Fraction``, which also raises the errors."""
        m = _RATIO.fullmatch(s)
        if m:
            sign, num, den = m.groups()
            n, d = int(num), int(den or 1)
            if d:
                g = gcd(n, d)
                return (-n if sign == "-" else n) // g, d // g
        value = Fraction(s)
        return value.numerator, value.denominator

    def format(self, num, den: int = 1) -> str:
        """num / den as "n" or "n/d" in lowest terms, for den > 0; with
        den = 1, num may be any element."""
        if den != 1:
            g = gcd(num, den)
            num, den = num // g, den // g
            if den != 1:
                return f"{num}/{den}"
        return str(num)


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
        if type(value) is int:
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def ratio(self, value) -> tuple[int, int]:
        """(residue, 1) of a value that ``coerce`` accepts."""
        return self.coerce(value), 1

    def normalize(self, nums, den: int) -> tuple[tuple, int]:
        """The form nums / den as (residues, 1)."""
        p = self.p
        if den == 1:
            return tuple([n % p for n in nums]), 1
        inv = self.inv(den)
        return tuple([n * inv % p for n in nums]), 1

    def zero(self) -> int:
        return 0

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

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

    def parse(self, s: str) -> tuple[int, int]:
        """The value of "n" or "n/d" as (residue, 1)."""
        if "/" in s:
            num, den = s.split("/")
            return int(num) * self.inv(int(den)) % self.p, 1
        return int(s) % self.p, 1

    def format(self, num, den: int = 1) -> str:
        return str(num * self.inv(den) % self.p if den != 1 else num % self.p)


QQ = Rationals()


class Integers:
    """The ring Z, a coefficient tag for ``UniPoly`` and nothing else.

    By Gauss's lemma a square root over Q comes down to one in Z[x] of a
    primitive part (``binform.perfect_square_root``), where
    ``poly.perfect_square_root`` runs with exact division in place of an
    inverse.  Elements are ``int`` values."""

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, Integers)

    def __hash__(self):
        return hash("Z")

    def coerce(self, value) -> int:
        return index(value)

    def is_zero(self, a) -> bool:
        return a == 0

    def sqrt(self, a):
        """The non-negative square root of a, or None."""
        if a < 0:
            return None
        r = isqrt(a)
        return r if r * r == a else None


ZZ = Integers()


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
        return _prime_field(p)
    except FieldError as exc:
        raise FieldError(f"{where}.p: {exc}") from None


@lru_cache(maxsize=64)
def _prime_field(p: int) -> PrimeField:
    """PrimeField(p), built and checked once per p for all decoded documents
    (fields are stateless, so one object serves them all)."""
    return PrimeField(p)


def field_to_json(field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def same_field(a, b):
    if a != b:
        raise FieldError(f"mixed fields: {a!r} and {b!r}")
    return a
