"""Dense univariate polynomials over an exact field, and the coefficient
arithmetic that ``UniPoly`` and ``binform.BinForm`` share.

``add``, ``convolve`` and ``power`` work on raw coefficient sequences: they
use only ``+`` and ``*`` of the coefficients and never reduce, so over F_p
their results are integers in the right residue class, not always in [0, p).
Both classes reduce once per output coefficient, when their constructor
coerces it into the field.  A convolution is blind to the direction of the
sequences, so it serves ascending ``UniPoly`` and descending ``BinForm``
coefficients alike.

``UniPoly`` stores ascending coefficients with trailing zeros trimmed.
Resultants run the Euclidean remainder recursion over Q and F_p alike.
"""

from __future__ import annotations

from .fields import PrimeField, same_field


class PolyError(ValueError):
    pass


def add(a, b):
    """Coefficientwise a + b; the shorter sequence is padded at its end."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def convolve(a, b):
    """The coefficients of the product of two polynomials, raw."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def power(a, n: int):
    """The coefficients of the n-th power by square-and-multiply, raw;
    the 0-th power is [1]."""
    if n < 0:
        raise PolyError("negative power")
    out = [1]
    while n:
        if n & 1:
            out = convolve(out, a)
        n >>= 1
        if n:
            a = convolve(a, a)
    return out


class UniPoly:
    """A dense univariate polynomial tagged with its coefficient field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def const(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero:
            raise PolyError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        F = self.field
        terms = [
            f"{F.format(c)}*x^{i}" for i, c in enumerate(self.coeffs) if not F.is_zero(c)
        ]
        return "UniPoly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        return UniPoly(same_field(self.field, other.field), add(self.coeffs, other.coeffs))

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return UniPoly(same_field(self.field, other.field), convolve(self.coeffs, other.coeffs))

    def scale(self, c):
        c = self.field.coerce(c)
        return UniPoly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n: int):
        return UniPoly(self.field, power(self.coeffs, n))

    def divmod(self, other):
        F = same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        inv_lc = F.inv(other.lc())
        q = [F.zero()] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = F.coerce(r[-1] * inv_lc)
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
            while r and F.is_zero(r[-1]):
                r.pop()
        return UniPoly(F, q), UniPoly(F, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self):
        return UniPoly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x0):
        F = self.field
        x0 = F.coerce(x0)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return F.coerce(acc)


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd."""
    same_field(f.field, g.field)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic() if not f.is_zero else f


def resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) = lc(f)^deg(g) * prod g(a_i) over the roots a_i of f, by the
    Euclidean remainder recursion."""
    F = same_field(f.field, g.field)
    if f.is_zero or g.is_zero:
        raise PolyError("resultant of a zero polynomial")
    res = 1
    while True:
        df, dg = f.degree, g.degree
        if dg == 0:
            return F.coerce(res * g.coeffs[0] ** df)
        r = f % g
        if r.is_zero:
            return F.zero()
        # Res(f,g) = (-1)^(df dg) lc(g)^(df-dr) Res(g,r)
        if (df * dg) % 2 == 1:
            res = -res
        res = F.coerce(res * g.lc() ** (df - r.degree))
        f, g = g, r


def discriminant(f: UniPoly):
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f): the root-difference-product discriminant."""
    F = f.field
    n = f.degree
    if n < 2:
        raise PolyError("discriminant needs degree >= 2")
    fp = f.derivative()
    if fp.is_zero:
        return F.zero()
    res = resultant(f, fp)
    val = F.div(res, f.lc())
    if (n * (n - 1) // 2) % 2 == 1:
        val = F.neg(val)
    return val


def is_squarefree(f: UniPoly) -> bool:
    """True iff f has no repeated root in the algebraic closure."""
    if f.is_zero:
        raise PolyError("squarefree test on zero")
    if f.degree == 0:
        return True
    fp = f.derivative()
    if fp.is_zero:
        # Only happens in characteristic p: f is a p-th power.
        return False
    return gcd(f, fp).degree == 0


def perfect_square_root(f: UniPoly):
    """Return g with g*g == f exactly, or None.

    Deterministic: lc(g) is the canonical square root of lc(f)
    (non-negative over Q, the smaller residue over F_p).
    """
    if f.is_zero:
        raise PolyError("square-root of zero")
    F = f.field
    n = f.degree
    if n % 2 == 1:
        return None
    k = n // 2
    lead = F.sqrt(f.lc())
    if lead is None:
        return None
    # Match coefficients from the top: desc[j] of f against conv of g.
    desc = list(reversed(f.coeffs))
    gdesc = [lead] + [F.zero()] * k
    inv2l = F.inv(F.mul(F.coerce(2), lead))
    for j in range(1, k + 1):
        acc = desc[j]
        for i in range(1, j):
            acc = F.sub(acc, F.mul(gdesc[i], gdesc[j - i]))
        gdesc[j] = F.mul(acc, inv2l)
    g = UniPoly(F, list(reversed(gdesc)))
    if g * g == f:
        return g
    return None


ROOT_SCAN_BOUND = 10**6


def distinct_root_count_fp(f: UniPoly) -> int:
    """deg gcd(f, x^p - x), with x^p reduced mod f by repeated squaring."""
    F = f.field
    if not isinstance(F, PrimeField):
        raise PolyError("distinct_root_count_fp needs an F_p polynomial")
    if f.is_zero:
        raise PolyError("zero polynomial")
    if f.degree == 0:
        return 0
    x = UniPoly.x(F)
    xp = _powmod(x, F.p, f)
    return gcd(f, xp - x).degree


def _powmod(base: UniPoly, n: int, mod: UniPoly) -> UniPoly:
    out = UniPoly.const(base.field, 1)
    base = base % mod
    while n:
        if n & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        n >>= 1
    return out


def roots_fp(f: UniPoly) -> dict[int, int]:
    """All F_p-rational roots with multiplicities, by full scan (p <= 10**6)."""
    F = f.field
    if not isinstance(F, PrimeField):
        raise PolyError("roots_fp needs an F_p polynomial")
    if F.p > ROOT_SCAN_BOUND:
        raise PolyError(f"p = {F.p} above the scan bound {ROOT_SCAN_BOUND}")
    if f.is_zero:
        raise PolyError("zero polynomial")
    p = F.p
    import numpy as np

    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(f.coeffs):
        acc = (acc * xs + int(c)) % p
    out = {}
    for r in np.nonzero(acc == 0)[0]:
        r = int(r)
        m = 0
        g = f
        while True:
            q, rem = g.divmod(UniPoly(F, [-r, 1]))
            if not rem.is_zero:
                break
            m += 1
            g = q
        out[r] = m
    return out
