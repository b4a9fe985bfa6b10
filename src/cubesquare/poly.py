"""Dense univariate polynomials over an exact field.

Coefficients are stored in ascending degree with trailing zeros trimmed.
Resultants over Q run fraction-free (Bareiss elimination of the Sylvester
matrix over Z); over F_p a Euclidean remainder recursion is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import PrimeField, same_field


class PolyError(ValueError):
    pass


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
        F = same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero()] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.zero()] * (n - len(other.coeffs))
        return UniPoly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = same_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return UniPoly(F, [F.mul(a, c) for a in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        out = UniPoly.const(self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int):
        """Multiply by x**k."""
        if self.is_zero or k == 0:
            return self
        return UniPoly(self.field, [self.field.zero()] * k + list(self.coeffs))

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
            c = F.mul(r[-1], inv_lc)
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] = F.sub(r[k + i], F.mul(c, b))
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
        F = self.field
        return UniPoly(F, [F.mul(F.coerce(i), c) for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x0):
        F = self.field
        x0 = F.coerce(x0)
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x0), c)
        return acc


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd."""
    same_field(f.field, g.field)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic() if not f.is_zero else f


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    """Sylvester matrix of integer coefficient lists (ascending degree)."""
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    frow = list(reversed(f))
    grow = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + frow + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grow + [0] * (n - dg - 1 - i))
    return rows


def _resultant_field(f: UniPoly, g: UniPoly):
    """Euclidean resultant recursion, valid over any exact field."""
    F = f.field
    res = F.one()
    while True:
        df, dg = f.degree, g.degree
        if dg == 0:
            return F.mul(res, pow_field(F, g.coeffs[0], df))
        r = f % g
        if r.is_zero:
            return F.zero()
        dr = r.degree
        # Res(f,g) = (-1)^(df dg) lc(g)^(df-dr) Res(g,r)
        if (df * dg) % 2 == 1:
            res = F.neg(res)
        res = F.mul(res, pow_field(F, g.lc(), df - dr))
        f, g = g, r


def pow_field(F, a, n: int):
    out = F.one()
    for _ in range(n):
        out = F.mul(out, a)
    return out


def resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) = lc(f)^deg(g) * prod g(a_i) over the roots a_i of f.

    Fraction-free over Q (Bareiss on the Sylvester matrix after clearing
    denominators); Euclidean remainders over F_p.
    """
    F = same_field(f.field, g.field)
    if f.is_zero or g.is_zero:
        raise PolyError("resultant of a zero polynomial")
    if f.degree == 0:
        return pow_field(F, f.coeffs[0], g.degree)
    if g.degree == 0:
        return pow_field(F, g.coeffs[0], f.degree)
    if F.kind == "Fp":
        return _resultant_field(f, g)
    # Over Q: Res(cf*F0, cg*G0) = cf^deg(g) cg^deg(f) Res(F0, G0).
    def clear(p):
        den = 1
        for c in p.coeffs:
            den = math.lcm(den, c.denominator)
        return [int(c * den) for c in p.coeffs], den

    fz, df_den = clear(f)
    gz, dg_den = clear(g)
    det = _bareiss_det(_sylvester(fz, gz))
    return Fraction(det) / (Fraction(df_den) ** g.degree * Fraction(dg_den) ** f.degree)


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
