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

Over F_p, the root finder and the squarefree test run on a private core of
raw integers: ascending ``int`` lists reduced mod p, with no field tag and
no ``coerce`` per coefficient.  ``_rem`` reduces once per remainder,
``_gcd`` is monic, and ``_powmod`` packs each residue into one integer
(Kronecker substitution), so that a product of residues is one integer
product.  The F_p roots of f are those of ``_root_part`` = gcd(f, x^p - x),
which equal-degree splitting (Cantor and Zassenhaus, 1981) separates; this
costs O(deg^2 log p) operations on residues, whatever the size of p.  The
squarefree test over F_p is gcd(f, f') on the core; over Q it stays on
``UniPoly``.
"""

from __future__ import annotations

import random
from operator import mul

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
    if isinstance(f.field, PrimeField):
        p = f.field.p
        # f' = 0 when f is a p-th power: then gcd(f, f') = f, not squarefree.
        df = _trim([i * c % p for i, c in enumerate(f.coeffs)][1:])
        return len(_gcd(f.coeffs, df, p)) == 1
    return gcd(f, f.derivative()).degree == 0


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


def distinct_root_count_fp(f: UniPoly) -> int:
    """The number of distinct F_p-rational roots: deg gcd(f, x^p - x)."""
    return len(_root_part(_fp_coeffs(f, "distinct_root_count_fp"), f.field.p)) - 1


def roots_fp(f: UniPoly) -> dict[int, int]:
    """All F_p-rational roots with multiplicities, in ascending order.

    gcd(f, x^p - x) is split by equal-degree splitting seeded with
    ``random.Random(0)``; the roots do not depend on the seed.  Each
    multiplicity is counted by synthetic division."""
    cs = _fp_coeffs(f, "roots_fp")
    p = f.field.p
    out = {}
    for r in sorted(_split(_root_part(cs, p), p, random.Random(0))):
        m = 0
        q, rem = _deflate(cs, r, p)
        while not rem:
            m += 1
            q, rem = _deflate(q, r, p)
        out[r] = m
    return out


def _fp_coeffs(f: UniPoly, name: str) -> tuple[int, ...]:
    if not isinstance(f.field, PrimeField):
        raise PolyError(f"{name} needs an F_p polynomial")
    if f.is_zero:
        raise PolyError("zero polynomial")
    return f.coeffs


# ---------------------------------------------------------------------------
# The raw-integer F_p core.  A polynomial is an ascending sequence of ints
# in [0, p) without trailing zeros, [] being zero; the functions return lists.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _rem(a: list, b: list, p: int) -> list:
    """a mod b, for b nonzero; the remainder is reduced once, at the end."""
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    r = list(a)
    while len(r) > n:
        c = r.pop() * inv % p
        if c:
            k = len(r) - n
            r[k:] = [x - c * y for x, y in zip(r[k:], low)]
    return _trim([x % p for x in r])


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, _rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _powmod(f: list, n: int, p: int, a: int = 0) -> list:
    """(x + a)^n mod f, for f monic of degree d >= 1.

    Kronecker substitution: a residue sum c_i x^i is the one integer
    sum c_i 2^(k i), so a product of residues is one integer product,
    whose k-bit slots are the coefficients.  Each step squares, reads the
    2d - 1 slots mod p and folds them back through the packed table of
    x^i mod f (of (x + a) x^i mod f when the bit of n is set).  The folded
    residue is left unreduced: its coefficients stay below 2 d p^2, so a
    square's stay below k bits."""
    d = len(f) - 1
    k = (4 * d**3 * p**4).bit_length() + 1
    mask = (1 << k) - 1
    shifts = range(0, k * (2 * d - 1), k)
    slots = [1 << s for s in shifts]
    # rows[i] = x^i mod f for i < 2d, as d coefficients.
    rows = [[0] * i + [1] + [0] * (d - 1 - i) for i in range(d)]
    t = [-c % p for c in f[:d]]
    for _ in range(d):
        rows.append(t)
        t = [0] + t
        top = t.pop()
        if top:
            t = [(x - top * c) % p for x, c in zip(t, f)]
    table = slots[:d] + [sum(map(mul, row, slots)) for row in rows[d:]]
    square = table[:-1]
    step = table[1:]
    if a:  # (x + a) x^i = x^(i + 1) + a x^i
        step = [
            sum(map(mul, [(u + a * v) % p for u, v in zip(hi, lo)], slots))
            for lo, hi in zip(rows, rows[1:])
        ]
    r = 1
    for bit in bin(n)[2:]:
        r *= r
        r = sum(map(mul, [(r >> s & mask) % p for s in shifts], step if bit == "1" else square))
    return _trim([(r >> s & mask) % p for s in shifts[:d]])


def _root_part(f: list, p: int) -> list:
    """gcd(f, x^p - x): the monic product of x - r over the roots r of f."""
    f = _gcd(f, [], p)  # f made monic
    if len(f) < 2:
        return [1]
    h = _powmod(f, p, p) + [0, 0]
    h[1] -= 1
    return _gcd(f, _trim([c % p for c in h]), p)


def _split(g: list, p: int, rng: random.Random) -> list[int]:
    """The roots of g, a monic product of distinct linear factors.

    Equal-degree splitting (Cantor and Zassenhaus, 1981): for a random a,
    gcd(g, (x + a)^((p - 1)/2) - 1) is the product of the x - r with r + a a
    nonzero square, a proper factor with probability about 1/2."""
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    while True:
        h = _powmod(g, (p - 1) // 2, p, rng.randrange(p))
        h[0] = (h[0] - 1) % p
        h = _gcd(g, _trim(h), p)
        if 1 < len(h) < len(g):
            roots = _split(h, p, rng)
            for r in roots:  # g / h
                g = _deflate(g, r, p)[0]
            return roots + _split(g, p, rng)


def _deflate(a: list, r: int, p: int) -> tuple[list, int]:
    """(q, a(r)) with a = (x - r) q + a(r), by synthetic division."""
    q = []
    acc = 0
    for c in reversed(a):
        acc = (acc * r + c) % p
        q.append(acc)
    rem = q.pop()
    q.reverse()
    return q, rem
