"""Homogeneous binary forms with a declared degree.

A form of degree d stores d+1 coefficients, index i holding the coefficient
of x^(d-i) y^i (descending in x).  Zero coefficients are allowed anywhere,
including both ends: the declared degree is part of the data, so a form can
vanish at (1:0) to any multiplicity.  The point (1:0) is always handled
through the homogeneous representation, never by a separate flag.
"""

from __future__ import annotations

from . import poly
from .fields import same_field
from .poly import PolyError, UniPoly


class BinForm:
    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree: int, coeffs):
        if degree < 0:
            raise PolyError("negative degree")
        cs = [field.coerce(c) for c in coeffs]
        if len(cs) != degree + 1:
            raise PolyError(
                f"degree-{degree} form needs {degree + 1} coefficients, got {len(cs)}"
            )
        self.field = field
        self.degree = degree
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field, degree: int):
        return cls(field, degree, [field.zero()] * (degree + 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, 0, [c])

    @classmethod
    def monomial(cls, field, degree: int, x_power: int, c=1):
        """c * x^x_power * y^(degree - x_power)."""
        cs = [field.zero()] * (degree + 1)
        cs[degree - x_power] = field.coerce(c)
        return cls(field, degree, cs)

    @property
    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.degree, self.coeffs))

    def __repr__(self):
        F = self.field
        d = self.degree
        terms = []
        for i, c in enumerate(self.coeffs):
            if F.is_zero(c):
                continue
            terms.append(f"{F.format(c)}*x^{d - i}y^{i}")
        return "BinForm(" + (" + ".join(terms) or "0") + f"; deg {d})"

    def __add__(self, other):
        F = same_field(self.field, other.field)
        if self.degree != other.degree:
            raise PolyError("adding forms of different degrees")
        return BinForm(F, self.degree, [F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinForm(self.field, self.degree, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = same_field(self.field, other.field)
        d = self.degree + other.degree
        out = [F.zero()] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return BinForm(F, d, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return BinForm(F, self.degree, [F.mul(a, c) for a in self.coeffs])

    def __pow__(self, n: int):
        out = BinForm.constant(self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x0, y0):
        F = self.field
        x0, y0 = F.coerce(x0), F.coerce(y0)
        # Horner in x with an accumulated power of y.
        acc = F.zero()
        yp = F.one()
        for i, c in enumerate(self.coeffs):
            acc = F.add(F.mul(acc, x0), F.mul(c, yp))
            if i < self.degree:
                yp = F.mul(yp, y0)
        return acc

    def y_multiplicity(self) -> int:
        """Multiplicity of the root (1:0), i.e. the power of y dividing the form."""
        if self.is_zero:
            raise PolyError("zero form")
        m = 0
        while self.field.is_zero(self.coeffs[m]):
            m += 1
        return m

    def dehomogenize(self) -> UniPoly:
        """F(x, 1) as a univariate polynomial in x."""
        return UniPoly(self.field, list(reversed(self.coeffs)))

    @classmethod
    def homogenize(cls, p: UniPoly, degree: int):
        """y^(degree - deg p) * p(x/y) * y^(deg p): the degree-d form with F(x,1) = p."""
        if p.degree > degree:
            raise PolyError(f"cannot homogenize degree-{p.degree} poly to degree {degree}")
        F = p.field
        cs = [F.zero()] * (degree + 1)
        for i, c in enumerate(p.coeffs):
            cs[degree - i] = c
        return cls(F, degree, cs)

    def divexact(self, other: "BinForm") -> "BinForm":
        """Exact quotient self / other; raises PolyError when not divisible."""
        F = same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero form")
        if self.is_zero:
            return BinForm.zero(F, max(self.degree - other.degree, 0))
        m_num, m_den = self.y_multiplicity(), other.y_multiplicity()
        if m_num < m_den:
            raise PolyError("not divisible (multiplicity at (1:0))")
        a, b = self.dehomogenize(), other.dehomogenize()
        q, r = a.divmod(b)
        if not r.is_zero:
            raise PolyError("not divisible")
        d = self.degree - other.degree
        if q.degree > d:
            raise PolyError("not divisible (degree bookkeeping)")
        return BinForm.homogenize(q, d)


def pad(form: BinForm, degree: int) -> BinForm:
    """Embed a form of degree <= d into the degree-d coefficient space, by
    the power of y that keeps its affine chart F(x, 1)."""
    if form.degree == degree:
        return form
    if form.degree > degree:
        raise PolyError(f"form degree {form.degree} exceeds {degree}")
    return BinForm.homogenize(form.dehomogenize(), degree)


def gcd(f: BinForm, g: BinForm) -> BinForm:
    """Monic-normalized gcd of two forms, of exact degree (no zero padding).

    gcd(0, g) = g.  The (1:0) root is carried by the shared power of y.
    """
    same_field(f.field, g.field)
    if f.is_zero:
        return _normalize(g)
    if g.is_zero:
        return _normalize(f)
    m = min(f.y_multiplicity(), g.y_multiplicity())
    d = poly.gcd(f.dehomogenize(), g.dehomogenize())
    return BinForm.homogenize(d, d.degree + m)


def _normalize(f: BinForm) -> BinForm:
    if f.is_zero:
        return f
    lead = next(c for c in f.coeffs if not f.field.is_zero(c))
    return f.scale(f.field.inv(lead))


def is_squarefree(f: BinForm) -> bool:
    """No repeated projective root over the algebraic closure, (1:0) included.

    Checked on the affine chart plus multiplicity bookkeeping at (1:0); this
    stays correct even when the characteristic divides the degree, where the
    gcd-of-partials criterion breaks down.
    """
    if f.is_zero:
        raise PolyError("squarefree test on the zero form")
    if f.degree == 0:
        return True
    m = f.y_multiplicity()
    if m > 1:
        return False
    aff = f.dehomogenize()
    if aff.degree <= 0:
        return True
    return poly.is_squarefree(aff)


def perfect_square_root(f: BinForm):
    """g with g*g == f as forms (degrees included), or None."""
    if f.is_zero:
        raise PolyError("square-root of the zero form")
    if f.degree % 2 == 1:
        return None
    m = f.y_multiplicity()
    if m % 2 == 1:
        return None
    aff = f.dehomogenize()
    g = poly.perfect_square_root(aff)
    if g is None:
        return None
    return BinForm.homogenize(g, f.degree // 2)


def roots_fp(f: BinForm) -> dict[tuple[int, int], int]:
    """Projective F_p roots with multiplicities, (1:0) included."""
    if f.is_zero:
        raise PolyError("zero form")
    out = {}
    m = f.y_multiplicity()
    if m:
        out[(1, 0)] = m
    for r, k in poly.roots_fp(f.dehomogenize()).items():
        out[(r, 1)] = k
    return out


def strip_support(f: BinForm, s: BinForm) -> BinForm:
    """Remove from f every factor whose roots lie in the support of s."""
    if f.is_zero:
        raise PolyError("strip_support on the zero form")
    out = f
    while True:
        c = gcd(out, s)
        if c.degree == 0:
            return out
        out = out.divexact(c)


def part_supported(f: BinForm, s: BinForm) -> int:
    """Total multiplicity of f at the support of s (a degree count)."""
    return f.degree - strip_support(f, s).degree
