"""Homogeneous binary forms with a declared degree.

A form of degree d has d+1 coefficients, index i holding the coefficient
of x^(d-i) y^i (descending in x).  Zero coefficients are allowed anywhere,
including both ends: the declared degree is part of the data, so a form can
vanish at (1:0) to any multiplicity.  The point (1:0) is always handled
through the homogeneous representation, never by a separate flag.

A form stores integer numerators ``nums`` over one denominator ``den``, one
raw-integer representation for both fields.  Over Q, ``den`` is positive and
in lowest terms with the numerators, so a value has one representation and
equal forms compare and hash equal however they were built.  Over F_p the
numerators are residues in [0, p) and ``den`` is 1.  Sums, products, powers
and scalings are integer arithmetic on the numerators (``poly.convolve`` and
``poly.power``), normalized once per result by ``field.normalize``: one gcd
over Q, one reduction mod p over F_p.

Exact division and the square root run on the numerators too.  Over Q
they rest on Gauss's lemma, that the content of a product of integer forms
is the product of their contents.  The quotient of an integer form by a
primitive one is integral when it exists, so the long division ``_quotient``
works over Z and stops at the first step whose leading coefficient does not
divide; over F_p the same loop multiplies by the inverse of a residue.  A
form over Q is a square when its denominator is a square and its numerators
form the square of an integer form, whose root ``poly.perfect_square_root``
matches over Z (``fields.ZZ``).  ``coeffs`` gives the coefficients as field elements
(``Fraction`` over Q) for ``UniPoly``: the gcd and the squarefree fallback
over Q still work on the affine chart in ``Fraction`` arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import poly
from .fields import ZZ, PrimeField, same_field
from .poly import PolyError, UniPoly


class BinForm:
    __slots__ = ("field", "degree", "nums", "den")

    def __init__(self, field, degree: int, coeffs):
        """The form with the given coefficients: field elements, or any
        value that ``field.ratio`` reads (ints, Fractions)."""
        self._fill(field, degree, *_over_lcm([field.ratio(c) for c in coeffs]))

    @classmethod
    def from_ratios(cls, field, degree: int, ratios):
        """The form whose coefficients are num/den for the (num, den) pairs
        ``ratios``, as ``field.parse`` returns them."""
        form = cls.__new__(cls)
        form._fill(field, degree, *_over_lcm(ratios))
        return form

    @classmethod
    def from_numerators(cls, field, degree: int, nums, den: int = 1):
        """The form nums / den, for integer numerators and a nonzero
        denominator in any terms."""
        form = cls.__new__(cls)
        form._fill(field, degree, nums, den)
        return form

    def _fill(self, field, degree, nums, den):
        if degree < 0:
            raise PolyError("negative degree")
        if len(nums) != degree + 1:
            raise PolyError(
                f"degree-{degree} form needs {degree + 1} coefficients, got {len(nums)}"
            )
        self.field = field
        self.degree = degree
        self.nums, self.den = field.normalize(nums, den)

    @classmethod
    def zero(cls, field, degree: int):
        return cls.from_numerators(field, degree, [0] * (degree + 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, 0, [c])

    @classmethod
    def monomial(cls, field, degree: int, x_power: int, c=1):
        """c * x^x_power * y^(degree - x_power)."""
        cs = [0] * (degree + 1)
        cs[degree - x_power] = c
        return cls(field, degree, cs)

    @property
    def coeffs(self):
        """The coefficients as field elements: the residues over F_p, and
        ``Fraction`` values over Q."""
        if isinstance(self.field, PrimeField):
            return self.nums
        return tuple([Fraction(n, self.den) for n in self.nums])

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        return (
            isinstance(other, BinForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.degree, self.nums, self.den))

    def __repr__(self):
        F, d = self.field, self.degree
        terms = [
            f"{F.format(n, self.den)}*x^{d - i}y^{i}" for i, n in enumerate(self.nums) if n
        ]
        return "BinForm(" + (" + ".join(terms) or "0") + f"; deg {d})"

    def _plus(self, other, sign: int):
        F = same_field(self.field, other.field)
        if self.degree != other.degree:
            raise PolyError("adding forms of different degrees")
        a, b = self.den, other.den
        if a == b:
            nums = [x + sign * y for x, y in zip(self.nums, other.nums)]
        else:
            g = math.gcd(a, b)
            ka, kb = b // g, sign * (a // g)
            nums = [x * ka + y * kb for x, y in zip(self.nums, other.nums)]
            a *= ka
        return BinForm.from_numerators(F, self.degree, nums, a)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return BinForm.from_numerators(self.field, self.degree, [-n for n in self.nums], self.den)

    def __mul__(self, other):
        F = same_field(self.field, other.field)
        return BinForm.from_numerators(
            F, self.degree + other.degree, poly.convolve(self.nums, other.nums), self.den * other.den
        )

    def scale(self, c, den: int = 1):
        """c / den times the form, for c a field element or an int."""
        n, d = self.field.ratio(c)
        return BinForm.from_numerators(
            self.field, self.degree, [a * n for a in self.nums], self.den * d * den
        )

    def __pow__(self, n: int):
        return BinForm.from_numerators(
            self.field, self.degree * n, poly.power(self.nums, n), self.den**n
        )

    def __call__(self, x0, y0):
        F = self.field
        x0, y0 = F.coerce(x0), F.coerce(y0)
        # Horner in x with an accumulated power of y.
        acc = 0
        yp = 1
        for c in self.nums:
            acc = acc * x0 + c * yp
            yp *= y0
        return F.coerce(acc) if self.den == 1 else F.coerce(acc) / self.den

    def y_multiplicity(self) -> int:
        """Multiplicity of the root (1:0), i.e. the power of y dividing the form."""
        if self.is_zero:
            raise PolyError("zero form")
        m = 0
        while not self.nums[m]:
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
        cs = [0] * (degree + 1)
        for i, c in enumerate(p.coeffs):
            cs[degree - i] = c
        return cls(p.field, degree, cs)

    def divexact(self, other: "BinForm") -> "BinForm":
        """Exact quotient self / other; raises PolyError when not divisible.

        Over Q, with A and B the numerators and c the content of B,
        self / other = (other.den / (self.den c)) (A / (B / c)), and the
        quotient of A by the primitive B / c is a division over Z."""
        F = same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero form")
        d = self.degree - other.degree
        if self.is_zero:
            return BinForm.zero(F, max(d, 0))
        m_num, m_den = self.y_multiplicity(), other.y_multiplicity()
        if m_num < m_den:
            raise PolyError("not divisible (multiplicity at (1:0))")
        p = F.p if isinstance(F, PrimeField) else 0
        b = other.nums[m_den:]
        c = 1 if p else math.gcd(*b)
        q = _quotient(self.nums[m_num:], [x // c for x in b], p)
        if q is None:
            raise PolyError("not divisible")
        shift = [0] * (m_num - m_den)
        return BinForm.from_numerators(F, d, shift + [x * other.den for x in q], self.den * c)


def _over_lcm(ratios):
    """(nums, den): the pairs (num, den) over their least common denominator."""
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _quotient(a, b, p):
    """The quotient of a by b, descending numerators with a[0] and b[0]
    nonzero, or None when b does not divide a.

    Over Z (p = 0), b is primitive, so by Gauss's lemma the quotient is
    integral if it exists: a step whose leading coefficient b[0] does not
    divide ends the division.  Over F_p each step multiplies by the inverse
    of b[0]."""
    n = len(a) - len(b)
    if n < 0:
        return None
    inv = pow(b[0], -1, p) if p else None
    lead, rest, width = b[0], b[1:], len(b)
    r = list(a)
    q = []
    for i in range(n + 1):
        if p:
            c = r[i] * inv % p
        else:
            c, rem = divmod(r[i], lead)
            if rem:
                return None
        q.append(c)
        if c:
            k = i + width
            r[i + 1 : k] = [x - c * y for x, y in zip(r[i + 1 : k], rest)]
    tail = r[n + 1 :]
    if any(x % p for x in tail) if p else any(tail):
        return None
    return q


def pad(form: BinForm, degree: int) -> BinForm:
    """Embed a form of degree <= d into the degree-d coefficient space, by
    the power of y that keeps its affine chart F(x, 1)."""
    if form.degree == degree:
        return form
    if form.degree > degree:
        raise PolyError(f"form degree {form.degree} exceeds {degree}")
    shift = [0] * (degree - form.degree)
    return BinForm.from_numerators(form.field, degree, shift + list(form.nums), form.den)


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
    lead = next(n for n in f.nums if n)
    return f.scale(f.den, lead)


# The prime of the squarefree certificate over Q (see ``is_squarefree``).
CERTIFICATE_PRIME = 2**31 - 1
_CERTIFICATE_FIELD = PrimeField(CERTIFICATE_PRIME)


def is_squarefree(f: BinForm) -> bool:
    """No repeated projective root over the algebraic closure, (1:0) included.

    Over Q the form is first reduced modulo ``CERTIFICATE_PRIME`` = P.  If P
    divides no denominator and the reduction is squarefree as a form of the
    same declared degree, f is squarefree.  The reason: a repeated root of f
    is a repeated factor h^2 over Q, since Q is perfect, and by Gauss's lemma
    f = c h^2 k with h, k primitive integer forms and c the content of f.
    When f mod P is not zero, P does not divide c, so h mod P, a form of the
    same positive degree, is a repeated factor of the reduction.  In every
    other case (P divides a denominator, f vanishes mod P, or the reduction
    has a repeated root) the exact gcd decides; it stays the reference.
    """
    if f.is_zero:
        raise PolyError("squarefree test on the zero form")
    if not isinstance(f.field, PrimeField) and _squarefree_mod_certificate_prime(f):
        return True
    return _squarefree_by_gcd(f)


def _squarefree_mod_certificate_prime(f: BinForm) -> bool:
    """True when the reduction of f over Q proves it squarefree; False
    decides nothing.  The reduction is n * den^-1 mod P, once per form."""
    try:
        reduced = BinForm.from_numerators(_CERTIFICATE_FIELD, f.degree, f.nums, f.den)
    except ZeroDivisionError:  # the prime divides a denominator
        return False
    return not reduced.is_zero and _squarefree_by_gcd(reduced)


def _squarefree_by_gcd(f: BinForm) -> bool:
    """The exact test on a nonzero form: the multiplicity at (1:0) plus the
    gcd of the affine chart with its derivative.

    This stays correct even when the characteristic divides the degree, where
    the gcd-of-partials criterion breaks down.
    """
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
    """g with g*g == f as forms (degrees included), or None.

    The root is ``poly.perfect_square_root`` of the affine chart.  Over Q
    the form is N / den with N an integer form and gcd(den, N) = 1, so it is
    a square exactly when den is the square of an integer and N the square
    of an integer form.  By Gauss's lemma an integer form that is a square
    over Q has an integer root, so the root of N is matched over Z, with no
    ``Fraction``.  Over F_p it runs on the residues."""
    if f.is_zero:
        raise PolyError("square-root of the zero form")
    if f.degree % 2 == 1:
        return None
    m = f.y_multiplicity()
    if m % 2 == 1:
        return None
    F, ring, t = f.field, f.field, 1
    if not isinstance(F, PrimeField):
        ring, t = ZZ, ZZ.sqrt(f.den)
        if t is None:
            return None
    g = poly.perfect_square_root(UniPoly(ring, f.nums[m:][::-1]))
    if g is None:
        return None
    return BinForm.from_numerators(F, f.degree // 2, [0] * (m // 2) + list(g.coeffs[::-1]), t)


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
