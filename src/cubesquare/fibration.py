"""Rational elliptic fibrations Y^2 = X^3 + a X + b over a framed line.

Here a, b are binary forms of degree at most 4 and 6 on the base, X and Y
sections of the weight-2 and weight-3 bundles, and the discriminant form
4 a^3 + 27 b^2 has degree 12.  The fibration has twelve nodal fibers exactly
when that form is squarefree (the homogeneous check covers the fiber over
(1:0)); the generic singular-fiber label is then I1^12.

Sections are stored projectively as x = p/d^2, y = y_num/d^3 with p, d,
y_num binary forms of degrees 2k+2, k, 3k+3 and gcd(p, d) = 1; the zero
section O is a distinguished value.  (S.O) = deg d, so the height of a
section on a twelve-nodal model is <S,S> = 2 + 2 deg d.
"""

from __future__ import annotations

import random

from . import binform, families
from .binform import BinForm
from .families import CubicFamily, QuarticFamily
from .fields import PrimeField, same_field
from .poly import UniPoly
from . import poly as upoly


class FibrationError(ValueError):
    pass


class WModel:
    """Y^2 = X^3 + a(s,t) X + b(s,t) with deg a <= 4, deg b <= 6.

    A model knows two facts about itself, computed once when it is built:
    ``delta``, the discriminant form 4 a^3 + 27 b^2, and ``nodal``, whether
    that form is squarefree (``is_nodal_twelve``).
    """

    __slots__ = ("field", "a", "b", "delta", "nodal")

    def __init__(self, a: BinForm, b: BinForm):
        same_field(a.field, b.field)
        self.a = binform.pad(a, 4)
        self.b = binform.pad(b, 6)
        self.field = a.field
        self.delta = self.discriminant_locus()
        if self.delta.is_zero:
            raise FibrationError("discriminant form vanishes identically")
        self.nodal = is_nodal_twelve(self)

    def discriminant_locus(self) -> BinForm:
        """The degree-12 form 4 a^3 + 27 b^2 (stored as ``delta``)."""
        return families.weierstrass_discriminant(self.a, self.b)

    def __repr__(self):
        return f"WModel(a={self.a!r}, b={self.b!r})"


def is_nodal_twelve(w: WModel) -> bool:
    """True iff the discriminant form is squarefree (twelve nodal fibers).

    Then a and b share no projective root, since a common root would be a
    multiple root of the discriminant; hence every singular fiber is
    multiplicative of type I1.  The tests check this on random models.
    """
    return binform.is_squarefree(w.delta)


def kodaira_label(w: WModel) -> str:
    if w.nodal:
        return "I1^12"
    return "degenerate: discriminant form has a repeated root"


def two_torsion_trigonal(w: WModel) -> CubicFamily:
    """The trigonal two-torsion curve X^3 + a X + b = 0 as a cubic family.

    Its degree-12 discriminant form equals the discriminant locus of the
    fibration, so the triple cover is branched exactly at the nodal fibers.
    """
    F = w.field
    one = BinForm.constant(F, 1)
    zero2 = BinForm.zero(F, 2)
    return CubicFamily(one, zero2, w.a, w.b, profile="E")


class Section:
    """A section of the fibration, or the zero section O (``Section.zero``).

    ``Section(..., model=w)`` checks the equation of ``w`` once and records
    it in ``model``; functions that take a section on ``w`` trust that record
    instead of checking again.
    """

    __slots__ = ("field", "is_zero", "x_num", "x_den_sqrt", "y_num", "model")

    def __init__(self, x_num, x_den_sqrt, y_num, model=None):
        self.is_zero = False
        self.model = None
        same_field(x_num.field, x_den_sqrt.field)
        same_field(x_num.field, y_num.field)
        k = x_den_sqrt.degree
        if x_num.degree != 2 * k + 2 or y_num.degree != 3 * k + 3:
            raise FibrationError(
                f"weights off: deg(x_num)={x_num.degree}, deg(d)={k}, "
                f"deg(y_num)={y_num.degree}"
            )
        if x_den_sqrt.is_zero:
            raise FibrationError("zero denominator")
        if binform.gcd(x_num, x_den_sqrt).degree != 0:
            raise FibrationError("x_num and x_den_sqrt share a root")
        self.field = x_num.field
        self.x_num = x_num
        self.x_den_sqrt = x_den_sqrt
        self.y_num = y_num
        if model is not None:
            if not verify_section(model, self):
                raise FibrationError("section does not lie on the model")
            self.model = model

    @classmethod
    def zero(cls, field=None):
        s = cls.__new__(cls)
        s.is_zero = True
        s.field = field
        s.x_num = s.x_den_sqrt = s.y_num = s.model = None
        return s

    @property
    def contact_with_zero(self) -> int:
        """(S.O) = deg x_den_sqrt."""
        if self.is_zero:
            raise FibrationError("self-contact of O")
        return self.x_den_sqrt.degree

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return (
            self.x_num == other.x_num
            and self.x_den_sqrt == other.x_den_sqrt
            and self.y_num == other.y_num
        )

    def __repr__(self):
        if self.is_zero:
            return "Section(O)"
        return f"Section(x={self.x_num!r}/({self.x_den_sqrt!r})^2)"


def verify_section(w: WModel, s: Section) -> bool:
    """Exact check of y^2 = x^3 + a x + b after clearing denominators: both
    sides are normalized forms, so they are equal when their integer
    numerators and denominators are."""
    if s.is_zero:
        return True
    if s.field != w.field:
        return False
    p, d, y = s.x_num, s.x_den_sqrt, s.y_num
    d2 = d * d
    d4 = d2 * d2
    return y * y == p ** 3 + (w.a * p * d4) + (w.b * d4 * d2)


def _lies_on(w: WModel, s: Section) -> bool:
    """``verify_section``, skipped for a section already verified on w."""
    return s.model is w or verify_section(w, s)


def make_with_section(x0: UniPoly, y0: UniPoly, a: BinForm):
    """Build Y^2 = X^3 + aX + b with b = y0^2 - x0^3 - a x0 and the planted
    polynomial section (x0, y0)."""
    F = a.field
    if x0.degree > 2 or y0.degree > 3:
        raise FibrationError("need deg x0 <= 2 and deg y0 <= 3")
    a4 = binform.pad(a, 4)
    X0 = BinForm.homogenize(x0, 2)
    Y0 = BinForm.homogenize(y0, 3)
    b = Y0 * Y0 - X0 ** 3 - a4 * X0
    w = WModel(a4, b)  # raises when the discriminant form vanishes
    return w, Section(X0, BinForm.constant(F, 1), Y0, model=w)


# ---------------------------------------------------------------------------
# The height pairing.


def height_pairing(w: WModel, s: Section) -> int:
    """The height <S,S> = 2 + 2 (S.O) of a section; <O,O> = 0.

    Requires all twelve fibers nodal (no local correction terms otherwise)
    and a verified section.
    """
    if not w.nodal:
        raise FibrationError("height pairing needs twelve nodal fibers")
    if not _lies_on(w, s):
        raise FibrationError("unverified section in height pairing")
    if s.is_zero:
        return 0
    return 2 + 2 * s.contact_with_zero


# ---------------------------------------------------------------------------
# The halving quartic.


def halving_quartic(w: WModel, s: Section) -> QuarticFamily:
    """The quartic whose fiberwise roots are x(P) for 2P = +-S.

    From the duplication law x(2P) = (X^4 - 2aX^2 - 8bX + a^2) / (4(X^3+aX+b)):
    clearing the section denominator d^2 gives coefficient forms

        (d^2, -4p, -2a d^2, -(8b d^2 + 4 a p), a^2 d^2 - 4 b p)

    of degrees (2k, 2k+2, ..., 2k+8).
    """
    if s.is_zero:
        raise FibrationError("halving the zero section: use two_torsion_trigonal")
    if s.y_num.is_zero:
        raise FibrationError("section is two-torsion on the generic fiber")
    if not _lies_on(w, s):
        raise FibrationError("unverified section")
    p, d = s.x_num, s.x_den_sqrt
    a, b = w.a, w.b
    d2 = d * d
    p0 = d2
    p1 = p.scale(-4)
    p2 = (a * d2).scale(-2)
    p3 = -((b * d2).scale(8) + (a * p).scale(4))
    p4 = a * a * d2 - (b * p).scale(4)
    return QuarticFamily(p0, p1, p2, p3, p4, profile="free")


# ---------------------------------------------------------------------------
# Fiberwise arithmetic over F_p (the oracle substrate).


class FiberPoint:
    """A point of one fiber: affine (x, y) or the point at infinity."""

    __slots__ = ("x", "y", "infinite")

    def __init__(self, x=None, y=None, infinite=False):
        self.infinite = bool(infinite)
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls):
        return cls(infinite=True)

    def __eq__(self, other):
        if not isinstance(other, FiberPoint):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.infinite, self.x, self.y))

    def __repr__(self):
        return "FiberPoint(inf)" if self.infinite else f"FiberPoint({self.x},{self.y})"


def base_points(p: int):
    """All points of P^1(F_p) as normalized (x, y) pairs, (1,0) last."""
    return [(u, 1) for u in range(p)] + [(1, 0)]


class FiberCurve:
    """One smooth fiber y^2 = x^3 + A x + B over F_p."""

    __slots__ = ("field", "A", "B")

    def __init__(self, field: PrimeField, A: int, B: int):
        self.field = field
        self.A = A % field.p
        self.B = B % field.p
        if field.is_zero(4 * pow(self.A, 3, field.p) + 27 * self.B * self.B):
            raise FibrationError("singular fiber")

    def rhs(self, x: int) -> int:
        p = self.field.p
        return (pow(x, 3, p) + self.A * x + self.B) % p

    def points(self) -> list[FiberPoint]:
        """All F_p-rational points, including the point at infinity."""
        p = self.field.p
        sqrt_table = {}
        for r in range(p):
            s = r * r % p
            cur = sqrt_table.get(s)
            if cur is None or min(r, p - r) < cur:
                sqrt_table[s] = min(r, p - r)
        out = [FiberPoint.infinity()]
        for x in range(p):
            s = self.rhs(x)
            r = sqrt_table.get(s)
            if r is None:
                continue
            if r == 0:
                out.append(FiberPoint(x, 0))
            else:
                out.append(FiberPoint(x, r))
                out.append(FiberPoint(x, p - r))
        return out

    def neg(self, pt: FiberPoint) -> FiberPoint:
        if pt.infinite:
            return pt
        return FiberPoint(pt.x, -pt.y % self.field.p)

    def add(self, pt1: FiberPoint, pt2: FiberPoint) -> FiberPoint:
        F = self.field
        p = F.p
        if pt1.infinite:
            return pt2
        if pt2.infinite:
            return pt1
        if pt1.x == pt2.x:
            if (pt1.y + pt2.y) % p == 0:
                return FiberPoint.infinity()
            lam = (3 * pt1.x * pt1.x + self.A) * F.inv(2 * pt1.y) % p
        else:
            lam = (pt2.y - pt1.y) * F.inv(pt2.x - pt1.x) % p
        x3 = (lam * lam - pt1.x - pt2.x) % p
        y3 = (lam * (pt1.x - x3) - pt1.y) % p
        return FiberPoint(x3, y3)

    def double(self, pt: FiberPoint) -> FiberPoint:
        return self.add(pt, pt)


def specialize_fiber(w: WModel, at: tuple[int, int]) -> FiberCurve:
    if not isinstance(w.field, PrimeField):
        raise FibrationError("fiber arithmetic is bound to F_p")
    x0, y0 = at
    return FiberCurve(w.field, w.a(x0, y0), w.b(x0, y0))


def section_value(s: Section, at: tuple[int, int]) -> FiberPoint:
    """The fiberwise value of a section at a base point."""
    if s.is_zero:
        return FiberPoint.infinity()
    F = s.field
    x0, y0 = at
    dv = s.x_den_sqrt(x0, y0)
    if F.is_zero(dv):
        return FiberPoint.infinity()
    inv2 = F.inv(dv * dv)
    x = s.x_num(x0, y0) * inv2 % F.p
    y = s.y_num(x0, y0) * inv2 * F.inv(dv) % F.p
    return FiberPoint(x, y)


def halving_set_bruteforce(w: WModel, s: Section, at: tuple[int, int]) -> set[int]:
    """{x(P) : P rational on the fiber, 2P = +-S(at)} by full point scan."""
    curve = specialize_fiber(w, at)
    target = section_value(s, at)
    if target.infinite:
        raise FibrationError("section passes through O on this fiber")
    targets = {target, curve.neg(target)}
    out = set()
    for pt in curve.points():
        if pt.infinite:
            continue
        if curve.double(pt) in targets:
            out.add(pt.x)
    return out


def halving_roots_fp(w: WModel, fam: QuarticFamily, at: tuple[int, int]) -> set[int]:
    """Rational roots X of the specialized halving quartic whose lifted point
    (X, sqrt(X^3+aX+b)) is rational; these are the x-values the brute-force
    scan can see."""
    F = w.field
    x0, y0 = at
    quartic = fam.specialize(x0, y0)
    curve = specialize_fiber(w, at)
    out = set()
    for r in upoly.roots_fp(quartic):
        if F.legendre(curve.rhs(r)) >= 0:
            out.add(r)
    return out


# ---------------------------------------------------------------------------
# Random model generators (deterministic, for oracles and the CLI selftest).


def random_nodal_model(field: PrimeField, rng: random.Random, tries: int = 200) -> WModel:
    """A random model over F_p with squarefree degree-12 discriminant form."""
    for _ in range(tries):
        a = BinForm(field, 4, [rng.randrange(field.p) for _ in range(5)])
        b = BinForm(field, 6, [rng.randrange(field.p) for _ in range(7)])
        if a.is_zero and b.is_zero:
            continue
        try:
            w = WModel(a, b)
        except FibrationError:
            continue
        if w.nodal:
            return w
    raise FibrationError("could not draw a twelve-nodal model")


def random_planted_model(field: PrimeField, rng: random.Random, tries: int = 400):
    """A random twelve-nodal model with a planted polynomial section of
    height 2 and nonzero generic order greater than 2."""
    for _ in range(tries):
        x0 = UniPoly(field, [rng.randrange(field.p) for _ in range(3)])
        y0 = UniPoly(field, [rng.randrange(field.p) for _ in range(4)])
        a = BinForm(field, 4, [rng.randrange(field.p) for _ in range(5)])
        if y0.is_zero:
            continue
        try:
            w, s = make_with_section(x0, y0, a)
        except FibrationError:
            continue
        if w.nodal:
            return w, s
    raise FibrationError("could not draw a planted twelve-nodal model")


def fibration_report(w: WModel) -> dict:
    """Analysis summary for the CLI: membership, label, F_p nodal points."""
    report = {"in_A": w.nodal, "kodaira": kodaira_label(w)}
    if isinstance(w.field, PrimeField):
        pts = binform.roots_fp(w.delta)
        report["nodal_points_fp"] = sorted(
            [list(pt) + [m] for pt, m in pts.items()]
        )
    return report
