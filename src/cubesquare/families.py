"""Quartic and cubic families with binary-form coefficients.

A quartic family p0 a^4 + p1 a^3 b + ... + p4 b^4 (and its cubic analogue)
carries two covariants u2, u3 built from the coefficient forms; the combination
4 u2^3 + 27 u3^2 is a discriminant form of the family.  When the coefficient
degrees sit right this form has degree 12, i.e. it splits as a cube plus a
square by construction, so every family of the right shape lands in the
cube-plus-square locus.

The coefficient degrees of a family must form an arithmetic progression;
that is exactly the condition making u2 and u3 homogeneous.  Profiles:

* quartic ``D``: all deg p_i = 2       (a (4,2)-class on P^1 x P^1)
* quartic ``C``: deg p_i = i           (plane quartic plus a point)
* cubic  ``E``: q0 = 1, deg q_i = 2i   (cubic surface on a quadric cone)

The combination differs from the root-difference-product discriminant by a
global constant per degree whose value is never assumed: it is measured by
``reconcile_with_standard`` and merely reported.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import binform, poly
from .binform import BinForm
from .fields import QQ, same_field
from .poly import PolyError, UniPoly

# Declared coordinate weights of the ambient weighted projective space:
# 3 on each quartic coefficient a0..a4, 2 on each sextic coefficient b0..b6.
# Recorded for reference only.  The torus action that actually preserves
# f^3 + g^2 up to scale is (f, g) -> (lambda^2 f, lambda^3 g), and that is
# the action whose orbits ``locusz`` groups decompositions into.
AMBIENT_COORDINATE_WEIGHTS = (3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2)


def _check_progression(forms, what):
    degs = [f.degree for f in forms]
    steps = {degs[i + 1] - degs[i] for i in range(len(degs) - 1)}
    if len(steps) != 1:
        raise PolyError(
            f"{what} coefficient degrees {degs} must form an arithmetic progression"
        )
    field = forms[0].field
    for f in forms[1:]:
        same_field(field, f.field)
    return degs[0], steps.pop()


class QuarticFamily:
    """Coefficient forms (p0..p4) of a quartic, degrees in arithmetic progression."""

    PROFILES = ("D", "C", "free")

    def __init__(self, p0, p1, p2, p3, p4, profile="free"):
        self.p = (p0, p1, p2, p3, p4)
        self.base_degree, self.step = _check_progression(self.p, "quartic")
        self.field = p0.field
        if profile not in self.PROFILES:
            raise PolyError(f"unknown quartic profile {profile!r}")
        if profile == "D" and (self.base_degree, self.step) != (2, 0):
            raise PolyError("D profile needs all coefficient degrees equal to 2")
        if profile == "C" and (self.base_degree, self.step) != (0, 1):
            raise PolyError("C profile needs deg p_i = i")
        self.profile = profile

    @classmethod
    def constants(cls, field, values, profile="free"):
        return cls(*[BinForm.constant(field, v) for v in values], profile=profile)

    def specialize(self, x0, y0) -> UniPoly:
        """The quartic over the base point (x0:y0), ascending coefficients."""
        vals = [pi(x0, y0) for pi in self.p]
        return UniPoly(self.field, list(reversed(vals)))


class CubicFamily:
    """Coefficient forms (q0..q3) of a cubic, degrees in arithmetic progression."""

    PROFILES = ("E", "free")

    def __init__(self, q0, q1, q2, q3, profile="free"):
        self.q = (q0, q1, q2, q3)
        self.base_degree, self.step = _check_progression(self.q, "cubic")
        self.field = q0.field
        if profile not in self.PROFILES:
            raise PolyError(f"unknown cubic profile {profile!r}")
        if profile == "E":
            if (self.base_degree, self.step) != (0, 2):
                raise PolyError("E profile needs deg q_i = 2i")
            if q0.coeffs != (self.field.one(),):
                raise PolyError("E profile needs q0 = 1")
        self.profile = profile

    @classmethod
    def constants(cls, field, values, profile="free"):
        return cls(*[BinForm.constant(field, v) for v in values], profile=profile)

    def specialize(self, x0, y0) -> UniPoly:
        vals = [qi(x0, y0) for qi in self.q]
        return UniPoly(self.field, list(reversed(vals)))


def u_invariants_quartic(fam: QuarticFamily):
    """u2 = p1 p3 - 4 p0 p4 - p2^2/3;
    u3 = p1^2 p4 + p0 p3^2 - 8 p0 p2 p4/3 - p1 p2 p3/3 + 2 p2^3/27."""
    F = fam.field
    if F.characteristic == 3:
        raise PolyError("u-invariants need 3 invertible")
    p0, p1, p2, p3, p4 = fam.p
    third = F.div(F.one(), F.coerce(3))
    u2 = p1 * p3 - (p0 * p4).scale(4) - (p2 * p2).scale(third)
    u3 = (
        p1 * p1 * p4
        + p0 * p3 * p3
        - (p0 * p2 * p4).scale(F.mul(F.coerce(8), third))
        - (p1 * p2 * p3).scale(third)
        + (p2 * p2 * p2).scale(F.div(F.coerce(2), F.coerce(27)))
    )
    return u2, u3


def weierstrass_discriminant(u: BinForm, v: BinForm) -> BinForm:
    """4 u^3 + 27 v^2: the discriminant form of Y^2 = X^3 + u X + v, a cube
    plus a square."""
    return (u ** 3).scale(4) + (v * v).scale(27)


def delta12_quartic(fam: QuarticFamily) -> BinForm:
    """4 u2^3 + 27 u3^2 for the quartic family."""
    return weierstrass_discriminant(*u_invariants_quartic(fam))


def u_invariants_cubic(fam: CubicFamily):
    """u2 = q0 q2 - q1^2/3;  u3 = q0^2 q3 - q0 q1 q2/3 + 2 q1^3/27."""
    F = fam.field
    if F.characteristic == 3:
        raise PolyError("u-invariants need 3 invertible")
    q0, q1, q2, q3 = fam.q
    third = F.div(F.one(), F.coerce(3))
    u2 = q0 * q2 - (q1 * q1).scale(third)
    u3 = (
        q0 * q0 * q3
        - (q0 * q1 * q2).scale(third)
        + (q1 * q1 * q1).scale(F.div(F.coerce(2), F.coerce(27)))
    )
    return u2, u3


def delta12_cubic(fam: CubicFamily) -> BinForm:
    """(4 u2^3 + 27 u3^2) / q0^2, by exact division.

    The division is exact identically in the coefficients; a remainder
    signals an implementation bug, not bad input.
    """
    q0 = fam.q[0]
    if q0.is_zero:
        raise PolyError("cubic family with q0 = 0")
    num = weierstrass_discriminant(*u_invariants_cubic(fam))
    if num.is_zero:
        return BinForm.zero(fam.field, num.degree - 2 * q0.degree)
    return num.divexact(q0 * q0)


def reconcile_with_standard(probes: int = 50, seed: int = 0):
    """Measure the constants k4, k3 with delta12 = k * standard discriminant.

    Evaluates both routes on random constant families over Q and insists the
    ratio is a single constant per degree; degenerate probes (disc = 0) are
    skipped and redrawn.  Raises if the ratio wobbles.
    """
    rng = random.Random(seed)
    kappas = []
    for name, family, delta12, n in (
        ("quartic", QuarticFamily, delta12_quartic, 5),
        ("cubic", CubicFamily, delta12_cubic, 4),
    ):
        kappa = None
        done = 0
        while done < probes:
            vals = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            if vals[0] == 0:
                continue
            disc = poly.discriminant(UniPoly(QQ, list(reversed(vals))))
            if disc == 0:
                continue
            ratio = delta12(family.constants(QQ, vals)).coeffs[0] / disc
            if kappa is None:
                kappa = ratio
            elif ratio != kappa:
                raise PolyError(f"{name} ratio not constant: {kappa} vs {ratio}")
            done += 1
        kappas.append(kappa)
    return tuple(kappas)


class BPoint:
    """A decomposition point: a degree-4 form f and degree-6 form g.

    Two normalizations name the same projective point:

    * ``monic``:       F = f^3 + g^2
    * ``weierstrass``: F = 4 f^3 + 27 g^2

    with dictionary (f, g) <-> (3f, 2g) and F_w = 108 F_monic.  The point is
    valid when the induced degree-12 form is squarefree; an invalid point is
    built all the same, and ``is_valid`` says so.
    """

    NORMALIZATIONS = ("monic", "weierstrass")

    def __init__(self, f: BinForm, g: BinForm, normalization: str):
        same_field(f.field, g.field)
        if f.degree != 4 or g.degree != 6:
            raise PolyError("need deg f = 4 and deg g = 6")
        if normalization not in self.NORMALIZATIONS:
            raise PolyError(f"unknown normalization {normalization!r}")
        self.f = f
        self.g = g
        self.normalization = normalization

    @property
    def field(self):
        return self.f.field

    def degree12(self) -> BinForm:
        if self.normalization == "monic":
            return self.f ** 3 + self.g * self.g
        return weierstrass_discriminant(self.f, self.g)

    def is_valid(self) -> bool:
        F12 = self.degree12()
        return (not F12.is_zero) and binform.is_squarefree(F12)

    def convert(self, normalization: str) -> "BPoint":
        if normalization == self.normalization:
            return self
        F = self.field
        if normalization == "weierstrass":
            return BPoint(self.f.scale(3), self.g.scale(2), "weierstrass")
        third = F.div(F.one(), F.coerce(3))
        half = F.div(F.one(), F.coerce(2))
        return BPoint(self.f.scale(third), self.g.scale(half), "monic")

    def __eq__(self, other):
        return (
            isinstance(other, BPoint)
            and self.normalization == other.normalization
            and self.f == other.f
            and self.g == other.g
        )

    def __repr__(self):
        return f"BPoint({self.f!r}, {self.g!r}, {self.normalization})"


def to_b_point(u2: BinForm, u3: BinForm) -> BPoint:
    """Package (u2, u3) as a Weierstrass-normalized decomposition point.

    Needs deg u2 <= 4 and deg u3 <= 6 (forms are zero-padded up).
    """
    if u2.degree > 4 or u3.degree > 6:
        raise PolyError("need deg u2 <= 4 and deg u3 <= 6")
    if u2.is_zero and u3.is_zero:
        raise PolyError("zero point")
    return BPoint(binform.pad(u2, 4), binform.pad(u3, 6), "weierstrass")
