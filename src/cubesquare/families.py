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

The discriminant forms are computed in integers, over Q and F_p alike.
Each coefficient form is its integer numerators over one denominator
(``binform``), so D, the least common multiple of those denominators, is
read off the forms.  With lambda = 3D, the weighting (u2, u3) ->
(lambda^2 u2, lambda^3 u3) makes both covariants integer forms U, V, and
4 u2^3 + 27 u3^2 = (4 U^3 + 27 V^2) / lambda^6: the numerators 4 U^3 + 27 V^2
over the denominator lambda^6, normalized once (``weierstrass_discriminant``).
The unweighted covariants ``u_invariants_quartic`` and
``u_invariants_cubic``, with their coefficients 1/3, 8/3 and 2/27, stay as
the reference.

The combination differs from the root-difference-product discriminant by a
global constant per degree whose value is never assumed: it is measured by
``reconcile_with_standard`` and merely reported.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import binform, poly
from .binform import BinForm
from .fields import QQ, same_field
from .poly import PolyError, UniPoly


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
            if q0 != BinForm.constant(self.field, 1):
                raise PolyError("E profile needs q0 = 1")
        self.profile = profile

    @classmethod
    def constants(cls, field, values, profile="free"):
        return cls(*[BinForm.constant(field, v) for v in values], profile=profile)

    def specialize(self, x0, y0) -> UniPoly:
        vals = [qi(x0, y0) for qi in self.q]
        return UniPoly(self.field, list(reversed(vals)))


class Cleared(NamedTuple):
    """lambda^w times a form of weight w over ``field`` (w = 2 for u, 3 for
    v), as raw integer coefficients, descending in x."""

    field: object
    coeffs: list
    lam: int


def _numerators(forms):
    """(D, [D f for f in forms]) with D the least common denominator of the
    forms (1 over F_p), each D f as raw integers."""
    D = math.lcm(*[f.den for f in forms])
    return D, [[n * (D // f.den) for n in f.nums] for f in forms]


def _combine(*terms):
    """The sum of c * seq over (c, seq) pairs of raw sequences of one length."""
    return [sum(c * seq[i] for c, seq in terms) for i in range(len(terms[0][1]))]


def weierstrass_discriminant(u, v) -> BinForm:
    """4 u^3 + 27 v^2: the discriminant form of Y^2 = X^3 + u X + v, a cube
    plus a square.

    ``u`` and ``v`` are forms over one field, or their integer weighting
    (U, V) = (lambda^2 u, lambda^3 v) as ``Cleared`` values with one lambda;
    for forms, lambda is the common denominator of their coefficients.  The
    form is (4 U^3 + 27 V^2) / lambda^6, computed on raw integer sequences with
    one division at the end.
    """
    if isinstance(u, BinForm):
        F = same_field(u.field, v.field)
        lam, (U, V) = _numerators((u, v))
        U, V = [c * lam for c in U], [c * lam * lam for c in V]
    else:
        F, U, V, lam = u.field, u.coeffs, v.coeffs, u.lam
    if 3 * (len(U) - 1) != 2 * (len(V) - 1):
        raise PolyError(f"need 3 deg u = 2 deg v, got degrees {len(U) - 1} and {len(V) - 1}")
    raw = _combine((4, poly.power(U, 3)), (27, poly.convolve(V, V)))
    return BinForm.from_numerators(F, len(raw) - 1, raw, lam**6)


def delta12_quartic(fam: QuarticFamily) -> BinForm:
    """4 u2^3 + 27 u3^2 for the quartic family, in integers.

    With D the common denominator of the p_i and P_i = D p_i, the weighting
    lambda = 3D turns the covariants into integer forms:

        U = 9 D^2 u2 = 9 P1 P3 - 36 P0 P4 - 3 P2^2
        V = 27 D^3 u3 = 27 P1^2 P4 + 27 P0 P3^2 - 72 P0 P2 P4 - 9 P1 P2 P3 + 2 P2^3

    and the form is (4 U^3 + 27 V^2) / (3D)^6.  ``u_invariants_quartic`` is
    the unweighted reference.
    """
    D, (P0, P1, P2, P3, P4) = _numerators(fam.p)
    conv = poly.convolve
    p13, p04, p22 = conv(P1, P3), conv(P0, P4), conv(P2, P2)
    U = _combine((9, p13), (-36, p04), (-3, p22))
    V = _combine(
        (27, conv(conv(P1, P1), P4)),
        (27, conv(P0, conv(P3, P3))),
        (-72, conv(p04, P2)),
        (-9, conv(p13, P2)),
        (2, conv(p22, P2)),
    )
    return weierstrass_discriminant(Cleared(fam.field, U, 3 * D), Cleared(fam.field, V, 3 * D))


def delta12_cubic(fam: CubicFamily) -> BinForm:
    """(4 u2^3 + 27 u3^2) / q0^2, in integers and then by exact division.

    With Q_i = D q_i as in ``delta12_quartic`` and lambda = 3D:

        U = 9 D^2 u2 = 9 Q0 Q2 - 3 Q1^2
        V = 27 D^3 u3 = 27 Q0^2 Q3 - 9 Q0 Q1 Q2 + 2 Q1^3

    The division by q0^2 is exact identically in the coefficients; a
    remainder signals an implementation bug, not bad input.
    ``u_invariants_cubic`` is the unweighted reference.
    """
    q0 = fam.q[0]
    if q0.is_zero:
        raise PolyError("cubic family with q0 = 0")
    D, (Q0, Q1, Q2, Q3) = _numerators(fam.q)
    conv = poly.convolve
    q11 = conv(Q1, Q1)
    U = _combine((9, conv(Q0, Q2)), (-3, q11))
    V = _combine((27, conv(conv(Q0, Q0), Q3)), (-9, conv(conv(Q0, Q1), Q2)), (2, conv(q11, Q1)))
    num = weierstrass_discriminant(Cleared(fam.field, U, 3 * D), Cleared(fam.field, V, 3 * D))
    if num.is_zero:
        return BinForm.zero(fam.field, num.degree - 2 * q0.degree)
    try:
        return num.divexact(q0 * q0)
    except PolyError as exc:
        raise ArithmeticError(f"q0^2 does not divide the cubic's discriminant: {exc}") from exc


def u_invariants_quartic(fam: QuarticFamily):
    """The unweighted reference for the integer covariants of ``delta12_quartic``:
    u2 = p1 p3 - 4 p0 p4 - p2^2/3;
    u3 = p1^2 p4 + p0 p3^2 - 8 p0 p2 p4/3 - p1 p2 p3/3 + 2 p2^3/27."""
    p0, p1, p2, p3, p4 = fam.p
    u2 = p1 * p3 - (p0 * p4).scale(4) - (p2 * p2).scale(1, 3)
    u3 = (
        p1 * p1 * p4
        + p0 * p3 * p3
        - (p0 * p2 * p4).scale(8, 3)
        - (p1 * p2 * p3).scale(1, 3)
        + (p2 * p2 * p2).scale(2, 27)
    )
    return u2, u3


def u_invariants_cubic(fam: CubicFamily):
    """The unweighted reference for the integer covariants of ``delta12_cubic``:
    u2 = q0 q2 - q1^2/3;  u3 = q0^2 q3 - q0 q1 q2/3 + 2 q1^3/27."""
    q0, q1, q2, q3 = fam.q
    u2 = q0 * q2 - (q1 * q1).scale(1, 3)
    u3 = q0 * q0 * q3 - (q0 * q1 * q2).scale(1, 3) + (q1 * q1 * q1).scale(2, 27)
    return u2, u3


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
        if normalization == "weierstrass":
            return BPoint(self.f.scale(3), self.g.scale(2), "weierstrass")
        return BPoint(self.f.scale(1, 3), self.g.scale(1, 2), "monic")

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
