import json
import random
from fractions import Fraction

import pytest

from cubesquare import binform, families, fibration, jsonio
from cubesquare import poly as upoly
from cubesquare.binform import BinForm
from cubesquare.fibration import FiberPoint, FibrationError, Section, WModel
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import UniPoly
from test_cli import DOUBLED_SECTION_INPUT

F1009 = PrimeField(1009)
F11 = PrimeField(11)
F5 = PrimeField(5)


def membership_model(field=QQ):
    a = BinForm.monomial(field, 4, 4, 3)  # 3 x^4
    b = BinForm.monomial(field, 6, 0, 2)  # 2 y^6
    return WModel(a, b)


def test_discriminant_locus_membership_point():
    w = membership_model()
    delta = w.discriminant_locus()
    assert delta == BinForm(QQ, 12, [108] + [0] * 11 + [108])
    assert fibration.is_nodal_twelve(w)
    assert fibration.kodaira_label(w) == "I1^12"


def test_is_nodal_twelve_counterexamples():
    w = WModel(BinForm.zero(QQ, 4), BinForm.monomial(QQ, 6, 0, 1))
    assert not fibration.is_nodal_twelve(w)
    # g^2 proportional to f^3 degenerates: (a, b) = (3 s^4, 2 s^6)
    w2 = WModel(BinForm.monomial(QQ, 4, 4, 3), BinForm.monomial(QQ, 6, 6, 2))
    assert not fibration.is_nodal_twelve(w2)


@pytest.mark.parametrize("field", [PrimeField(7), F1009, QQ], ids=["F7", "F1009", "Q"])
def test_squarefree_discriminant_rules_out_a_common_root(field):
    # A root shared by a and b is a double root of 4 a^3 + 27 b^2, so a model
    # with a planted common root is not nodal and a nodal model has
    # gcd(a, b) = 1; is_nodal_twelve relies on this instead of checking it.
    rng = random.Random(12)

    def form(degree):
        return BinForm(field, degree, [rng.randrange(-9, 10) for _ in range(degree + 1)])

    planted = nodal = 0
    while planted < 40 or nodal < 40:
        line = form(1)
        if line.is_zero:
            continue
        w = WModel(line * form(3), line * form(5))
        assert not w.nodal
        planted += 1
        w = WModel(form(4), form(6))
        if w.nodal:
            assert binform.gcd(w.a, w.b).degree == 0
            nodal += 1


def test_model_rejects_identically_zero_discriminant():
    with pytest.raises(FibrationError):
        WModel(BinForm.zero(QQ, 4), BinForm.zero(QQ, 6))


def test_two_torsion_trigonal():
    w = membership_model()
    fam = fibration.two_torsion_trigonal(w)
    assert fam.profile == "E"
    assert fam.q[2] == w.a and fam.q[3] == w.b
    assert families.delta12_cubic(fam) == w.discriminant_locus()


def test_cubic_disc_identity_100_random():
    # disc_X(X^3 + aX + b) = -(4a^3 + 27b^2) as an exact identity of forms:
    # both sides have degree 12, so equality at 13 points is equality.
    rng = random.Random(0)
    samples = [(Fraction(t), Fraction(1)) for t in range(12)] + [(Fraction(1), Fraction(0))]
    for _ in range(100):
        a = BinForm(QQ, 4, [rng.randint(-5, 5) for _ in range(5)])
        b = BinForm(QQ, 6, [rng.randint(-5, 5) for _ in range(7)])
        delta = (a ** 3).scale(4) + (b * b).scale(27)
        for x0, y0 in samples:
            cubic = UniPoly(QQ, [b(x0, y0), a(x0, y0), 0, 1])
            assert upoly.discriminant(cubic) == -delta(x0, y0)


def test_branch_points_at_nodal_fibers():
    rng = random.Random(1)
    w = fibration.random_nodal_model(F1009, rng)
    fam = fibration.two_torsion_trigonal(w)
    droots = binform.roots_fp(w.discriminant_locus())
    for at, mult in droots.items():
        assert mult == 1
        cubic = fam.specialize(*at)
        g = upoly.gcd(cubic, cubic.derivative())
        assert g.degree == 1  # one double X-root, never a triple root
    # away from the nodal points the fiber cubic is squarefree
    count = 0
    for u in range(40):
        if (u, 1) in droots:
            continue
        cubic = fam.specialize(u, 1)
        assert upoly.gcd(cubic, cubic.derivative()).degree == 0
        count += 1
    assert count > 30


def test_make_with_section_examples():
    a = BinForm(QQ, 4, [1, 0, 0, 0, 1])
    w, s = fibration.make_with_section(
        UniPoly.zero(QQ), UniPoly(QQ, [0, 0, 0, 1]), a
    )
    # b = y0^2 - x0^3 - a x0 = t^6
    assert w.b == BinForm.monomial(QQ, 6, 6)
    assert fibration.verify_section(w, s)
    assert s.contact_with_zero == 0

    with pytest.raises(FibrationError):
        # x0 = t^2, y0 = t^3, a = 0 gives b = 0 and a = 0: discriminant 0
        fibration.make_with_section(
            UniPoly(QQ, [0, 0, 1]), UniPoly(QQ, [0, 0, 0, 1]), BinForm.zero(QQ, 4)
        )

    w3, s3 = fibration.make_with_section(
        UniPoly(QQ, [1]),
        UniPoly(QQ, [0, 0, 0, 1]),
        BinForm.monomial(QQ, 4, 4),  # a = t^4 in the affine chart
    )
    assert fibration.verify_section(w3, s3)


def test_verify_section_rejects_perturbation():
    rng = random.Random(2)
    w, s = fibration.random_planted_model(F1009, rng)
    assert fibration.verify_section(w, s)
    bumped = Section(
        s.x_num, s.x_den_sqrt, s.y_num + BinForm.monomial(F1009, 3, 0)
    )
    assert not fibration.verify_section(w, bumped)
    assert fibration.verify_section(w, Section.zero(F1009))


def test_halving_quartic_constant_example():
    # Y^2 = X^3 + 1, S = (2, 3): Phi = X^4 - 8X^3 - 8X - 8
    w, s = fibration.make_with_section(
        UniPoly(QQ, [2]), UniPoly(QQ, [3]), BinForm.zero(QQ, 4)
    )
    fam = fibration.halving_quartic(w, s)
    phi = fam.specialize(1, 1)
    assert phi == UniPoly(QQ, [-8, -8, 0, -8, 1])


def test_halving_quartic_guards():
    w = membership_model()
    with pytest.raises(FibrationError):
        fibration.halving_quartic(w, Section.zero(QQ))
    # a two-torsion section: y identically zero
    w2, _ = fibration.make_with_section(
        UniPoly(QQ, [2]), UniPoly(QQ, [3]), BinForm.zero(QQ, 4)
    )
    two_tor = Section(
        BinForm.monomial(QQ, 2, 0, -1), BinForm.constant(QQ, 1), BinForm.zero(QQ, 3)
    )
    if fibration.verify_section(w2, two_tor):
        with pytest.raises(FibrationError):
            fibration.halving_quartic(w2, two_tor)


def test_halving_scan_oracle_small_field():
    # over F11 with the curve Y^2 = X^3 + 4: pick S by scan, order > 2
    w, s = fibration.make_with_section(
        UniPoly.zero(F11), UniPoly(F11, [5]), BinForm.monomial(F11, 4, 2, 1)
    )
    assert fibration.verify_section(w, s)
    fam = fibration.halving_quartic(w, s)
    checked = 0
    for u in range(11):
        at = (u, 1)
        try:
            fibration.specialize_fiber(w, at)
        except FibrationError:
            continue
        value = fibration.section_value(s, at)
        if value.infinite or value.y == 0:
            continue
        brute = fibration.halving_set_bruteforce(w, s, at)
        assert brute == fibration.halving_roots_fp(w, fam, at)
        checked += 1
    assert checked >= 5


def test_halving_family_discriminant_divisible():
    rng = random.Random(3)
    for _ in range(5):
        w, s = fibration.random_planted_model(F1009, rng)
        fam = fibration.halving_quartic(w, s)
        quotient = families.delta12_quartic(fam).divexact(w.discriminant_locus())
        assert quotient.degree == 12


def test_halving_extraneous_factor_is_a_square():
    # empirical structure of the extraneous factor: the four-section has
    # genus 3 and exactly 12 simple branch points (the nodal fibers), so
    # every further vanishing of the family discriminant has even
    # multiplicity; observed as an exact perfect square on all probes,
    # including a section with a nontrivial denominator
    rng = random.Random(13)
    for _ in range(5):
        w, s = fibration.random_planted_model(F1009, rng)
        fam = fibration.halving_quartic(w, s)
        quotient = families.delta12_quartic(fam).divexact(w.discriminant_locus())
        assert binform.perfect_square_root(quotient) is not None
    doc = json.loads(DOUBLED_SECTION_INPUT)
    w = jsonio.model_from_json(doc["model"])
    s2 = jsonio.section_from_json(doc["section"], model=w)
    quotient = families.delta12_quartic(
        fibration.halving_quartic(w, s2)
    ).divexact(w.discriminant_locus())
    assert quotient.degree == 48
    assert binform.perfect_square_root(quotient) is not None


def test_fiber_group_law_basics():
    curve = fibration.FiberCurve(F5, 0, 1)  # Y^2 = X^3 + 1 over F5
    pts = curve.points()
    assert len(pts) == 6  # including the point at infinity
    o = FiberPoint.infinity()
    for pt in pts:
        assert curve.add(pt, o) == pt
        assert curve.add(pt, curve.neg(pt)) == o
    # associativity samples
    rng = random.Random(4)
    for _ in range(20):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))


def test_fiber_group_law_rejects_singular():
    with pytest.raises(FibrationError):
        fibration.FiberCurve(F5, 0, 0)


def test_height_pairing_requires_nodal():
    w = WModel(BinForm.zero(QQ, 4), BinForm.monomial(QQ, 6, 0, 1))
    with pytest.raises(FibrationError):
        fibration.height_pairing(w, Section.zero(QQ))
    w, s = fibration.random_planted_model(F1009, random.Random(7))
    assert fibration.height_pairing(w, s) == 2
    assert fibration.height_pairing(w, Section.zero(F1009)) == 0


def test_nodal_implies_ab_coprime():
    rng = random.Random(8)
    for _ in range(20):
        w = fibration.random_nodal_model(F1009, rng)
        assert binform.gcd(w.a, w.b).degree == 0


def test_fibration_report():
    report = fibration.fibration_report(membership_model(F1009))
    assert report["in_A"] is True
    assert report["kodaira"] == "I1^12"
    assert len(report["nodal_points_fp"]) >= 1


def test_model_facts_match_the_decomposition_point():
    # The Weierstrass point (a, b) has degree-12 form 4 a^3 + 27 b^2 = delta,
    # so its validity is the model's nodal verdict.
    F7 = PrimeField(7)
    rng = random.Random(4)
    kinds = set()
    for _ in range(200):
        a = BinForm(F7, 4, [rng.randrange(7) for _ in range(5)])
        b = BinForm(F7, 6, [rng.randrange(7) for _ in range(7)])
        try:
            w = WModel(a, b)
        except FibrationError:
            continue
        assert w.delta == w.discriminant_locus()
        assert w.nodal == fibration.is_nodal_twelve(w)
        assert families.to_b_point(w.a, w.b).is_valid() == fibration.is_nodal_twelve(w)
        kinds.add(w.nodal)
    assert kinds == {True, False}


def test_section_records_its_model():
    w, s = fibration.random_planted_model(F1009, random.Random(3))
    assert s.model is w
    bare = Section(s.x_num, s.x_den_sqrt, s.y_num)
    assert bare.model is None and fibration.verify_section(w, bare)
    bumped = s.y_num + BinForm.monomial(F1009, s.y_num.degree, 0)
    with pytest.raises(FibrationError):
        Section(s.x_num, s.x_den_sqrt, bumped, model=w)
    other, _ = fibration.random_planted_model(F1009, random.Random(4))
    with pytest.raises(FibrationError):
        fibration.halving_quartic(other, s)
