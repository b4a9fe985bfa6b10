import random
from fractions import Fraction

import pytest

from cubesquare import binform
from cubesquare.binform import BinForm
from cubesquare.families import (
    BPoint,
    CubicFamily,
    QuarticFamily,
    delta12_cubic,
    delta12_quartic,
    reconcile_with_standard,
    to_b_point,
    u_invariants_cubic,
    u_invariants_quartic,
    weierstrass_discriminant,
)
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import PolyError, UniPoly, discriminant

F1009 = PrimeField(1009)


def const_quartic(field, values):
    return QuarticFamily.constants(field, values)


def test_u_invariants_quartic_depressed():
    # p_i = (1, 0, 0, p, q): u2 = -4q, u3 = p^2
    for p, q in [(2, 3), (-1, 5), (0, 0), (7, -2)]:
        fam = const_quartic(QQ, [1, 0, 0, p, q])
        u2, u3 = u_invariants_quartic(fam)
        assert u2 == BinForm.constant(QQ, -4 * q)
        assert u3 == BinForm.constant(QQ, p * p)
    fam0 = const_quartic(QQ, [0, 0, 0, 0, 0])
    u2, u3 = u_invariants_quartic(fam0)
    assert u2.is_zero and u3.is_zero


def test_delta12_quartic_depressed():
    for p, q in [(1, 0), (2, 3), (-1, 5)]:
        fam = const_quartic(QQ, [1, 0, 0, p, q])
        val = delta12_quartic(fam)
        assert val == BinForm.constant(QQ, 27 * p**4 - 256 * q**3)


def test_delta12_vs_standard_disc_fixes_kappa4():
    # x^4 + x: the covariant combination gives 27 while the
    # root-difference-product discriminant gives -27.
    fam = const_quartic(QQ, [1, 0, 0, 1, 0])
    assert delta12_quartic(fam) == BinForm.constant(QQ, 27)
    assert discriminant(UniPoly(QQ, [0, 1, 0, 0, 1])) == -27


def test_u_invariants_cubic():
    for p, q in [(2, 3), (-1, 5), (0, 0)]:
        fam = CubicFamily.constants(QQ, [1, 0, p, q])
        u2, u3 = u_invariants_cubic(fam)
        assert u2 == BinForm.constant(QQ, p)
        assert u3 == BinForm.constant(QQ, q)
    u2, u3 = u_invariants_cubic(CubicFamily.constants(QQ, [1, 0, 0, 0]))
    assert u2.is_zero and u3.is_zero


def test_delta12_cubic():
    for p, q in [(2, 3), (-1, 5)]:
        fam = CubicFamily.constants(QQ, [1, 0, p, q])
        assert delta12_cubic(fam) == BinForm.constant(QQ, 4 * p**3 + 27 * q**2)
    # x^3 - x: covariant -4, root-product discriminant +4
    fam = CubicFamily.constants(QQ, [1, 0, -1, 0])
    assert delta12_cubic(fam) == BinForm.constant(QQ, -4)
    assert discriminant(UniPoly(QQ, [0, -1, 0, 1])) == 4
    with pytest.raises(PolyError):
        delta12_cubic(CubicFamily.constants(QQ, [0, 0, 1, 1]))


def test_delta12_cubic_remainder_is_an_internal_error(monkeypatch):
    from cubesquare import families

    # q0 = x + y, so a remainder mod q0^2 is possible.
    fam = CubicFamily(
        BinForm(QQ, 1, [1, 1]),
        BinForm(QQ, 2, [1, 0, 2]),
        BinForm(QQ, 3, [0, 1, 0, -1]),
        BinForm(QQ, 4, [3, 0, 1, 0, 1]),
    )
    delta12_cubic(fam)
    formula = families.weierstrass_discriminant

    def off_by_a_monomial(u, v):
        num = formula(u, v)
        return num + BinForm(QQ, num.degree, [1] + [0] * num.degree)

    monkeypatch.setattr(families, "weierstrass_discriminant", off_by_a_monomial)
    with pytest.raises(ArithmeticError, match="q0\\^2 does not divide") as info:
        delta12_cubic(fam)
    assert not isinstance(info.value, PolyError)


def test_e_profile_passthrough():
    a = BinForm(QQ, 4, [1, 2, 0, -1, 3])
    b = BinForm(QQ, 6, [0, 1, 1, 0, 2, 0, -5])
    one = BinForm.constant(QQ, 1)
    zero2 = BinForm.zero(QQ, 2)
    fam = CubicFamily(one, zero2, a, b, profile="E")
    u2, u3 = u_invariants_cubic(fam)
    assert u2 == a and u3 == b
    assert delta12_cubic(fam) == (a**3).scale(4) + (b * b).scale(27)


def test_profiles_guarded():
    with pytest.raises(PolyError):
        QuarticFamily(
            BinForm(QQ, 1, [1, 0]),
            BinForm(QQ, 1, [1, 0]),
            BinForm(QQ, 1, [1, 0]),
            BinForm(QQ, 1, [1, 0]),
            BinForm(QQ, 1, [1, 0]),
            profile="C",
        )
    with pytest.raises(PolyError):
        # degrees must form an arithmetic progression
        QuarticFamily(
            BinForm(QQ, 0, [1]),
            BinForm(QQ, 1, [1, 0]),
            BinForm(QQ, 2, [1, 0, 0]),
            BinForm(QQ, 3, [1, 0, 0, 0]),
            BinForm(QQ, 5, [1, 0, 0, 0, 0, 0]),
        )


def _random_form(rng, field, degree, bound=6):
    while True:
        f = BinForm(
            field, degree, [Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1)]
        )
        if not f.is_zero:
            return f


def test_c_profile_generic_degree_12():
    rng = random.Random(7)
    hits = 0
    for _ in range(20):
        forms = [_random_form(rng, QQ, i) for i in range(5)]
        fam = QuarticFamily(*forms, profile="C")
        u2, u3 = u_invariants_quartic(fam)
        assert u2.degree == 4 and u3.degree == 6
        delta = delta12_quartic(fam)
        assert delta.degree == 12
        if not delta.is_zero and binform.is_squarefree(delta):
            hits += 1
    assert hits >= 15  # squarefree generically


def test_d_profile_degree_12():
    rng = random.Random(8)
    for _ in range(10):
        forms = [_random_form(rng, QQ, 2) for _ in range(5)]
        fam = QuarticFamily(*forms, profile="D")
        assert delta12_quartic(fam).degree == 12


def test_reconcile_measures_minus_one():
    kappa4, kappa3 = reconcile_with_standard(probes=50, seed=0)
    # measured, then frozen: both combinations differ from the standard
    # discriminant by exactly a sign
    assert kappa4 == Fraction(-1)
    assert kappa3 == Fraction(-1)


def test_delta_is_kappa_times_disc_under_specialization():
    rng = random.Random(9)
    kappa4 = Fraction(-1)
    checked = 0
    for profile in ("D", "C"):
        for _ in range(6):
            if profile == "D":
                forms = [_random_form(rng, QQ, 2) for _ in range(5)]
            else:
                forms = [_random_form(rng, QQ, i) for i in range(5)]
            fam = QuarticFamily(*forms, profile=profile)
            delta = delta12_quartic(fam)
            for t in range(20):
                quartic = fam.specialize(t, 1)
                if quartic.degree != 4:
                    continue
                assert delta(t, 1) == kappa4 * discriminant(quartic)
                checked += 1
    assert checked >= 200


def test_specialization_commutes_over_fp():
    rng = random.Random(10)
    field = F1009
    for _ in range(5):
        forms = [
            BinForm(field, 2, [rng.randrange(1009) for _ in range(3)]) for _ in range(5)
        ]
        fam = QuarticFamily(*forms, profile="D")
        delta = delta12_quartic(fam)
        for t in [0, 1, 2, 500, 1008]:
            quartic = fam.specialize(t, 1)
            if quartic.degree != 4:
                continue
            assert delta(t, 1) == field.neg(discriminant(quartic))


def test_bpoint_identity_and_conversion():
    rng = random.Random(11)
    for _ in range(100):
        f = _random_form(rng, QQ, 4)
        g = _random_form(rng, QQ, 6)
        monic = BPoint(f, g, "monic")
        w = monic.convert("weierstrass")
        assert w.f == f.scale(3) and w.g == g.scale(2)
        # 4 (3f)^3 + 27 (2g)^2 = 108 (f^3 + g^2)
        assert w.degree12() == monic.degree12().scale(108)
        assert w.convert("monic") == monic


def test_bpoint_membership_example():
    f = BinForm.monomial(QQ, 4, 4)  # x^4
    g = BinForm.monomial(QQ, 6, 0)  # y^6
    monic = BPoint(f, g, "monic")
    assert monic.degree12() == BinForm(QQ, 12, [1] + [0] * 11 + [1])
    assert monic.is_valid()
    w = BPoint(f.scale(3), g.scale(2), "weierstrass")
    assert w.convert("monic") == monic


def test_to_b_point():
    u2 = BinForm.monomial(QQ, 4, 4, 3)  # 3 x^4
    u3 = BinForm.monomial(QQ, 6, 0, 2)  # 2 y^6
    bp = to_b_point(u2, u3)
    assert bp.normalization == "weierstrass"
    monic = bp.convert("monic")
    assert monic.f == BinForm.monomial(QQ, 4, 4) and monic.g == BinForm.monomial(QQ, 6, 0)
    # (0, t^6) as a weierstrass pair: F = 27 t^12, never squarefree
    bad = to_b_point(BinForm.zero(QQ, 4), BinForm.monomial(QQ, 6, 0))
    assert not bad.is_valid()
    assert bad.degree12() == BinForm.monomial(QQ, 12, 0, 27)


def _random_coefficient_form(rng, field, degree):
    """Over Q, coefficients with denominators up to 9; over F_p, any residue."""
    if field == QQ:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    else:
        cs = [rng.randrange(field.p) for _ in range(degree + 1)]
    return BinForm(field, degree, cs)


@pytest.mark.parametrize("field", [QQ, F1009], ids=["Q", "F1009"])
def test_integer_covariants_match_the_fraction_reference(field):
    rng = random.Random(14)
    for _ in range(30):
        base, step = rng.randint(0, 3), rng.randint(0, 2)
        p = [_random_coefficient_form(rng, field, base + i * step) for i in range(5)]
        quartic = QuarticFamily(*p)
        u2, u3 = u_invariants_quartic(quartic)
        reference = weierstrass_discriminant(u2, u3)
        assert delta12_quartic(quartic) == reference
        # weierstrass_discriminant against plain form arithmetic
        assert reference == (u2**3).scale(4) + (u3 * u3).scale(27)
        if p[0].is_zero:
            continue
        cubic = CubicFamily(*p[:4])
        q0 = cubic.q[0]
        assert delta12_cubic(cubic) * (q0 * q0) == weierstrass_discriminant(*u_invariants_cubic(cubic))


def test_weierstrass_discriminant_needs_3_deg_u_equal_to_2_deg_v():
    with pytest.raises(PolyError):
        weierstrass_discriminant(BinForm(QQ, 4, [1, 0, 0, 0, 1]), BinForm(QQ, 5, [1, 0, 0, 0, 0, 1]))


def test_every_cube_plus_square_discriminant_is_the_one_formula(monkeypatch):
    from cubesquare import families, fibration, selftest

    calls = []
    formula = families.weierstrass_discriminant
    monkeypatch.setattr(
        families, "weierstrass_discriminant", lambda u, v: calls.append(1) or formula(u, v)
    )
    a = BinForm(QQ, 4, [1, 0, -2, 1, 3])
    b = BinForm(QQ, 6, [2, 0, 1, 1, 0, 5, 3])
    sites = [
        lambda: fibration.WModel(a, b),
        lambda: BPoint(a, b, "weierstrass").degree12(),
        lambda: delta12_quartic(const_quartic(QQ, [1, 2, 3, 4, 5])),
        lambda: delta12_cubic(CubicFamily.constants(QQ, [1, 2, 3, 4])),
    ]
    for site in sites:
        before = len(calls)
        site()
        assert len(calls) == before + 1
    # 100 random forms, then 50 quartic and 50 cubic probes in reconcile.
    selftest.criterion_discriminants(seed=1)
    assert len(calls) == len(sites) + 200
