import random
from fractions import Fraction

import pytest

from cubesquare import poly as upoly
from cubesquare.binform import BinForm
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import (
    PolyError,
    UniPoly,
    discriminant,
    distinct_root_count_fp,
    gcd,
    is_squarefree,
    perfect_square_root,
    resultant,
    roots_fp,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)
F1009 = PrimeField(1009)


def poly(field, *coeffs):
    """ascending-degree constructor shorthand"""
    return UniPoly(field, coeffs)


def from_roots(field, roots, lc=1):
    out = UniPoly.const(field, lc)
    for r in roots:
        out = out * UniPoly(field, [field.neg(field.coerce(r)), 1])
    return out


def brute_resultant(f, g, roots_of_f, lc_f):
    """lc(f)^deg(g) * prod g(root): the definition, usable when f factors."""
    F = f.field
    acc = F.one()
    for r in roots_of_f:
        acc = F.mul(acc, g(r))
    for _ in range(g.degree):
        acc = F.mul(acc, F.coerce(lc_f))
    return acc


def test_resultant_linear_examples():
    x = UniPoly.x(QQ)
    one = UniPoly.const(QQ, 1)
    assert resultant(x - one, x + one) == 2
    assert resultant(x * x - one, x - UniPoly.const(QQ, 2)) == 3
    three = UniPoly.const(QQ, 3)
    assert resultant(three, x * x - one) == resultant(x * x - one, three) == 9
    assert resultant(three, three) == 1


def test_resultant_against_root_product_oracle():
    # f = x^3 - x factors with roots 0, 1, -1; g = f' = 3x^2 - 1.
    f = poly(QQ, 0, -1, 0, 0) + poly(QQ, 0, 0, 0, 1)
    g = f.derivative()
    oracle = brute_resultant(f, g, [0, 1, -1], 1)
    assert oracle == Fraction(-4)  # g(0) g(1) g(-1) = (-1)(2)(2)
    assert resultant(f, g) == oracle
    # and the discriminant flips the sign back: disc(x^3 - x) = 4
    assert discriminant(f) == 4
    # Non-integral rational coefficients, on both sides.
    rng = random.Random(5)
    for _ in range(20):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        lc = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 7))
        f = from_roots(QQ, roots, lc)
        g = UniPoly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)] + [Fraction(1, 3)])
        assert resultant(f, g) == brute_resultant(f, g, roots, lc)


def test_resultant_swap_sign_200_random_pairs():
    rng = random.Random(0)
    fields = [QQ, F7, F13]
    for i in range(200):
        F = fields[i % 3]
        df, dg = rng.randint(1, 8), rng.randint(1, 8)
        f = UniPoly(F, [rng.randint(-5, 5) for _ in range(df)] + [rng.randint(1, 5)])
        g = UniPoly(F, [rng.randint(-5, 5) for _ in range(dg)] + [rng.randint(1, 5)])
        lhs = resultant(f, g)
        rhs = resultant(g, f)
        if (f.degree * g.degree) % 2 == 1:
            rhs = F.neg(rhs)
        assert lhs == rhs

    def rational(n):
        lower = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        return UniPoly(QQ, lower + [Fraction(rng.randint(1, 5), rng.randint(2, 6))])

    for _ in range(50):
        f, g = rational(rng.randint(1, 8)), rational(rng.randint(1, 8))
        assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)


def test_resultant_zero_iff_common_root():
    f = from_roots(QQ, [1, 2, 3])
    g = from_roots(QQ, [3, 5])
    assert resultant(f, g) == 0
    assert resultant(f, from_roots(QQ, [5, 7])) != 0


def test_resultant_rejects_zero():
    with pytest.raises(PolyError):
        resultant(UniPoly.zero(QQ), UniPoly.x(QQ))


def test_discriminant_examples():
    assert discriminant(poly(QQ, -1, 0, 1)) == 4  # x^2 - 1, roots +-1
    assert discriminant(poly(QQ, 0, -1, 0, 1)) == 4  # x^3 - x
    assert discriminant(poly(QQ, 0, 0, 1)) == 0  # x^2
    with pytest.raises(PolyError):
        discriminant(poly(QQ, 1, 1))


def test_discriminant_root_difference_oracle():
    # disc = lc^(2n-2) prod_{i<j} (a_i - a_j)^2, checked on factored inputs.
    rng = random.Random(1)
    for _ in range(25):
        roots = rng.sample(range(-10, 11), rng.randint(2, 5))
        lc = rng.choice([1, 2, 3, -1])
        f = from_roots(QQ, roots, lc)
        expect = Fraction(lc) ** (2 * f.degree - 2)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                expect *= Fraction(roots[i] - roots[j]) ** 2
        assert discriminant(f) == expect


def test_discriminant_product_rule():
    rng = random.Random(2)
    done = 0
    while done < 30:
        f = from_roots(QQ, rng.sample(range(-9, 10), rng.randint(2, 4)))
        g = from_roots(QQ, rng.sample(range(-9, 10), rng.randint(2, 4)))
        if resultant(f, g) == 0:
            continue
        done += 1
        assert discriminant(f * g) == discriminant(f) * discriminant(g) * resultant(f, g) ** 2


def test_squarefree():
    assert is_squarefree(poly(QQ, -1, 0, 1))
    assert not is_squarefree(poly(QQ, 1, 2, 1))
    assert is_squarefree(poly(F5, 1, 1))
    # derivative vanishes identically: x^5 + 1 = (x+1)^5 over F5
    assert not is_squarefree(poly(F5, 1, 0, 0, 0, 0, 1))
    with pytest.raises(PolyError):
        is_squarefree(UniPoly.zero(QQ))


def test_perfect_square_root_examples():
    assert perfect_square_root(poly(QQ, 1, 0, 2, 0, 1)) == poly(QQ, 1, 0, 1)
    assert perfect_square_root(poly(QQ, 0, 1, 0, 0, 1)) is None  # x^4 + x
    assert perfect_square_root(poly(F13, 0, 0, 4)) == poly(F13, 0, 2)


def test_perfect_square_root_500_random():
    rng = random.Random(3)
    for i in range(500):
        F = [QQ, F7, F13][i % 3]
        deg = rng.randint(0, 5)
        g = UniPoly(F, [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)])
        got = perfect_square_root(g * g)
        assert got == g or got == -g
        # appending a simple non-root factor breaks squareness
        c = F.coerce(rng.randint(1, 50))
        if not F.is_zero(g(c)):
            spoiled = g * g * UniPoly(F, [F.neg(c), 1])
            assert perfect_square_root(spoiled) is None


def test_perfect_square_root_canonical_leading():
    # canonical leading value: smaller residue over F_p, positive over Q
    g = perfect_square_root(poly(F13, 0, 0, 4))
    assert g.lc() == 2
    h = perfect_square_root(poly(QQ, 0, 0, 9))
    assert h.lc() == 3


def test_distinct_root_count_examples():
    assert distinct_root_count_fp(poly(F5, 0, -1, 0, 0, 0, 1)) == 5  # x^5 - x
    assert distinct_root_count_fp(poly(F7, 1, 0, 1)) == 0  # x^2 + 1
    assert distinct_root_count_fp(poly(F5, 0, -1, 0, 1)) == 3  # x^3 - x


def test_distinct_root_count_matches_scan():
    rng = random.Random(4)
    for p in (5, 13, 101):
        F = PrimeField(p)
        for _ in range(25):
            deg = rng.randint(1, 12)
            f = UniPoly(F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
            assert distinct_root_count_fp(f) == len(roots_fp(f))


def test_roots_fp_examples():
    assert roots_fp(poly(F7, -1, 0, 1)) == {1: 1, 6: 1}
    f = poly(F5, 1, 1, 0, 1)  # x^3 + x + 1 over F5
    found = roots_fp(f)
    for r in range(5):
        if r in found:
            assert f(r) == 0
        else:
            assert f(r) != 0


def test_roots_fp_multiplicities():
    F = PrimeField(11)
    f = from_roots(F, [3, 3, 7])
    assert roots_fp(f) == {3: 2, 7: 1}


def test_gcd_monic():
    f = from_roots(QQ, [1, 2]) * UniPoly.const(QQ, 6)
    g = from_roots(QQ, [2, 5]) * UniPoly.const(QQ, 10)
    assert gcd(f, g) == from_roots(QQ, [2])


def test_mixed_fields_rejected():
    from cubesquare.fields import FieldError

    with pytest.raises(FieldError):
        resultant(poly(QQ, 1, 1), poly(F7, 1, 1))
    with pytest.raises(FieldError):
        poly(QQ, 1, 1) + poly(F7, 1, 1)


def test_roots_fp_scan_bound():
    big = PrimeField(1000003)  # just above the 10**6 scan bound
    with pytest.raises(PolyError):
        roots_fp(UniPoly(big, [1, 1]))
    with pytest.raises(PolyError):
        distinct_root_count_fp(poly(QQ, 1, 1))


def _draw(rng, F, n):
    if F == QQ:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    return [rng.randrange(F.p) for _ in range(n)]


def test_arithmetic_core_reduces_every_fp_coefficient():
    rng = random.Random(6)
    for F in (F7, F1009):
        for _ in range(40):
            d, e = rng.randint(0, 6), rng.randint(0, 6)
            f, g = UniPoly(F, _draw(rng, F, d + 1)), UniPoly(F, _draw(rng, F, e + 1))
            a, b, c = (BinForm(F, d, _draw(rng, F, d + 1)) for _ in range(3))
            h = BinForm(F, e, _draw(rng, F, e + 1))
            m = UniPoly(F, _draw(rng, F, e) + [1])
            k = rng.randrange(-2 * F.p, 2 * F.p)
            n = rng.randint(0, 4)
            for out in (
                f + g, f - g, -f, f * g, f.scale(k), f ** n, f.derivative(), *(f * g).divmod(m),
                a + b, a - c, -a, a * h, a.scale(k), a ** n,
            ):
                assert all(type(x) is int and 0 <= x < F.p for x in out.coeffs), out
            assert 0 <= f(k) < F.p and 0 <= a(k, rng.randrange(F.p)) < F.p


def test_arithmetic_core_forms_and_polynomials_agree():
    rng = random.Random(7)
    for F in (QQ, F7, F1009):
        for _ in range(40):
            d, e = rng.randint(0, 6), rng.randint(0, 6)
            a, b = BinForm(F, d, _draw(rng, F, d + 1)), BinForm(F, e, _draw(rng, F, e + 1))
            assert (a * b).dehomogenize() == a.dehomogenize() * b.dehomogenize()
            assert (a * b).degree == d + e


def test_power_is_repeated_multiplication():
    rng = random.Random(8)
    for F in (QQ, F7, F1009):
        for _ in range(10):
            d = rng.randint(0, 4)
            seq = _draw(rng, F, d + 1)
            f, a = UniPoly(F, seq), BinForm(F, d, seq)
            raw, fn, an = [1], UniPoly.const(F, 1), BinForm.constant(F, 1)
            for n in range(6):
                assert upoly.power(seq, n) == raw
                assert f ** n == fn and a ** n == an
                raw, fn, an = upoly.convolve(raw, seq), fn * f, an * a
    with pytest.raises(PolyError):
        upoly.power([1, 1], -1)


def test_reduction_mod_p_commutes_with_products():
    rng = random.Random(9)
    for F in (F7, F1009):

        def mod(form):
            return BinForm(F, form.degree, form.coeffs)

        for _ in range(40):
            k = rng.randint(0, 2)
            a, b = (
                BinForm(QQ, d, [rng.randint(-10**6, 10**6) for _ in range(d + 1)])
                for d in (2 * k, 3 * k)
            )
            assert mod(a * b) == mod(a) * mod(b)
            assert mod(a ** 3 - b * b) == mod(a) ** 3 - mod(b) * mod(b)
