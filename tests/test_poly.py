import random
from fractions import Fraction

import pytest

from cubesquare import poly as upoly
from cubesquare.binform import CERTIFICATE_PRIME, BinForm
from cubesquare.fields import QQ, ZZ, PrimeField
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
    out = UniPoly(field, [lc])
    for r in roots:
        out = out * UniPoly(field, [field.neg(field.coerce(r)), 1])
    return out


def brute_resultant(f, g, roots_of_f, lc_f):
    """lc(f)^deg(g) * prod g(root): the definition, usable when f factors."""
    F = f.field
    acc = 1
    for r in roots_of_f:
        acc *= g(r)
    for _ in range(g.degree):
        acc *= lc_f
    return F.coerce(acc)


def test_resultant_linear_examples():
    x = UniPoly(QQ, [0, 1])
    one = UniPoly(QQ, [1])
    assert resultant(x - one, x + one) == 2
    assert resultant(x * x - one, x - UniPoly(QQ, [2])) == 3
    three = UniPoly(QQ, [3])
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
        resultant(UniPoly.zero(QQ), UniPoly(QQ, [0, 1]))


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


def test_square_root_over_z_matches_the_fraction_root():
    # Over Z each matching step divides exactly.  A square in Q[x] of an
    # integer polynomial has an integer root, so on integer polynomials the
    # root over Z must be the Fraction root, and None exactly when it is.
    rng = random.Random(33)
    squares = 0
    for i in range(400):
        g = [rng.randint(-60, 60) for _ in range(rng.randint(1, 6))]
        g[-1] = g[-1] or 1
        if i % 2:
            f = upoly.convolve(g, g)
            if i % 3 == 0:  # spoil one coefficient
                f[rng.randrange(len(f))] += rng.choice([-1, 1, 2])
        else:
            f = [rng.randint(-3600, 3600) for _ in range(2 * len(g) - 1)]
            f[-1] = rng.choice([1, 4, 9, 2, -4])
        if not f[-1]:
            continue
        over_z = perfect_square_root(UniPoly(ZZ, f))
        over_q = perfect_square_root(UniPoly(QQ, f))
        if over_q is None:
            assert over_z is None
        else:
            squares += 1
            assert over_z is not None and over_z.coeffs == over_q.coeffs
            assert all(type(c) is int for c in over_z.coeffs)
    assert squares > 100
    # x^2 + x + 1 stops at the first step, where 2 lc(g) = 2 does not divide
    # the coefficient 1 of x; 4x^2 + 4x + 1 = (2x + 1)^2.
    assert perfect_square_root(poly(ZZ, 1, 1, 1)) is None
    assert perfect_square_root(poly(ZZ, 1, 4, 4)) == poly(ZZ, 1, 2)
    assert perfect_square_root(poly(ZZ, 1, 0, -1)) is None  # negative lead


def test_integer_ring_tags_integer_polynomials():
    assert [ZZ.sqrt(a) for a in (0, 1, 49, 10**40, 10**40 + 1, 2, -4)] == [
        0, 1, 7, 10**20, None, None, None,
    ]
    assert ZZ.coerce(True) == 1 and ZZ != QQ and ZZ == type(ZZ)()
    with pytest.raises(TypeError):
        UniPoly(ZZ, [Fraction(1, 2)])


def test_distinct_root_count_examples():
    assert distinct_root_count_fp(poly(F5, 0, -1, 0, 0, 0, 1)) == 5  # x^5 - x
    assert distinct_root_count_fp(poly(F7, 1, 0, 1)) == 0  # x^2 + 1
    assert distinct_root_count_fp(poly(F5, 0, -1, 0, 1)) == 3  # x^3 - x


def unipoly_powmod(base, n, mod):
    """base^n mod ``mod`` by square-and-multiply on ``UniPoly``: the
    reference that the raw-integer core replaced."""
    out = UniPoly(base.field, [1])
    base = base % mod
    while n:
        if n & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        n >>= 1
    return out


def test_distinct_root_count_matches_unipoly_powmod():
    rng = random.Random(4)
    for p in (5, 13, 101, 1009, 2**61 - 1):
        F = PrimeField(p)
        x = UniPoly(F, [0, 1])
        for _ in range(25):
            deg = rng.randint(1, 12)
            roots = [rng.randrange(p) for _ in range(rng.randint(0, 3))]
            f = from_roots(F, roots) * UniPoly(
                F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            )
            assert distinct_root_count_fp(f) == gcd(f, unipoly_powmod(x, p, f) - x).degree


def test_packed_powmod_matches_unipoly_powmod():
    # The raw core's (x + a)^n mod f, degree 1 and the shift a included.
    rng = random.Random(12)
    for p in (5, 7, 1009, 2**31 - 1, 2**61 - 1):
        F = PrimeField(p)
        for deg in (1, 2, 5, 12):
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            for n in (0, 1, 2, 3, p, (p - 1) // 2, rng.randrange(p * p)):
                a = rng.choice([0, 1, rng.randrange(p)])
                ref = unipoly_powmod(UniPoly(F, [a, 1]), n, UniPoly(F, f))
                assert tuple(upoly._powmod(f, n, p, a)) == ref.coeffs, (p, f, n, a)


def brute_roots(f):
    """{r: multiplicity} by evaluating f at every r of F_p and dividing by
    x - r with ``UniPoly.divmod`` while it divides."""
    F = f.field
    out = {}
    for r in range(F.p):
        m, g = 0, f
        while g(r) == 0:
            g = g.divmod(UniPoly(F, [F.neg(r), 1]))[0]
            m += 1
        if m:
            out[r] = m
    return out


def test_roots_fp_matches_brute_force():
    rng = random.Random(10)
    for p in (5, 7, 11, 13, 101):
        F = PrimeField(p)
        x = UniPoly(F, [0, 1])
        nonresidue = next(c for c in range(2, p) if F.legendre(c) == -1)
        fixed = [
            x ** p - x,  # every element of F_p, once
            x * x - UniPoly(F, [nonresidue]),  # no root
            from_roots(F, [1, 1, 1, 2, 2], lc=3),  # repeated roots
            UniPoly(F, [4, 3]),  # degree 1
            from_roots(F, [0, 0, 5]) * (x * x - UniPoly(F, [nonresidue])),  # a root at 0
            UniPoly(F, [2]),  # no root, degree 0
        ]
        drawn = [
            from_roots(F, [rng.randrange(p) for _ in range(rng.randint(0, 5))])
            * UniPoly(F, [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)])
            for _ in range(40)
        ]
        for f in fixed + drawn:
            got = roots_fp(f)
            assert got == brute_roots(f), (p, f)
            assert list(got) == sorted(got)
            assert distinct_root_count_fp(f) == len(got)
        assert roots_fp(x ** p - x) == {r: 1 for r in range(p)}


def test_root_set_does_not_depend_on_the_splitting_seed():
    rng = random.Random(11)
    for p in (7, 101, 1009):
        F = PrimeField(p)
        for _ in range(10):
            roots = sorted(set(rng.sample(range(p), 6)))
            f = from_roots(F, roots) * UniPoly(F, [rng.randrange(p) for _ in range(4)] + [1])
            part = upoly._root_part(f.coeffs, p)
            expected = sorted(brute_roots(f)) if p < 1009 else None
            for seed in range(6):
                found = sorted(upoly._split(part, p, random.Random(seed)))
                assert found == sorted(roots_fp(f))
                assert set(roots) <= set(found)
                if expected is not None:
                    assert found == expected


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
    f = from_roots(QQ, [1, 2]) * UniPoly(QQ, [6])
    g = from_roots(QQ, [2, 5]) * UniPoly(QQ, [10])
    assert gcd(f, g) == from_roots(QQ, [2])


def test_mixed_fields_rejected():
    from cubesquare.fields import FieldError

    with pytest.raises(FieldError):
        resultant(poly(QQ, 1, 1), poly(F7, 1, 1))
    with pytest.raises(FieldError):
        poly(QQ, 1, 1) + poly(F7, 1, 1)


def test_roots_fp_large_prime():
    # One root finder for every p: no scan, so p above 10**6 works.
    big = PrimeField(1000003)
    f = from_roots(big, [3, 3, 999999, 0]) * poly(big, 1, 0, 1)  # x^2 + 1: no root, p = 3 mod 4
    assert roots_fp(f) == {0: 1, 3: 2, 999999: 1}
    assert distinct_root_count_fp(f) == 3
    with pytest.raises(PolyError):
        distinct_root_count_fp(poly(QQ, 1, 1))
    with pytest.raises(PolyError):
        roots_fp(poly(QQ, 1, 1))


def test_fp_squarefree_matches_unipoly_gcd():
    rng = random.Random(13)
    for p in (5, 7, 13, 1009, CERTIFICATE_PRIME):
        F = PrimeField(p)
        x = UniPoly(F, [0, 1])
        g = UniPoly(F, [rng.randrange(1, p), 1])
        cases = [g ** 2 * x]  # a square factor
        if p < 100:  # f' = 0, f = h(x^p): dense, so only at small p
            xp = x ** p
            cases += [xp + UniPoly(F, [1]), xp * xp + xp.scale(3) + UniPoly(F, [1])]
        for _ in range(40):
            f = UniPoly(F, [rng.randrange(p) for _ in range(rng.randint(0, 8))] + [rng.randrange(1, p)])
            cases += [f, f * g, f * g * g]
        for f in cases:
            fp = f.derivative()
            ref = f.degree == 0 or (not fp.is_zero and gcd(f, fp).degree == 0)
            assert is_squarefree(f) == ref, (p, f)


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
            raw, fn, an = [1], UniPoly(F, [1]), BinForm.constant(F, 1)
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
