import math
import random
from fractions import Fraction

import pytest

from cubesquare import binform, fibration
from cubesquare import poly as upoly
from cubesquare.binform import BinForm
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import PolyError, UniPoly
from test_cli import _counting

F5 = PrimeField(5)
F11 = PrimeField(11)


def test_construction_and_shape():
    f = BinForm(QQ, 2, [1, 0, -1])  # x^2 - y^2
    assert f(1, 1) == 0 and f(2, 1) == 3
    with pytest.raises(PolyError):
        BinForm(QQ, 2, [1, 0])
    zero = BinForm.zero(QQ, 4)
    assert zero.is_zero


def test_homogenize_dehomogenize_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        d = rng.randint(0, 8)
        f = BinForm(F11, d, [rng.randrange(11) for _ in range(d + 1)])
        if f.is_zero:
            continue
        assert BinForm.homogenize(f.dehomogenize(), d) == f


def test_y_multiplicity_tracks_infinity_root():
    f = BinForm(QQ, 5, [0, 0, 1, 2, 0, 0])  # y^2 (x^3 + 2x^2 y)
    assert f.y_multiplicity() == 2
    assert BinForm(QQ, 3, [4, 0, 0, 0]).y_multiplicity() == 0


def test_multiplication_degrees_add():
    f = BinForm(QQ, 2, [1, 1, 0])
    g = BinForm(QQ, 3, [0, 2, 0, 5])
    assert (f * g).degree == 5
    for x, y in [(1, 1), (2, 3), (-1, 4)]:
        assert (f * g)(x, y) == f(x, y) * g(x, y)


def test_divexact():
    f = BinForm(QQ, 2, [1, -1, 0])  # x(x - y)
    g = BinForm(QQ, 1, [1, 0])  # x
    assert f.divexact(g) == BinForm(QQ, 1, [1, -1])
    with pytest.raises(PolyError):
        BinForm(QQ, 2, [1, 0, 1]).divexact(g)
    # division must respect the multiplicity at (1:0)
    h = BinForm(QQ, 2, [1, 0, 0])  # x^2 as a degree-2 form
    with pytest.raises(PolyError):
        h.divexact(BinForm(QQ, 1, [0, 1]))  # dividing by y


def test_gcd_includes_infinity():
    # f = x^2 y^2 (3x + y), g = 2 x^2 y^2: common factor x^2 y^2
    f = BinForm(F11, 5, [0, 0, 3, 1, 0, 0])
    g = BinForm(F11, 4, [0, 0, 2, 0, 0])
    d = binform.gcd(f, g)
    assert d.degree == 4 and d.y_multiplicity() == 2
    assert d == BinForm(F11, 4, [0, 0, 1, 0, 0])


def test_squarefree_fixed_examples():
    f12 = BinForm(QQ, 12, [1] + [0] * 11 + [1])  # x^12 + y^12
    assert binform.is_squarefree(f12)
    assert not binform.is_squarefree(BinForm(QQ, 12, [0] * 10 + [1, 0, 0]))  # x^2 y^10
    assert not binform.is_squarefree(BinForm(QQ, 12, [2] + [0] * 12))  # 2 x^12


def test_squarefree_char_divides_degree():
    # x^5 + x y^4 = x (x^4 + y^4) is squarefree over F5 even though the
    # gcd-of-partials criterion degenerates there (F_x = y^4, F_y = 4xy^3).
    f = BinForm(F5, 5, [1, 0, 0, 0, 1, 0])
    assert binform.is_squarefree(f)
    g = BinForm(F5, 5, [1, 0, 0, 0, 0, 1])  # x^5 + y^5 = (x+y)^5
    assert not binform.is_squarefree(g)


def test_squarefree_projective_root_count_bound():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 12)
        f = BinForm(F11, d, [rng.randrange(11) for _ in range(d + 1)])
        if f.is_zero or not binform.is_squarefree(f):
            continue
        assert len(binform.roots_fp(f)) <= d


def test_perfect_square_root_forms():
    f = BinForm(QQ, 2, [1, 1, 0])
    sq = f * f
    got = binform.perfect_square_root(sq)
    assert got == f or got == -f
    # odd multiplicity at (1:0)
    assert binform.perfect_square_root(BinForm(QQ, 2, [0, 1, 0])) is None
    # even infinity multiplicity works: (x y)^2
    got = binform.perfect_square_root(BinForm(QQ, 4, [0, 1, 0, 0, 0]).scale(1) * BinForm.constant(QQ, 1))
    assert got is None or (got * got).coeffs == (0, 1, 0, 0, 0)
    xy = BinForm(QQ, 2, [0, 1, 0])
    assert binform.perfect_square_root(xy * xy) in (xy, -xy)


def test_roots_fp_projective():
    xy = BinForm(F5, 2, [0, 1, 0])
    assert binform.roots_fp(xy) == {(1, 0): 1, (0, 1): 1}
    f = BinForm(F5, 3, [0, 0, 0, 1])  # y^3
    assert binform.roots_fp(f) == {(1, 0): 3}


P = binform.CERTIFICATE_PRIME


def _over_q(calls):
    """The forms over Q among counted calls of the exact gcd test."""
    return [f for (f,) in calls if f.field == QQ]


@pytest.mark.parametrize(
    "coeffs, squarefree, fallbacks",
    [
        ([1] + [0] * 11 + [1], True, 0),  # x^12 + y^12: certified mod P
        ([1, 0, -P], True, 1),  # x^2 - P y^2: P divides the discriminant
        ([Fraction(1, P), 0, -1], True, 1),  # P in a denominator
        ([P, 0, -P], True, 1),  # content divisible by P: vanishes mod P
        ([1, 0, -3, 2], False, 1),  # (x - y)^2 (x + 2y)
        ([0, 0, P, 1], False, 1),  # y^2 (P x + y): y^3 mod P, a triple root at (1:0)
    ],
)
def test_squarefree_certificate_and_each_fallback(monkeypatch, coeffs, squarefree, fallbacks):
    calls = _counting(monkeypatch, binform, "_squarefree_by_gcd")
    assert binform.is_squarefree(BinForm(QQ, len(coeffs) - 1, coeffs)) is squarefree
    assert len(_over_q(calls)) == fallbacks


def _random_q_form(rng, degree):
    while True:
        f = BinForm(
            QQ, degree, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        )
        if not f.is_zero:
            return f


def test_squarefree_certificate_agrees_with_the_exact_test(monkeypatch):
    rng = random.Random(13)
    forms = []
    for i in range(200):
        if i % 4 == 0:  # planted h^2 k with deg h in 1..3
            e = rng.randint(1, 3)
            h = _random_q_form(rng, e)
            forms.append(h * h * _random_q_form(rng, 12 - 2 * e))
        else:
            forms.append(_random_q_form(rng, 12))
    reference = [binform._squarefree_by_gcd(f) for f in forms]
    assert not any(reference[::4])
    calls = _counting(monkeypatch, binform, "_squarefree_by_gcd")
    assert [binform.is_squarefree(f) for f in forms] == reference
    # Every squarefree form is certified mod P; only the others fall back.
    assert len(_over_q(calls)) == reference.count(False)


# ---------------------------------------------------------------------------
# The integer numerators over Q against Fraction references: sums, products,
# scalings and powers over Fraction tuples, UniPoly.divmod for the exact
# division, and the Fraction coefficients of the section equation.

CERT = PrimeField(P)


def _ref_form(rng, degree):
    """Fraction coefficients of a random Q form: mixed denominators, negative
    and zero coefficients, a random power of y (leading zeros) and, now and
    then, the zero form."""
    if rng.random() < 0.05:
        return (Fraction(0),) * (degree + 1)
    cs = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9, 12, 35])) for _ in range(degree + 1)]
    for i in range(rng.randint(0, degree) if rng.random() < 0.3 else 0):
        cs[i] = Fraction(0)
    if rng.random() < 0.2:
        cs[-1] = Fraction(0)
    return tuple(cs)


def _ref_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _ref_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_divexact(a, b):
    """The quotient of the descending Fraction tuples a by b as forms of
    degree len(a) - len(b), by UniPoly.divmod on the affine charts, or None."""
    d = len(a) - len(b)
    if not any(a):
        return (Fraction(0),) * (max(d, 0) + 1)
    m_a = next(i for i, c in enumerate(a) if c)
    m_b = next(i for i, c in enumerate(b) if c)
    if m_a < m_b:
        return None
    q, r = UniPoly(QQ, a[::-1]).divmod(UniPoly(QQ, b[::-1]))
    if not r.is_zero or q.degree > d:
        return None
    return tuple(reversed(q.coeffs + (Fraction(0),) * (d + 1 - len(q.coeffs))))


def _form(cs):
    return BinForm(QQ, len(cs) - 1, cs)


def test_integer_arithmetic_matches_fraction_tuples():
    rng = random.Random(27)
    for _ in range(300):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        a, b, c = _ref_form(rng, da), _ref_form(rng, db), _ref_form(rng, da)
        fa, fb, fc = _form(a), _form(b), _form(c)
        assert fa.coeffs == a
        assert (fa + fc).coeffs == _ref_add(a, c)
        assert (fa - fc).coeffs == _ref_add(a, c, -1)
        assert (-fa).coeffs == tuple(-x for x in a)
        assert (fa * fb).coeffs == _ref_mul(a, b)
        n = rng.randint(0, 3)
        assert (fa**n).coeffs == _ref_pow(a, n)
        k = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert fa.scale(k).coeffs == tuple(k * x for x in a)
        assert fa.scale(k.numerator, k.denominator) == fa.scale(k)
        assert (fa * fb)(3, -2) == fa(3, -2) * fb(3, -2)


def test_one_value_has_one_representation():
    rng = random.Random(28)
    for _ in range(300):
        a = _ref_form(rng, rng.randint(0, 6))
        f = _form(a)
        k = rng.randint(1, 50)
        # The same values from unreduced numerators, from (num, den) pairs in
        # other terms and from a sum that cancels.
        same = [
            BinForm.from_numerators(QQ, f.degree, [n * k for n in f.nums], f.den * k),
            BinForm.from_numerators(QQ, f.degree, [-n * k for n in f.nums], -f.den * k),
            BinForm.from_ratios(QQ, f.degree, [(c.numerator * k, c.denominator * k) for c in a]),
            (f + f) - f,
            f.scale(Fraction(2 * k, 4 * k)).scale(2),
        ]
        for g in same:
            assert g == f and hash(g) == hash(f)
            assert (g.nums, g.den) == (f.nums, f.den)
        assert f.den > 0 and math.gcd(f.den, *f.nums) == 1
    half = BinForm(QQ, 1, [Fraction(2, 4), 0])
    assert half == BinForm(QQ, 1, [Fraction(1, 2), 0]) == BinForm.from_ratios(QQ, 1, [(1, 2), (0, 1)])
    assert hash(half) == hash(BinForm(QQ, 1, ["1/2", 0]))
    assert BinForm.zero(QQ, 3) == BinForm(QQ, 3, [Fraction(0, 7)] * 4)
    assert BinForm.zero(QQ, 3).den == 1


def test_divexact_matches_unipoly_divmod():
    rng = random.Random(29)
    divisible = 0
    for i in range(400):
        b = _ref_form(rng, rng.randint(0, 5))
        if not any(b):
            continue
        if i % 2:  # a planted multiple of b, with a content and denominators
            a = _ref_mul(b, _ref_form(rng, rng.randint(0, 5)))
        else:  # a random pair, almost never divisible
            a = _ref_form(rng, rng.randint(0, 9))
        expected = _ref_divexact(a, b)
        if expected is None:
            with pytest.raises(PolyError):
                _form(a).divexact(_form(b))
        else:
            divisible += 1
            assert _form(a).divexact(_form(b)).coeffs == expected
    assert 150 < divisible < 400
    # Contents that the long division must divide out: 6x^2 - 6 by 4x + 4.
    assert BinForm(QQ, 2, [6, 0, -6]).divexact(BinForm(QQ, 1, [4, 4])) == BinForm(
        QQ, 1, [Fraction(3, 2), Fraction(-3, 2)]
    )
    # Not divisible over Q, though the leading coefficients divide: x^2 + 1 by 2x + 1.
    with pytest.raises(PolyError):
        BinForm(QQ, 2, [1, 0, 1]).divexact(BinForm(QQ, 1, [2, 1]))


def test_perfect_square_root_matches_the_fraction_root():
    rng = random.Random(30)
    squares = 0
    for i in range(300):
        g = _ref_form(rng, rng.randint(0, 4))
        if not any(g):
            continue
        f = _ref_mul(g, g) if i % 2 else _ref_form(rng, 2 * rng.randint(0, 4))
        if not any(f):
            continue
        m = next(i for i, c in enumerate(f) if c)  # the multiplicity at (1:0)
        expected = None if m % 2 else upoly.perfect_square_root(UniPoly(QQ, f[::-1]))
        root = binform.perfect_square_root(_form(f))
        if expected is None:
            assert root is None
        else:
            squares += 1
            assert root is not None and (root * root).coeffs == f
            assert root.dehomogenize() == expected
    assert squares > 100
    # The content c / den must be a rational square: (x + y)^2 times 9/4,
    # 3/4, 1/8 and -1.
    xy2 = BinForm(QQ, 2, [1, 2, 1])
    assert binform.perfect_square_root(xy2.scale(9, 4)) == BinForm(QQ, 1, [Fraction(3, 2)] * 2)
    for k in (Fraction(3, 4), Fraction(1, 8), -1):
        assert binform.perfect_square_root(xy2.scale(k)) is None


def test_verify_section_matches_the_fraction_equation():
    rng = random.Random(31)
    seen = set()
    for i in range(200):
        a = _ref_form(rng, 4)
        p, y = _ref_form(rng, 2), _ref_form(rng, 3)
        d = Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 9))
        if not any(y):
            continue
        # b from the equation y^2 = p^3 + a p d^4 + b d^6, spoiled in odd rounds.
        lhs = _ref_mul(y, y)
        without_b = _ref_add(_ref_pow(p, 3), tuple(c * d**4 for c in _ref_mul(a, p)))
        b = tuple(c / d**6 for c in _ref_add(lhs, without_b, -1))
        if i % 2:
            b = b[:-1] + (b[-1] + Fraction(1, rng.randint(1, 5)),)
        rhs = _ref_add(without_b, tuple(c * d**6 for c in b))
        try:
            w = fibration.WModel(_form(a), _form(b))
        except fibration.FibrationError:
            continue
        s = fibration.Section(_form(p), BinForm.constant(QQ, d), _form(y))
        assert fibration.verify_section(w, s) is (lhs == rhs)
        seen.add(lhs == rhs)
    assert seen == {True, False}


def test_certificate_reduction_matches_the_fraction_coerce():
    rng = random.Random(32)
    raised = 0
    for i in range(300):
        cs = list(_ref_form(rng, rng.randint(0, 12)))
        if i % 10 == 0:  # P in a denominator
            cs[rng.randrange(len(cs))] = Fraction(rng.randint(1, 9), P * rng.randint(1, 3))
        f = _form(cs)
        try:
            expected = tuple(CERT.coerce(c) for c in cs)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(ZeroDivisionError):
                BinForm.from_numerators(CERT, f.degree, f.nums, f.den)
            assert binform._squarefree_mod_certificate_prime(f) is False
            continue
        assert BinForm.from_numerators(CERT, f.degree, f.nums, f.den).coeffs == expected
    assert raised == 30
