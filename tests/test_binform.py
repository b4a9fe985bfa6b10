import random
from fractions import Fraction

import pytest

from cubesquare import binform
from cubesquare.binform import BinForm
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import PolyError
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
        assert (f * g)(x, y) == QQ.mul(f(x, y), g(x, y))


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
