import random

import numpy as np
import pytest

from cubesquare import e8
from cubesquare.e8 import E8Vector


def test_root_count_and_shapes():
    roots = e8.enumerate_roots()
    assert len(roots) == 240
    two_two = [v for v in roots if sorted(map(abs, v.dcoords)) == [0] * 6 + [2, 2]]
    all_odd = [v for v in roots if all(abs(c) == 1 for c in v.dcoords)]
    assert len(two_two) == 112 and len(all_odd) == 128
    assert all(v.dot(v) == 2 for v in roots)


def test_roots_closed_under_negation():
    roots = set(e8.enumerate_roots())
    assert {-v for v in roots} == roots
    norm4 = set(e8.enumerate_norm4())
    assert {-v for v in norm4} == norm4


def test_norm4_count_and_disjointness():
    norm4 = e8.enumerate_norm4()
    assert len(norm4) == 2160
    assert all(v.dot(v) == 4 for v in norm4)
    assert not (set(norm4) & set(e8.enumerate_roots()))


def test_root_inner_products_exhaustive():
    mat = np.array([v.dcoords for v in e8.enumerate_roots()], dtype=np.int64)
    grams = mat @ mat.T
    assert not (grams % 4).any()
    vals = set(np.unique(grams // 4).tolist())
    assert vals == {-2, -1, 0, 1, 2}


def test_root_system_reflections_exhaustive():
    # s_r(v) = v - <v,r> r permutes the root set, for every root r.
    roots = e8.enumerate_roots()
    mat = np.array([v.dcoords for v in roots], dtype=np.int64)
    root_set = {v.dcoords for v in roots}
    for r in roots:
        rv = np.array(r.dcoords, dtype=np.int64)
        coeff = (mat @ rv) // 4  # <v, r>, and <r,r> = 2 so 2<v,r>/<r,r> = <v,r>
        imgs = mat - coeff[:, None] * rv[None, :]
        assert {tuple(int(x) for x in row) for row in imgs} == root_set


def test_weyl_order():
    assert e8.weyl_order() == 696729600
    assert e8.weyl_order() == 2**14 * 3**5 * 5**2 * 7
    import math

    assert e8.weyl_order() // (math.factorial(8) * 2**7) == 135
    assert len(e8.enumerate_roots()) // 2 == 120


def test_mod2_census():
    c = e8.mod2_census()
    assert c == {
        "zero": 1,
        "odd_classes": 120,
        "even_classes": 135,
        "roots_per_odd_class": 2,
        "norm4_per_even_class": 16,
    }
    assert c["odd_classes"] + c["even_classes"] + 1 == 256


def test_mod2_reduction_is_homomorphism():
    rng = random.Random(0)
    roots = e8.enumerate_roots()
    norm4 = e8.enumerate_norm4()
    pool = roots + norm4
    for _ in range(1000):
        u = rng.choice(pool)
        v = rng.choice(pool)
        ku = e8.mod2_key(u)
        kv = e8.mod2_key(v)
        ksum = e8.mod2_key(u + v)
        assert ksum == tuple((a + b) % 2 for a, b in zip(ku, kv))


def test_same_class_iff_difference_in_2e8():
    rng = random.Random(1)
    pool = e8.enumerate_roots() + e8.enumerate_norm4()
    for _ in range(500):
        u, v = rng.choice(pool), rng.choice(pool)
        same = e8.mod2_key(u) == e8.mod2_key(v)
        halves = [(a - b) // 2 for a, b in zip(u.dcoords, v.dcoords)]
        exact = all((a - b) % 2 == 0 for a, b in zip(u.dcoords, v.dcoords))
        in_lattice = exact and e8.is_member_dcoords(halves)
        assert same == in_lattice


def test_quadratic_form_well_defined():
    # every representative of an odd class has norm = 2 mod 4, of an even
    # class norm = 0 mod 4: no class mixes parities (checked exhaustively).
    odd_keys = {e8.mod2_key(v) for v in e8.enumerate_roots()}
    even_keys = {e8.mod2_key(v) for v in e8.enumerate_norm4()}
    assert not odd_keys & even_keys
    assert all(v.dot(v) % 4 == 2 for v in e8.enumerate_roots())
    assert all(v.dot(v) % 4 == 0 for v in e8.enumerate_norm4())


def test_census_matches_covering_degrees():
    c = e8.mod2_census()
    assert c["odd_classes"] == 120  # tetragonal canonical-pencil cover
    assert c["even_classes"] == 135  # tetragonal hyperelliptic cover


def test_theta_char_counts():
    assert e8.theta_char_counts(4) == (120, 136)
    assert e8.theta_char_counts(1) == (1, 3)
    odd, even = e8.theta_char_counts(4)
    assert odd + even == 256
    assert odd + (even - 1) == 255
    with pytest.raises(ValueError):
        e8.theta_char_counts(0)


def test_basis_is_unimodular():
    import math

    adj, det = e8._basis_solver()
    # dcoords scale the true coordinates by 2, so |det| = 2^8 exactly when
    # the true-coordinate basis matrix has determinant +-1.
    assert abs(det) == 256


def test_basis_coordinates_match_an_exact_fraction_solve():
    # v = c B over Fractions through the exact inverse of B, on all 240 roots
    # and 2160 norm-4 vectors; the integer route must give the same c.
    from fractions import Fraction

    inverse, _ = e8.exact_inverse(e8.BASIS_DCOORDS)
    vectors = e8.enumerate_roots() + e8.enumerate_norm4()
    assert len(vectors) == 2400
    for v in vectors:
        exact = [sum(Fraction(x) * row[j] for x, row in zip(v.dcoords, inverse)) for j in range(8)]
        assert all(c.denominator == 1 for c in exact), v
        coords = e8.basis_coordinates(v)
        assert coords == tuple(int(c) for c in exact), v
        assert [sum(c * b[k] for c, b in zip(coords, e8.BASIS_DCOORDS)) for k in range(8)] == list(v.dcoords)


def test_vector_validation():
    with pytest.raises(ValueError):
        E8Vector((1, 0, 0, 0, 0, 0, 0, 0))  # mixed parity
    with pytest.raises(ValueError):
        E8Vector((2, 2, 2, 0, 0, 0, 0, 0))  # sum = 6, not 0 mod 4
    v = E8Vector((1,) * 8)
    assert v.dot(v) == 2


def test_exact_inverse_inverts_both_lattice_bases():
    from fractions import Fraction

    from cubesquare import picard

    roots = picard.simple_roots_pic()
    cartan = [[-picard.dot(a, b) for b in roots] for a in roots]
    for matrix, expected_det in ((e8.BASIS_DCOORDS, -256), (cartan, 1)):
        inverse, det = e8.exact_inverse(matrix)
        assert det == expected_det
        n = len(matrix)
        product = [
            [sum(Fraction(matrix[i][k]) * inverse[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_exact_inverse_rejects_singular_matrix():
    with pytest.raises(ArithmeticError, match="singular"):
        e8.exact_inverse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def test_exact_inverse_determinant_keeps_its_sign_through_row_swaps():
    assert e8.exact_inverse([[0, 1], [1, 0]])[1] == -1
    rng = random.Random(5)
    for _ in range(20):
        # a zero first pivot forces a swap before the first elimination step
        m = [[0] + [rng.randint(-4, 4) for _ in range(2)]]
        m += [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        det = _cofactor_det(m)
        if det == 0:
            continue
        assert e8.exact_inverse(m)[1] == det
    m = [[0, 2, 1], [3, 1, 0], [1, 0, 2]]
    assert _cofactor_det(m) == -13 and e8.exact_inverse(m)[1] == -13


def test_row_reduce_reports_pivots_and_carries_the_augmented_columns():
    rows = [[0, 2, 4, 6], [1, 1, 1, 1], [1, 3, 5, 7]]
    reduced, pivots, det = e8.row_reduce(rows, 3)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, -1, -2], [0, 1, 2, 3], [0, 0, 0, 0]]
    assert det == -2  # one swap, pivots 1 and 2
