import random
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from cubesquare import picard
from cubesquare.fields import QQ
from cubesquare.picard import (
    Constraint,
    DivClass,
    E,
    FIBER,
    H,
    K,
    LatticeError,
    adjunction_genus,
    dot,
    enumerate_minimal_sections,
    lattice_height,
    negation_involution,
    reconstruct_e0,
    reflect,
    solve_class,
)
from cubesquare.poly import UniPoly


def S_E(indices):
    e = [0] * 9
    for i in indices:
        e[i] = 1
    return DivClass(0, e)


def test_intersection_form():
    assert dot(H, H) == 1
    assert dot(E(1), E(1)) == -1
    assert dot(H, E(0)) == 0
    assert dot(E(1), E(2)) == 0
    assert dot(K, K) == 0


def test_gram_signature():
    basis = [H] + [E(i) for i in range(9)]
    gram = [[dot(a, b) for b in basis] for a in basis]
    for i, row in enumerate(gram):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    diag = [gram[i][i] for i in range(10)]
    assert diag.count(1) == 1 and diag.count(-1) == 9  # signature (1, 9)


def test_adjunction_examples():
    two_torsion = DivClass(9, [0] + [-3] * 8)
    assert dot(two_torsion, two_torsion) == 9
    assert dot(two_torsion, K) == -3
    assert adjunction_genus(two_torsion) == 4
    quartic_cover = DivClass(6, [0, 0] + [-2] * 7)
    assert adjunction_genus(quartic_cover) == 3
    assert adjunction_genus(H) == 0
    assert adjunction_genus(FIBER) == 1  # the anticanonical elliptic fiber
    assert dot(FIBER, FIBER) == 0


def test_headline_intersection_numbers():
    two_torsion = DivClass(9, [0] + [-3] * 8)
    quartic_cover = DivClass(6, [0, 0] + [-2] * 7)
    quintic = DivClass(5, [-3] + [-1] * 8)
    assert dot(two_torsion, quartic_cover) == 54 - 42 == 12
    assert dot(quintic, two_torsion) == 45 - 24 == 21


def test_solve_class_systems_unique():
    solves = picard.solve_halving_classes()
    assert solves == {
        "quartic_cover": (6, 0, -2),
        "two_torsion": (9, -3, 0),
        "quintic_triple_point": (5, -3, -1),
    }


def test_halving_solves_are_shared_and_read_only():
    assert picard.solve_halving_classes() is picard.solve_halving_classes()
    with pytest.raises(TypeError):
        picard.solve_halving_classes()["two_torsion"] = (0, 0, 0)


def test_solve_class_reports_empty_box():
    with pytest.raises(LatticeError):
        solve_class([H], [Constraint("dot", 1000, H)], box=5)


def _outcome(solver, gens, cons, box):
    """The solution list, or the LatticeError message when there is none."""
    try:
        return solver(gens, cons, box)
    except LatticeError as exc:
        return ("LatticeError", str(exc))


def _random_system(rng):
    """1-3 generators, 0-2 dot and 0-2 genus constraints, box 0-5.

    Half the systems take their values from a planted tuple, so that most
    of those have solutions; the rest draw them, so that most are empty.
    """
    n = rng.randint(1, 3)
    gens = [DivClass(rng.randint(-2, 2), [rng.randint(-1, 1) for _ in range(9)]) for _ in range(n)]
    box = rng.randint(0, 5)
    planted = [rng.randint(-box, box) for _ in range(n)]
    d = DivClass(0, [0] * 9)
    for x, g in zip(planted, gens):
        d = d + g.scale(x)
    plant = rng.random() < 0.5
    cons = []
    for _ in range(rng.randint(0, 2)):
        target = DivClass(rng.randint(-2, 2), [rng.randint(-1, 1) for _ in range(9)])
        cons.append(Constraint("dot", dot(d, target) if plant else rng.randint(-3, 3), target))
    for _ in range(rng.randint(0, 2)):
        cons.append(Constraint("genus", adjunction_genus(d) if plant else rng.randint(-2, 3)))
    return gens, cons, box


def test_solve_class_matches_the_scan_on_random_systems():
    rng = random.Random(20240)
    solved = empty = 0
    for _ in range(400):
        gens, cons, box = _random_system(rng)
        got = _outcome(solve_class, gens, cons, box)
        assert got == _outcome(picard._solve_class_scan, gens, cons, box), (gens, cons, box)
        if got[0] == "LatticeError":
            empty += 1
        else:
            solved += 1
    assert solved >= 100 and empty >= 100, (solved, empty)


@pytest.mark.parametrize("box", range(9, 21))
def test_solve_class_matches_the_scan_on_the_halving_systems(box):
    for gens, cons, _ in picard.halving_class_systems().values():
        assert solve_class(gens, cons, box) == picard._solve_class_scan(gens, cons, box)


# Named degenerate systems: (generators, constraints, box, expected outcome).
DEGENERATE_SYSTEMS = {
    "inconsistent dot rows": (
        [H, E(1)],
        [Constraint("dot", 1, H), Constraint("dot", 2, H)],
        3,
        None,
    ),
    "rational but not integral": ([H.scale(2)], [Constraint("dot", 1, H)], 3, None),
    "dependent dot rows": (
        [H, E(1), E(2)],
        [Constraint("dot", 2, H), Constraint("dot", 4, H.scale(2)), Constraint("genus", 0)],
        3,
        # 2H + bE1 + cE2 has genus 0 when b(b + 1) + c(c + 1) = 0.
        [(2, -1, -1), (2, -1, 0), (2, 0, -1), (2, 0, 0)],
    ),
    "no dot constraint": (
        [H, E(1)],
        [Constraint("genus", 0)],
        2,
        # aH + bE1 has genus 0 when (a - 1)(a - 2) = b(b + 1).
        [(-1, 2), (0, -2), (0, 1), (1, -1), (1, 0), (2, -1), (2, 0)],
    ),
    "full rank, no genus": (
        [H, E(1)],
        [Constraint("dot", 3, H), Constraint("dot", 1, E(1))],
        4,
        [(3, -1)],
    ),
    # FIBER is null and orthogonal to K and to E1 - E2: along it the genus
    # quadratic is constant on every line, so that coordinate is enumerated.
    "genus constant along the line": (
        [E(1) - E(2), FIBER],
        [Constraint("genus", 0)],
        2,
        [(-1, b) for b in range(-2, 3)] + [(1, b) for b in range(-2, 3)],
    ),
    # (aH + bF)^2 + (aH + bF).K = a(a + 6b - 3): constant only on a = 0.
    "genus constant on one line only": (
        [H, FIBER],
        [Constraint("genus", 1)],
        3,
        [(-3, 1)] + [(0, b) for b in range(-3, 4)] + [(3, 0)],
    ),
    "two genus targets that disagree": (
        [H, E(1)],
        [Constraint("genus", 0), Constraint("genus", 1)],
        3,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SYSTEMS))
def test_solve_class_degenerate_systems(name):
    gens, cons, box, expected = DEGENERATE_SYSTEMS[name]
    got = _outcome(solve_class, gens, cons, box)
    assert got == _outcome(picard._solve_class_scan, gens, cons, box)
    if expected is None:
        assert got == ("LatticeError", f"no solution with coefficients in [-{box}, {box}]")
    else:
        assert got == expected


def test_solve_class_parity_rule(monkeypatch):
    # K is characteristic (all its coefficients are odd), so D.D + D.K is
    # even for every class and the parity rule cannot bite on the real
    # lattice.  With K replaced by 0 the adjunction sum is D.D, which can be
    # odd, and (D.D) // 2 + 1 would then round a wrong class onto the target.
    monkeypatch.setattr(picard, "K", DivClass(0, [0] * 9))
    # D.D = x^2: genus 1 needs x = 0; x = +-1 has the odd sum 1.
    for solver in (solve_class, picard._solve_class_scan):
        assert solver([H], [Constraint("genus", 1)], 3) == [(0,)]
    # D = -E2 + s(H + E1) has D.D = -1 on the whole line: genus 0 only by
    # rounding, so there is no solution.
    gens = [E(2), H + E(1)]
    cons = [Constraint("dot", 1, E(2)), Constraint("genus", 0)]
    for solver in (solve_class, picard._solve_class_scan):
        with pytest.raises(LatticeError, match="no solution"):
            solver(gens, cons, 3)


def test_solve_class_at_a_large_box():
    box = 10**6
    solutions = {}
    for name, (gens, cons, _) in picard.halving_class_systems().items():
        solutions[name] = solve_class(gens, cons, box)
        for xs in solutions[name]:
            assert all(abs(x) <= box for x in xs)
            d = DivClass(0, [0] * 9)
            for x, g in zip(xs, gens):
                d = d + g.scale(x)
            assert all(c.satisfied(d) for c in cons), (name, xs)
    assert solutions == {
        "quartic_cover": [(6, 0, -2)],
        "two_torsion": [(9, -3, 0)],
        "quintic_triple_point": [(5, -3, -1), (37, -3, -13)],
    }


def test_solve_class_rejects_an_enumeration_over_the_cap():
    with pytest.raises(picard.EnumerationTooLarge, match="over the cap"):
        solve_class([H], [], box=10**8)
    # Fixing the one coordinate leaves nothing to enumerate.
    assert solve_class([H], [Constraint("dot", 7, H)], box=10**8) == [(7,)]


def test_completing_the_square_identities():
    # eliminating the second unknown from {3a + 7c = 4, a^2 - 7c^2 = 8}
    # leaves -14 (a - 6)^2; from {3a + 8b = 3, a^2 - 8b^2 = 9}, -8 (a - 9)^2.
    a = UniPoly(QQ, [0, 1])
    lhs1 = (a * a).scale(49) - (UniPoly(QQ, [4]) - a.scale(3)) ** 2 * UniPoly(QQ, [7]) - UniPoly(QQ, [8 * 49])
    rhs1 = ((a - UniPoly(QQ, [6])) ** 2).scale(-14)
    assert lhs1 == rhs1
    lhs2 = (a * a).scale(64) - (UniPoly(QQ, [3]) - a.scale(3)) ** 2 * UniPoly(QQ, [8]) - UniPoly(QQ, [9 * 64])
    rhs2 = ((a - UniPoly(QQ, [9])) ** 2).scale(-8)
    assert lhs2 == rhs2


def test_enumerate_minimal_sections():
    secs = enumerate_minimal_sections()
    assert len(secs) == 240
    for s in secs:
        assert dot(s, s) == -1
        assert dot(s, K) == -1
        assert dot(s, E(0)) == 0
        assert dot(s, FIBER) == 1  # a section meets each fiber once
    census = picard.section_h_census()
    assert census == {0: 8, 1: 28, 2: 56, 3: 56, 4: 56, 5: 28, 6: 8}
    assert sum(census.values()) == 240


def test_lattice_height_values():
    secs = enumerate_minimal_sections()
    assert all(lattice_height(s, s) == 2 for s in secs)
    vals = set()
    base = secs[0]
    for s in secs:
        vals.add(lattice_height(base, s))
    assert vals <= {-2, -1, 0, 1, 2}
    assert 2 in vals and -2 in vals


def test_lattice_height_rejects_non_sections():
    with pytest.raises(LatticeError):
        lattice_height(H, H)


def test_negation_involution():
    secs = set(enumerate_minimal_sections())
    pairs = set()
    for s in secs:
        t = negation_involution(s)
        assert t in secs
        assert negation_involution(t) == s
        assert t != s
        pairs.add(frozenset((s.as_vector(), t.as_vector())))
    assert len(pairs) == 120


def _gram_transports(mapping):
    """The full check: <mapping S, mapping T> = -(mw_image(S) . mw_image(T))
    for all 240 x 240 pairs."""
    sections = list(mapping)
    vecs = np.array([mapping[s].dcoords for s in sections], dtype=np.int64)
    e8_gram = vecs @ vecs.T
    assert not (e8_gram % 4).any()
    pic = np.array([picard.mw_image(s).as_vector() for s in sections], dtype=np.int64)
    signs = np.array([1] + [-1] * 9, dtype=np.int64)
    return bool((e8_gram // 4 == -((pic * signs) @ pic.T)).all())


def test_isometry_full_gram_transport():
    assert picard.verify_isometry()
    mapping, basis_pic, basis_e8 = picard.section_isometry()
    assert len(mapping) == 240
    assert len(set(mapping.values())) == 240
    assert _gram_transports(mapping)
    # negation on the lattice side matches the section involution
    for s in list(mapping)[:40]:
        assert mapping[negation_involution(s)] == -mapping[s]


def test_verify_isometry_rejects_two_swapped_images(monkeypatch):
    # Still a bijection onto the roots, so only the pairings with the bases
    # (and the full Gram reference) can tell.
    mapping, basis_pic, basis_e8 = picard.section_isometry()
    s, t = list(mapping)[:2]
    swapped = dict(mapping)
    swapped[s], swapped[t] = mapping[t], mapping[s]
    assert set(swapped.values()) == set(mapping.values())
    assert not _gram_transports(swapped)
    monkeypatch.setattr(picard, "section_isometry", lambda: (swapped, basis_pic, basis_e8))
    assert picard.verify_isometry.__wrapped__() is False
    # A reordered E8 basis, whose Cartan matrix differs, fails as well.
    reordered = basis_e8[1:] + basis_e8[:1]
    monkeypatch.setattr(picard, "section_isometry", lambda: (mapping, basis_pic, reordered))
    assert picard.verify_isometry.__wrapped__() is False


def test_section_isometry_invariant_is_an_internal_error(monkeypatch):
    sections = picard.enumerate_minimal_sections()
    twice = (sections[0],) + sections[:-1]  # one class twice, so not injective
    monkeypatch.setattr(picard, "enumerate_minimal_sections", lambda: twice)
    with pytest.raises(ArithmeticError, match="not injective") as info:
        picard.section_isometry.__wrapped__()
    assert not isinstance(info.value, ValueError)


def test_section_isometry_needs_the_picard_cartan_matrix(monkeypatch):
    from cubesquare import e8

    basis = e8.BASIS_DCOORDS
    assert picard.section_isometry()[2] == tuple(e8.E8Vector(d) for d in basis)
    # The same eight roots in another order have another Cartan matrix.
    monkeypatch.setattr(e8, "BASIS_DCOORDS", basis[1:] + basis[:1])
    with pytest.raises(ArithmeticError, match="Picard Cartan matrix") as info:
        picard.section_isometry.__wrapped__()
    assert not isinstance(info.value, ValueError)


def test_section_isometry_checks_that_the_coordinates_write_the_class(monkeypatch):
    # phi + K pairs with every simple root as phi does (K is orthogonal to
    # them), so only the combination check can tell it from phi.
    mw_image = picard.mw_image
    assert all(dot(K, r) == 0 for r in picard.simple_roots_pic())
    monkeypatch.setattr(picard, "mw_image", lambda s: mw_image(s) + K)
    with pytest.raises(ArithmeticError, match="not a combination of the simple roots"):
        picard.section_isometry.__wrapped__()


def test_mod2_classes_of_sections():
    assert picard.mod2_section_classes() == 120


def test_section_classes_reduce_to_exactly_the_odd_classes():
    from cubesquare import e8

    mapping, _, _ = picard.section_isometry()
    section_keys = {e8.mod2_key(v) for v in mapping.values()}
    odd_keys = {e8.mod2_key(v) for v in e8.enumerate_roots()}
    assert section_keys == odd_keys and len(odd_keys) == 120


def test_reconstruct_e0_standard():
    assert reconstruct_e0([E(i) for i in range(1, 9)]) == E(0)


def test_lattice_points_without_a_box_refuses_to_enumerate():
    # A free coordinate walked past the genus line, and a genus quadratic
    # that is constant along its line (FIBER.FIBER = FIBER.K = 0): either
    # would need a box.
    with pytest.raises(LatticeError, match="no box"):
        picard._lattice_points([H, E(0)], [Constraint("genus", 0)], None)
    with pytest.raises(LatticeError, match="no box"):
        picard._lattice_points([FIBER], [Constraint("genus", 1)], None)
    with pytest.raises(LatticeError, match="no box"):
        picard._lattice_points([H], [], None)
    # Along H alone the genus quadratic is proper: nothing left to enumerate.
    assert picard._lattice_points([H], [Constraint("genus", 0)], None) == [(1,), (2,)]
    assert picard._lattice_points([H], [Constraint("genus", 0)], 1) == [(1,)]


def test_solve_class_takes_one_to_three_generators():
    for gens in ([], [H, E(0), E(1), E(2)]):
        with pytest.raises(LatticeError, match="1 to 3 generators"):
            solve_class(gens, [Constraint("genus", 0)])


def test_reconstruct_e0_rejects_bad_octuples():
    with pytest.raises(LatticeError):
        reconstruct_e0([E(i) for i in range(1, 8)])  # arity
    with pytest.raises(LatticeError):
        reconstruct_e0([E(1)] * 8)  # not pairwise orthogonal
    with pytest.raises(LatticeError):
        reconstruct_e0([H] + [E(i) for i in range(2, 9)])  # H^2 = +1


def test_reconstruct_e0_weyl_moved():
    rng = random.Random(0)
    # roots of the lattice: (-2)-classes orthogonal to K
    roots = [E(i) - E(i + 1) for i in range(1, 8)]
    roots.append(H - E(1) - E(2) - E(3))
    roots.append(H - E(0) - E(1) - E(2))
    for _ in range(10):
        octuple = [E(i) for i in range(1, 9)]
        expected = E(0)
        for _ in range(rng.randint(1, 4)):
            r = rng.choice(roots)
            octuple = [reflect(c, r) for c in octuple]
            expected = reflect(expected, r)
        assert reconstruct_e0(octuple) == expected


def test_reconstruct_e0_under_affine_translations():
    # s_(r+K) s_r is a translation of the degenerate root system (K^2 = 0
    # makes it affine), so iterating it drives the coefficients far from
    # the standard range; the kernel and the quadratic solve must stay exact
    r = E(1) - E(2)
    rk = r + K
    assert dot(rk, rk) == -2 and dot(rk, K) == 0
    octuple = [E(i) for i in range(1, 9)]
    expected = E(0)
    for _ in range(8):
        for root in (r, rk):
            octuple = [reflect(c, root) for c in octuple]
            expected = reflect(expected, root)
    assert max(abs(c) for o in octuple for c in o.as_vector()) > 200
    assert reconstruct_e0(octuple) == expected


def test_mw_image_is_root_like():
    for s in enumerate_minimal_sections()[:50]:
        v = picard.mw_image(s)
        assert dot(v, v) == -2
        assert dot(v, K) == 0
        assert dot(v, E(0)) == 0


def _arrangements(parts, free=tuple(range(8))):
    """Every filling of the positions ``free`` with ``parts``, a list of
    (value, multiplicity), as a dict position -> value."""
    if not parts:
        yield {}
        return
    (value, k), rest = parts[0], parts[1:]
    for chosen in combinations(free, k):
        left = tuple(i for i in free if i not in chosen)
        for placed in _arrangements(rest, left):
            yield {**placed, **dict.fromkeys(chosen, value)}


# The seven S8-orbits of minimal sections: (h, [(e value, multiplicity), ...]).
SECTION_TYPES = [
    (0, [(1, 1), (0, 7)]),
    (1, [(-1, 2), (0, 6)]),
    (2, [(-1, 5), (0, 3)]),
    (3, [(-2, 1), (-1, 6), (0, 1)]),
    (4, [(-2, 3), (-1, 5)]),
    (5, [(-2, 6), (-1, 2)]),
    (6, [(-3, 1), (-2, 7)]),
]


def test_minimal_sections_are_the_seven_permutation_types():
    expected = []
    for h, parts in SECTION_TYPES:
        orbit = [DivClass(h, [0] + [p[i] for i in range(8)]) for p in _arrangements(parts)]
        assert len(set(orbit)) == len(orbit)
        expected.extend(orbit)
    assert [sum(1 for s in expected if s.h == h) for h in range(7)] == [8, 28, 56, 56, 56, 28, 8]
    assert enumerate_minimal_sections() == tuple(sorted(expected, key=DivClass.as_vector))


@pytest.mark.parametrize("name, value", [("_E_RANGE", (-3, 1)), ("_H_MAX", 6)])
def test_minimal_sections_box_boundary_check_bites(monkeypatch, name, value):
    # An internal invariant, so not a LatticeError (an input error, exit 2).
    monkeypatch.setattr(picard, name, value)
    with pytest.raises(ArithmeticError, match="boundary"):
        enumerate_minimal_sections.__wrapped__()


def test_minimal_sections_count_check_bites(monkeypatch):
    monkeypatch.setattr(picard, "_distinct_orderings", lambda m: [tuple(m)])
    with pytest.raises(ArithmeticError, match="expected 240 minimal sections, found 7"):
        enumerate_minimal_sections.__wrapped__()


def _minimal_sections_by_permutations():
    """The reference: the box scan, each solution expanded through all 8!
    permutations of its multiset."""
    lo, hi = picard._E_RANGE
    out = []
    for h in range(picard._H_MAX + 1):
        for m in combinations_with_replacement(range(lo, hi + 1), 8):
            if sum(m) == 1 - 3 * h and sum(c * c for c in m) == h * h + 1:
                out.extend(DivClass(h, (0,) + e) for e in set(permutations(m)))
    return tuple(sorted(out, key=DivClass.as_vector))


def test_minimal_sections_match_the_permutation_expansion():
    assert enumerate_minimal_sections.__wrapped__() == _minimal_sections_by_permutations()


@pytest.mark.parametrize(
    "m", [(), (3,), (1, 1, 1), (-1, 0, 0, 2), (-2, -2, -1, -1, -1, -1, -1, 0), (0, 1, 2, 3, 4)]
)
def test_distinct_orderings_are_the_sorted_distinct_permutations(m):
    assert list(picard._distinct_orderings(m)) == sorted(set(permutations(m)))


def test_minimal_sections_traced_peak_is_small():
    tracemalloc.start()
    try:
        enumerate_minimal_sections.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak} B"
