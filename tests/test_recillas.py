import itertools
import math
import random

import pytest

from cubesquare import recillas
from cubesquare.recillas import (
    HurwitzTuple,
    MonodromyError,
    Perm,
    brute_force_tuple_count,
    find_conjugator,
    forward,
    frobenius_count,
    random_tuple,
    reverse,
    rh_genus,
    roundtrip_check,
    s4_to_s3,
    s4_to_s6,
)

S4 = [Perm(images) for images in itertools.permutations(range(4))]


def T(n, i, j):
    return Perm.transposition(n, i, j)


def test_perm_basics():
    p = Perm([1, 0, 2, 3])
    q = Perm([0, 2, 1, 3])
    assert (p * q)(0) == 2  # apply p then q: 0 -> 1 -> 2
    assert p.inverse() * p == Perm.identity(4) * Perm.identity(4)
    assert p.is_transposition() and not Perm.identity(4).is_transposition()
    assert Perm([1, 2, 0, 3]).cycle_type() == (3, 1)
    with pytest.raises(MonodromyError):
        Perm([0, 0, 1, 2])
    with pytest.raises(MonodromyError):
        Perm([0, 0, 1])


def test_tuple_product_enforced():
    with pytest.raises(MonodromyError):
        HurwitzTuple(4, [T(4, 0, 1)])
    t = HurwitzTuple(4, [T(4, 0, 1), T(4, 0, 1)])
    assert not t.is_transitive


def test_s4_to_s3_fixed_examples():
    # (a b) fixes ab+cd and swaps ac+bd with ad+bc
    assert s4_to_s3(T(4, 0, 1)) == Perm([0, 2, 1])
    assert s4_to_s3(Perm.identity(4)) == Perm.identity(3)
    # Klein four in the kernel
    for images in ([1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]):
        assert s4_to_s3(Perm(images)).is_identity()


def test_s4_to_s6_fixed_examples():
    img = s4_to_s6(T(4, 0, 1))
    assert img.cycle_type() == (2, 2, 1, 1)
    # fixed 2-subsets {a,b}, {c,d}; swaps {a,c}<->{b,c} is impossible:
    # under (a b), {a,c} -> {b,c} and {b,d} -> {a,d}
    assert img(0) == 0 and img(1) == 1
    assert img(2) == 5 and img(5) == 2  # {a,c} <-> {b,c}
    assert img(3) == 4 and img(4) == 3  # {b,d} <-> {a,d}
    assert s4_to_s6(Perm.identity(4)) == Perm.identity(6)
    assert s4_to_s6(Perm([1, 2, 0, 3])).cycle_type() == (3, 3)


def test_quotient_maps_are_homomorphisms_exhaustive():
    for p in S4:
        for q in S4:
            assert s4_to_s3(p * q) == s4_to_s3(p) * s4_to_s3(q)
            assert s4_to_s6(p * q) == s4_to_s6(p) * s4_to_s6(q)


def test_kernel_is_klein_four_exhaustive():
    kernel = {p.images for p in S4 if s4_to_s3(p).is_identity()}
    assert kernel == {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}


def test_rh_genus_examples():
    t = random_tuple(4, 12, seed=1)
    assert rh_genus(t) == 3
    triple, sextic = forward(t)
    assert rh_genus(triple) == 4
    assert rh_genus(sextic) == 7
    two = HurwitzTuple(2, [T(2, 0, 1), T(2, 0, 1)])
    assert rh_genus(two) == 0
    with pytest.raises(MonodromyError):
        rh_genus(HurwitzTuple(4, [T(4, 0, 1), T(4, 0, 1)]))


def test_forward_contract():
    t = random_tuple(4, 12, seed=2)
    triple, sextic = forward(t)
    assert all(p.is_transposition() for p in triple.perms)
    assert triple.is_transitive and sextic.is_transitive
    assert len(triple.perms) == len(t.perms) == len(sextic.perms)
    assert 2 - 2 * rh_genus(sextic) == 2 * (2 - 2 * rh_genus(triple))


def test_forward_rejects_bad_input():
    # non-transitive tuple
    flat = HurwitzTuple(4, [T(4, 0, 1)] * 12)
    with pytest.raises(MonodromyError):
        forward(flat)
    # non-simple branching
    v4 = Perm([1, 0, 3, 2])
    with pytest.raises(MonodromyError):
        forward(HurwitzTuple(4, [v4, v4] + [T(4, 0, 1)] * 2 + [T(4, 0, 1)] * 2))


def test_klein_four_closure_maps_to_identity_product():
    # products lying in the kernel push to identity products on 3 sheets
    rng = random.Random(3)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for _ in range(50):
        draws = [T(4, *rng.choice(pairs)) for _ in range(7)]
        prod_p = Perm.identity(4)
        for p in draws:
            prod_p = prod_p * p
        if not s4_to_s3(prod_p).is_identity():
            continue
        images = [s4_to_s3(p) for p in draws]
        acc = Perm.identity(3)
        for p in images:
            acc = acc * p
        assert acc.is_identity()


def test_octahedron_table_sanity():
    # A face takes one vertex from each opposite vertex pair; opposite faces
    # share no vertex; the four face pairs partition the 8 faces, each pair
    # listed by its face through vertex 0.
    vertex_pairs = recillas._OPPOSITE_VERTICES
    pairs = recillas._OPPOSITE_FACES
    assert len(pairs) == 4
    faces = [face for pair in pairs for face in pair]
    assert len(set(faces)) == 8
    assert set(faces) == {frozenset(f) for f in itertools.product(*map(sorted, vertex_pairs))}
    for pair in pairs:
        first, second = sorted(pair, key=lambda face: 0 not in face)
        assert 0 in first and not (first & second)
        assert second == frozenset(v ^ 1 for v in first)
    assert [next(face for face in pair if 0 in face) for pair in pairs] == [
        {0, 2, 4},
        {0, 2, 5},
        {0, 3, 4},
        {0, 3, 5},
    ]


# The induced actions, pinned as tables.  A sheet permutation maps to its
# images on the pair-partitions (S3) and on the 2-subsets (S6); a lift that
# preserves the opposite vertex pairs maps to its image on the pairs of
# opposite faces (S4).
S4_IMAGES = {
    (0, 1, 2, 3): ((0, 1, 2), (0, 1, 2, 3, 4, 5)),
    (0, 1, 3, 2): ((0, 2, 1), (0, 1, 4, 5, 2, 3)),
    (0, 2, 1, 3): ((1, 0, 2), (2, 3, 0, 1, 4, 5)),
    (0, 2, 3, 1): ((1, 2, 0), (2, 3, 4, 5, 0, 1)),
    (0, 3, 1, 2): ((2, 0, 1), (4, 5, 0, 1, 2, 3)),
    (0, 3, 2, 1): ((2, 1, 0), (4, 5, 2, 3, 0, 1)),
    (1, 0, 2, 3): ((0, 2, 1), (0, 1, 5, 4, 3, 2)),
    (1, 0, 3, 2): ((0, 1, 2), (0, 1, 3, 2, 5, 4)),
    (1, 2, 0, 3): ((2, 0, 1), (5, 4, 0, 1, 3, 2)),
    (1, 2, 3, 0): ((2, 1, 0), (5, 4, 3, 2, 0, 1)),
    (1, 3, 0, 2): ((1, 0, 2), (3, 2, 0, 1, 5, 4)),
    (1, 3, 2, 0): ((1, 2, 0), (3, 2, 5, 4, 0, 1)),
    (2, 0, 1, 3): ((1, 2, 0), (2, 3, 5, 4, 1, 0)),
    (2, 0, 3, 1): ((1, 0, 2), (2, 3, 1, 0, 5, 4)),
    (2, 1, 0, 3): ((2, 1, 0), (5, 4, 2, 3, 1, 0)),
    (2, 1, 3, 0): ((2, 0, 1), (5, 4, 1, 0, 2, 3)),
    (2, 3, 0, 1): ((0, 1, 2), (1, 0, 2, 3, 5, 4)),
    (2, 3, 1, 0): ((0, 2, 1), (1, 0, 5, 4, 2, 3)),
    (3, 0, 1, 2): ((2, 1, 0), (4, 5, 3, 2, 1, 0)),
    (3, 0, 2, 1): ((2, 0, 1), (4, 5, 1, 0, 3, 2)),
    (3, 1, 0, 2): ((1, 2, 0), (3, 2, 4, 5, 1, 0)),
    (3, 1, 2, 0): ((1, 0, 2), (3, 2, 1, 0, 4, 5)),
    (3, 2, 0, 1): ((0, 2, 1), (1, 0, 4, 5, 3, 2)),
    (3, 2, 1, 0): ((0, 1, 2), (1, 0, 3, 2, 4, 5)),
}
FACE_PAIR_IMAGES = {
    (0, 1, 2, 3, 4, 5): (0, 1, 2, 3),
    (0, 1, 2, 3, 5, 4): (1, 0, 3, 2),
    (0, 1, 3, 2, 4, 5): (2, 3, 0, 1),
    (0, 1, 3, 2, 5, 4): (3, 2, 1, 0),
    (0, 1, 4, 5, 2, 3): (0, 2, 1, 3),
    (0, 1, 4, 5, 3, 2): (2, 0, 3, 1),
    (0, 1, 5, 4, 2, 3): (1, 3, 0, 2),
    (0, 1, 5, 4, 3, 2): (3, 1, 2, 0),
    (1, 0, 2, 3, 4, 5): (3, 2, 1, 0),
    (1, 0, 2, 3, 5, 4): (2, 3, 0, 1),
    (1, 0, 3, 2, 4, 5): (1, 0, 3, 2),
    (1, 0, 3, 2, 5, 4): (0, 1, 2, 3),
    (1, 0, 4, 5, 2, 3): (3, 1, 2, 0),
    (1, 0, 4, 5, 3, 2): (1, 3, 0, 2),
    (1, 0, 5, 4, 2, 3): (2, 0, 3, 1),
    (1, 0, 5, 4, 3, 2): (0, 2, 1, 3),
    (2, 3, 0, 1, 4, 5): (0, 1, 3, 2),
    (2, 3, 0, 1, 5, 4): (1, 0, 2, 3),
    (2, 3, 1, 0, 4, 5): (3, 2, 0, 1),
    (2, 3, 1, 0, 5, 4): (2, 3, 1, 0),
    (2, 3, 4, 5, 0, 1): (0, 3, 1, 2),
    (2, 3, 4, 5, 1, 0): (3, 0, 2, 1),
    (2, 3, 5, 4, 0, 1): (1, 2, 0, 3),
    (2, 3, 5, 4, 1, 0): (2, 1, 3, 0),
    (3, 2, 0, 1, 4, 5): (2, 3, 1, 0),
    (3, 2, 0, 1, 5, 4): (3, 2, 0, 1),
    (3, 2, 1, 0, 4, 5): (1, 0, 2, 3),
    (3, 2, 1, 0, 5, 4): (0, 1, 3, 2),
    (3, 2, 4, 5, 0, 1): (2, 1, 3, 0),
    (3, 2, 4, 5, 1, 0): (1, 2, 0, 3),
    (3, 2, 5, 4, 0, 1): (3, 0, 2, 1),
    (3, 2, 5, 4, 1, 0): (0, 3, 1, 2),
    (4, 5, 0, 1, 2, 3): (0, 2, 3, 1),
    (4, 5, 0, 1, 3, 2): (2, 0, 1, 3),
    (4, 5, 1, 0, 2, 3): (3, 1, 0, 2),
    (4, 5, 1, 0, 3, 2): (1, 3, 2, 0),
    (4, 5, 2, 3, 0, 1): (0, 3, 2, 1),
    (4, 5, 2, 3, 1, 0): (3, 0, 1, 2),
    (4, 5, 3, 2, 0, 1): (2, 1, 0, 3),
    (4, 5, 3, 2, 1, 0): (1, 2, 3, 0),
    (5, 4, 0, 1, 2, 3): (1, 3, 2, 0),
    (5, 4, 0, 1, 3, 2): (3, 1, 0, 2),
    (5, 4, 1, 0, 2, 3): (2, 0, 1, 3),
    (5, 4, 1, 0, 3, 2): (0, 2, 3, 1),
    (5, 4, 2, 3, 0, 1): (1, 2, 3, 0),
    (5, 4, 2, 3, 1, 0): (2, 1, 0, 3),
    (5, 4, 3, 2, 0, 1): (3, 0, 1, 2),
    (5, 4, 3, 2, 1, 0): (0, 3, 2, 1),
}


def test_s4_images_are_pinned():
    assert len(S4_IMAGES) == 24
    for p in S4:
        assert (s4_to_s3(p).images, s4_to_s6(p).images) == S4_IMAGES[p.images]


def test_face_pair_action_is_pinned():
    # Exactly the 48 permutations of the six vertices that keep opposite
    # vertices opposite act on the face pairs; each of the other 672 moves an
    # opposite vertex pair, and so a face pair, out of its system.
    assert len(FACE_PAIR_IMAGES) == 48
    for images in itertools.permutations(range(6)):
        p6 = Perm(images)
        if images in FACE_PAIR_IMAGES:
            faces = recillas._induced(p6, recillas._OPPOSITE_FACES)
            assert faces.images == FACE_PAIR_IMAGES[images]
        else:
            for system in (recillas._OPPOSITE_VERTICES, recillas._OPPOSITE_FACES):
                with pytest.raises(MonodromyError):
                    recillas._induced(p6, system)
    # reverse reads each lift entry through the same table.
    triple, sextic = forward(random_tuple(4, 12, seed=10))
    back = reverse(triple, sextic)
    assert [p.images for p in back.perms] == [FACE_PAIR_IMAGES[p.images] for p in sextic.perms]


def test_reverse_round_trip_with_explicit_conjugator():
    rng = random.Random(4)
    for _ in range(100):
        t = random_tuple(4, 12, rng=rng)
        try:
            triple, sextic = forward(t)
        except MonodromyError:
            continue
        back = reverse(triple, sextic)
        g = find_conjugator(t, back)
        assert g is not None
        assert t.conjugate(g) == back


def test_reverse_rejects_split_lift():
    t = random_tuple(4, 12, seed=5)
    triple, _ = forward(t)
    # the split double cover: vertices 2s, 2s+1 over sheet s, never mixed;
    # it projects correctly but is disconnected
    split = HurwitzTuple(
        6, [Perm([2 * p(i // 2) + (i % 2) for i in range(6)]) for p in triple.perms]
    )
    with pytest.raises(MonodromyError):
        reverse(triple, split)


def test_reverse_rejects_ramified_lift():
    t = random_tuple(4, 12, seed=6)
    triple, sextic = forward(t)
    # gluing the two points over a fixed sheet ramifies the cover
    perms = list(sextic.perms)
    for i, (p3, p6) in enumerate(zip(triple.perms, perms)):
        fixed = [s for s in range(3) if p3(s) == s]
        if not fixed:
            continue
        s = fixed[0]
        va, vb = 2 * s, 2 * s + 1
        if p6(va) == va and p6(vb) == vb:
            imgs = list(p6.images)
            imgs[va], imgs[vb] = vb, va
            j = i
            swapped = Perm(imgs)
            break
    else:
        pytest.skip("no convenient fiber to glue")
    # fix the product by appending nothing: instead just check projection or
    # etale detection fires on the doctored tuple
    doctored = perms[:j] + [swapped] + perms[j + 1 :]
    with pytest.raises(MonodromyError):
        # product may also break; either way reverse must refuse
        reverse(triple, HurwitzTuple(6, doctored))


def test_random_tuple_deterministic_and_well_formed():
    t1 = random_tuple(4, 12, seed=7)
    t2 = random_tuple(4, 12, seed=7)
    assert t1 == t2
    assert all(p.is_transposition() for p in t1.perms)
    assert t1.is_transitive
    assert len(t1.perms) == 12


def test_frobenius_count_examples():
    assert frobenius_count(4, 2) == 6
    # via the character table: (36/24)(1 + 1 + 0 + 1 + 1) = 6
    assert frobenius_count(4, 2) == (36 * 4) // 24
    with pytest.raises(MonodromyError):
        frobenius_count(5, 2)


@pytest.mark.parametrize("n,kmax", [(4, 4), (3, 5)])
def test_frobenius_matches_brute_force(n, kmax):
    for k in range(0, kmax + 1):
        assert frobenius_count(n, k) == brute_force_tuple_count(n, k)


def test_acceptance_rate_matches_frobenius_within_3_sigma():
    # accepting an 11-draw iff its product is a transposition is the same
    # event as extending to a 12-tuple with identity product
    rng = random.Random(8)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    trials = 10_000
    hits = 0
    for _ in range(trials):
        prod_p = Perm.identity(4)
        for _ in range(11):
            prod_p = prod_p * T(4, *rng.choice(pairs))
        if prod_p.is_transposition():
            hits += 1
    p = frobenius_count(4, 12) / 6**11
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_genus_triple_helper():
    t = random_tuple(4, 12, seed=9)
    g = roundtrip_check(t)
    assert isinstance(g, Perm)
