"""The trigonal construction as exact combinatorics on monodromy tuples.

A branched cover of the line is encoded by its Hurwitz tuple: one permutation
per branch point, multiplying (left to right) to the identity, transitive
when the cover is connected.  A simply branched quadruple cover maps to a
triple cover (the action on the three pair-partitions ab+cd, ac+bd, ad+bc)
plus an everywhere-unramified double cover of it (the action on the six
2-subsets); the reverse direction goes through the octahedron whose four
pairs of opposite faces are the four recovered sheets.

All four maps are induced actions on ordered set systems: a permutation of
the sheets moves each member of a fixed, ordered tuple of sets of sheets (the
pair-partitions, the 2-subsets, the opposite vertex pairs, the pairs of
opposite faces), and ``_induced`` reads off where each member goes.  The
orders of these tuples are the module's labeling conventions; round-trip
correctness up to a global relabeling is the contract that matters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product


class MonodromyError(ValueError):
    pass


class Perm:
    """A permutation of {0, ..., n-1} in one-line notation (internally 0-based).

    The constructor checks its images once, at the input boundary; the
    permutations that products, inverses and induced actions build are
    permutations by construction and skip the check (``_of``)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise MonodromyError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def _of(cls, images: tuple) -> "Perm":
        """The permutation with these images, unchecked."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int):
        return cls._of(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int):
        im = list(range(n))
        im[i], im[j] = j, i
        return cls(im)

    @classmethod
    def from_one_indexed(cls, images):
        return cls([i - 1 for i in images])

    def to_one_indexed(self) -> list[int]:
        return [i + 1 for i in self.images]

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        """Left-to-right composition: (p * q)(i) = q(p(i))."""
        if other.n != self.n:
            raise MonodromyError("degree mismatch")
        return Perm._of(tuple([other.images[x] for x in self.images]))

    def inverse(self) -> "Perm":
        out = [0] * self.n
        for i, x in enumerate(self.images):
            out[x] = i
        return Perm._of(tuple(out))

    def __eq__(self, other):
        return isinstance(other, Perm) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.to_one_indexed()}"

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images))

    def is_transposition(self) -> bool:
        moved = [i for i, x in enumerate(self.images) if x != i]
        return len(moved) == 2

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def conjugate(self, g: "Perm") -> "Perm":
        """g^-1 * self * g in the left-to-right convention."""
        return g.inverse() * self * g


class HurwitzTuple:
    """An ordered tuple of permutations with product (left to right) = identity."""

    __slots__ = ("degree", "perms", "_transitive")

    def __init__(self, degree: int, perms):
        perms = tuple(perms)
        for p in perms:
            if p.n != degree:
                raise MonodromyError("permutation degree mismatch")
        prod_p = Perm.identity(degree)
        for p in perms:
            prod_p = prod_p * p
        if not prod_p.is_identity():
            raise MonodromyError("tuple product is not the identity")
        self.degree = degree
        self.perms = perms
        self._transitive = _orbits_count(degree, perms) == 1

    @property
    def is_transitive(self) -> bool:
        return self._transitive

    def __eq__(self, other):
        return (
            isinstance(other, HurwitzTuple)
            and other.degree == self.degree
            and other.perms == self.perms
        )

    def __repr__(self):
        return f"HurwitzTuple(n={self.degree}, k={len(self.perms)})"

    def conjugate(self, g: Perm) -> "HurwitzTuple":
        return HurwitzTuple(self.degree, [p.conjugate(g) for p in self.perms])


def _orbits_count(n: int, perms) -> int:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for i, x in enumerate(p.images):
            ra, rb = find(i), find(x)
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(n)})


def rh_genus(t: HurwitzTuple) -> int:
    """Genus from 2 - 2g = 2n - sum over entries of (n - #cycles)."""
    if not t.is_transitive:
        raise MonodromyError("genus undefined for a disconnected cover")
    n = t.degree
    ram = sum(n - len(p.cycles()) for p in t.perms)
    chi = 2 * n - ram
    if chi % 2:
        raise MonodromyError("odd Euler characteristic; bad tuple")
    return (2 - chi) // 2


# Sheets of the quadruple cover are a,b,c,d = 0,1,2,3.  Fixed symbol orders:
_PAIR_PARTITIONS = (
    frozenset({frozenset({0, 1}), frozenset({2, 3})}),  # ab+cd
    frozenset({frozenset({0, 2}), frozenset({1, 3})}),  # ac+bd
    frozenset({frozenset({0, 3}), frozenset({1, 2})}),  # ad+bc
)
_TWO_SUBSETS = (
    frozenset({0, 1}),  # {a,b}
    frozenset({2, 3}),  # {c,d}
    frozenset({0, 2}),  # {a,c}
    frozenset({1, 3}),  # {b,d}
    frozenset({0, 3}),  # {a,d}
    frozenset({1, 2}),  # {b,c}
)
# Opposite pairs of octahedron vertices, in the order x, y, z: vertex v is
# opposite v ^ 1 and lies over sheet v // 2 of the triple cover.
_OPPOSITE_VERTICES = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
# The four pairs of opposite faces.  A face takes one vertex from each
# opposite pair; each pair is listed by its face through vertex 0 = x'.
_OPPOSITE_FACES = tuple(
    frozenset({frozenset({0, y, z}), frozenset({1, y ^ 1, z ^ 1})})
    for y in (2, 3)
    for z in (4, 5)
)
# Each system's members with their places, built once.
_PLACES = {
    system: {member: k for k, member in enumerate(system)}
    for system in (_PAIR_PARTITIONS, _TWO_SUBSETS, _OPPOSITE_VERTICES, _OPPOSITE_FACES)
}


def _moved(images, s: frozenset) -> frozenset:
    """The image of s, a set of sheets or a set of such sets."""
    return frozenset(images[x] if type(x) is int else _moved(images, x) for x in s)


def _induced(
    p: Perm, system: tuple, error: str = "permutation does not preserve the set system"
) -> Perm:
    """The permutation p induces on the members of a fixed, ordered system
    of sets of sheets (or of sets of such sets); MonodromyError(error) when
    p moves a member out of the system."""
    places = _PLACES[system]
    try:
        return Perm._of(tuple([places[_moved(p.images, member)] for member in system]))
    except KeyError:
        raise MonodromyError(error) from None


def s4_to_s3(p: Perm) -> Perm:
    """Induced action on the three pair-partitions (the Klein-four quotient)."""
    if p.n != 4:
        raise MonodromyError("s4_to_s3 needs degree 4")
    return _induced(p, _PAIR_PARTITIONS)


def s4_to_s6(p: Perm) -> Perm:
    """Induced action on the six 2-subsets of the sheets."""
    if p.n != 4:
        raise MonodromyError("s4_to_s6 needs degree 4")
    return _induced(p, _TWO_SUBSETS)


def forward(t: HurwitzTuple) -> tuple[HurwitzTuple, HurwitzTuple]:
    """Quadruple cover -> (triple cover, its unramified double cover).

    Input entries must all be transpositions (simple branching) and the
    tuple transitive.  The triple image must again be transitive and
    consists of transpositions over the same branch points; the degree-6
    tuple is the etale double cover, certified by 2-2g_S = 2(2-2g_C).
    """
    if t.degree != 4:
        raise MonodromyError("forward needs a tuple on 4 sheets")
    if not t.is_transitive:
        raise MonodromyError("disconnected quadruple cover")
    if not all(p.is_transposition() for p in t.perms):
        raise MonodromyError("branching is not simple (non-transposition entry)")
    triple = HurwitzTuple(3, [s4_to_s3(p) for p in t.perms])
    sextic = HurwitzTuple(6, [s4_to_s6(p) for p in t.perms])
    if not all(p.is_transposition() for p in triple.perms):
        raise MonodromyError("triple image not simply branched")
    if not triple.is_transitive:
        raise MonodromyError("triple image not transitive")
    if not sextic.is_transitive:
        raise MonodromyError("double cover disconnected")
    g_c, g_s = rh_genus(triple), rh_genus(sextic)
    if 2 - 2 * g_s != 2 * (2 - 2 * g_c):
        raise MonodromyError("double cover is not etale (Euler characteristic)")
    return triple, sextic


def reverse(triple: HurwitzTuple, lift: HurwitzTuple) -> HurwitzTuple:
    """(triple cover, etale double cover) -> quadruple cover.

    The six sheets of the lift are octahedron vertices x',x'',y',y'',z',z''
    (opposite pairs (0,1), (2,3), (4,5)) lying over the triple cover's sheets
    x, y, z; the output is the induced action on the four pairs of opposite
    faces.  Inverse to ``forward`` up to a global relabeling of the sheets.
    """
    if triple.degree != 3 or lift.degree != 6:
        raise MonodromyError("reverse needs degrees (3, 6)")
    if len(triple.perms) != len(lift.perms):
        raise MonodromyError("branch-point counts differ")
    if not triple.is_transitive:
        raise MonodromyError("triple cover disconnected")
    if not lift.is_transitive:
        raise MonodromyError("double cover disconnected (split lift)")
    not_projecting = "lift does not project to the triple tuple"
    for p3, p6 in zip(triple.perms, lift.perms):
        # Projection: p6 must move the opposite vertex pairs as p3 moves the sheets.
        if _induced(p6, _OPPOSITE_VERTICES, not_projecting) != p3:
            raise MonodromyError(not_projecting)
        # Etale: the two vertices over a sheet are never glued along a cycle,
        # i.e. every cycle of p3 is covered by two cycles of equal length.
        cycles6 = p6.cycles()
        for cyc in p3.cycles():
            covering = [c for c in cycles6 if c[0] // 2 in cyc]
            lengths = sorted(len(c) for c in covering)
            if lengths != [len(cyc), len(cyc)]:
                raise MonodromyError("lift is ramified over a branch point")
    result = HurwitzTuple(4, [_induced(p6, _OPPOSITE_FACES) for p6 in lift.perms])
    if not all(p.is_transposition() for p in result.perms):
        raise MonodromyError("reverse output not simply branched")
    if not result.is_transitive:
        raise MonodromyError("reverse output disconnected")
    return result


def find_conjugator(a: HurwitzTuple, b: HurwitzTuple):
    """A permutation g with a.conjugate(g) == b, or None."""
    if a.degree != b.degree or len(a.perms) != len(b.perms):
        return None
    for images in permutations(range(a.degree)):
        g = Perm(images)
        if all(p.conjugate(g) == q for p, q in zip(a.perms, b.perms)):
            return g
    return None


def random_tuple(n: int = 4, k: int = 12, seed: int = 0, rng=None) -> HurwitzTuple:
    """A random transitive k-transposition tuple with identity product.

    Rejection sampling: draw k-1 uniform transpositions, accept when their
    product is itself a transposition, close up with its inverse, then
    require transitivity.  Deterministic for a given seed.
    """
    if k < 2 or (n == 4 and k % 2):
        raise MonodromyError("no such transposition tuples (parity)")
    if rng is None:
        rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    while True:
        draws = [
            Perm.transposition(n, *rng.choice(pairs)) for _ in range(k - 1)
        ]
        prod_p = Perm.identity(n)
        for p in draws:
            prod_p = prod_p * p
        if not prod_p.is_transposition():
            continue
        draws.append(prod_p.inverse())
        t = HurwitzTuple(n, draws)
        if t.is_transitive:
            return t


# Character tables on the transposition class, as (dimension, value) pairs.
_CHARS = {
    3: ((1, 1), (1, -1), (2, 0)),
    4: ((1, 1), (1, -1), (2, 0), (3, 1), (3, -1)),
}
_CLASS_SIZE = {3: 3, 4: 6}
_GROUP_ORDER = {3: 6, 4: 24}


def frobenius_count(n: int, k: int) -> int:
    """Number of k-tuples of transpositions in S_n with product identity.

    (|C|^k / |G|) * sum over irreducibles of chi(c)^k / chi(1)^(k-2);
    transitivity is not imposed.
    """
    if n not in _CHARS:
        raise MonodromyError(f"unsupported symmetric group S_{n}")
    total = Fraction(0)
    for dim, val in _CHARS[n]:
        total += Fraction(val, 1) ** k / Fraction(dim) ** (k - 2)
    count = Fraction(_CLASS_SIZE[n]) ** k / _GROUP_ORDER[n] * total
    if count.denominator != 1:
        raise MonodromyError("character sum did not come out integral")
    return int(count)


def brute_force_tuple_count(n: int, k: int) -> int:
    """Exhaustive count of identity-product transposition k-tuples (small k)."""
    transpositions = [
        Perm.transposition(n, i, j) for i, j in combinations(range(n), 2)
    ]
    count = 0
    for combo in product(transpositions, repeat=k):
        prod_p = Perm.identity(n)
        for p in combo:
            prod_p = prod_p * p
        if prod_p.is_identity():
            count += 1
    return count


def roundtrip_check(t: HurwitzTuple):
    """forward then reverse; returns the recovered conjugator g (never None
    for valid input) with reverse(forward(t)) == t.conjugate(g)."""
    triple, sextic = forward(t)
    back = reverse(triple, sextic)
    g = find_conjugator(t, back)
    if g is None:
        raise MonodromyError("round trip left the S4-conjugacy class")
    return g
