"""The rank-10 lattice Z H + Z E0 + ... + Z E8 with signature (1, 9).

Intersection form: H.H = 1, Ei.Ei = -1, mixed products 0; canonical class
K = -3H + E0 + ... + E8.  Minimal sections are the 240 classes S with
S.S = -1, S.K = -1, S.E0 = 0; under the height pairing <S,T> = 1 - S.T
they realize the E8 root system, and an explicit isometry onto the e8
module's coordinates is constructed once and cached.

Class systems are solved by one exact elimination (``solve_class``): the
dot constraints are row-reduced over Q and the genus condition is solved as
an integer quadratic.  The zero-section class E0 is reconstructed from an
orthogonal octuple of (-1)-classes by the same elimination.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import isqrt, lcm
from operator import mul
from types import MappingProxyType

from . import e8


class LatticeError(ValueError):
    pass


class DivClass:
    """h H + e0 E0 + ... + e8 E8 with integer coefficients."""

    __slots__ = ("h", "e")

    def __init__(self, h: int, e):
        e = tuple(int(c) for c in e)
        if len(e) != 9:
            raise LatticeError("need 9 exceptional coefficients")
        self.h = int(h)
        self.e = e

    def __eq__(self, other):
        return isinstance(other, DivClass) and other.h == self.h and other.e == self.e

    def __hash__(self):
        return hash((self.h, self.e))

    def __repr__(self):
        return f"DivClass({self.h}, {self.e})"

    def __add__(self, other):
        return DivClass(self.h + other.h, [a + b for a, b in zip(self.e, other.e)])

    def __sub__(self, other):
        return DivClass(self.h - other.h, [a - b for a, b in zip(self.e, other.e)])

    def __neg__(self):
        return DivClass(-self.h, [-c for c in self.e])

    def scale(self, n: int):
        return DivClass(n * self.h, [n * c for c in self.e])

    def as_vector(self) -> tuple[int, ...]:
        return (self.h,) + self.e


H = DivClass(1, [0] * 9)


def E(i: int) -> DivClass:
    e = [0] * 9
    e[i] = 1
    return DivClass(0, e)


K = DivClass(-3, [1] * 9)
FIBER = -K  # the anticanonical fiber class 3H - E0 - ... - E8


def dot(d1: DivClass, d2: DivClass) -> int:
    return d1.h * d2.h - sum(a * b for a, b in zip(d1.e, d2.e))


def adjunction_genus(d: DivClass) -> int:
    """(D.D + D.K)/2 + 1; integral by the parity of the form."""
    tot = dot(d, d) + dot(d, K)
    if tot % 2:
        raise LatticeError("adjunction sum is odd; not a lattice class?")
    return tot // 2 + 1


class Constraint:
    """Either an intersection-number equality D.target = value or a genus."""

    def __init__(self, kind: str, value: int, target: DivClass | None = None):
        if kind not in ("dot", "genus"):
            raise LatticeError(f"unknown constraint kind {kind!r}")
        if kind == "dot" and target is None:
            raise LatticeError("dot constraint needs a target class")
        self.kind = kind
        self.value = int(value)
        self.target = target

    def satisfied(self, d: DivClass) -> bool:
        if self.kind == "dot":
            return dot(d, self.target) == self.value
        return adjunction_genus(d) == self.value


# Cap on the enumeration solve_class has left after elimination:
# (2 box + 1) to the number of coordinates it still enumerates.  Each
# enumerated tuple yields at most two roots, and lines where the genus
# quadratic degenerates add at most as many candidates again.  Near the cap
# a request takes about 10 s (three generators, a genus constraint only, box
# 499: 999^2 lines, on a 2-vCPU Xeon).  The halving systems enumerate no
# coordinate at any box.
MAX_ENUMERATION = 10**6


class EnumerationTooLarge(LatticeError):
    """The box leaves more than MAX_ENUMERATION tuples to enumerate."""


def solve_class(generators, constraints, box: int = 20):
    """All integer tuples (x_i), |x_i| <= box, with D = sum x_i G_i meeting the constraints.

    Up to 3 generators.  The dot constraints are linear: row reduction
    writes the pivot coordinates as affine functions of the n - r free ones,
    r the rank of the constraints.  All free coordinates but the last are
    enumerated over the box; along the last one the genus condition is an
    integer quadratic, solved exactly.  With no genus constraint, or where
    the quadratic is constant along the line, that coordinate is enumerated
    too.  Every candidate must be integral and pass the scan's tests: the box
    on every coordinate, the parity of the adjunction sum and each genus.

    Cost O(box^(n - r - 1)) instead of the scan's O(box^n); a system that
    leaves more than MAX_ENUMERATION tuples raises EnumerationTooLarge.
    Returns the tuples of ``_solve_class_scan`` in the same (sorted) order
    and raises the same LatticeError when there are none.
    """
    if not 1 <= len(generators) <= 3:
        raise LatticeError("solve_class takes 1 to 3 generators")
    sols = _lattice_points(generators, constraints, box)
    if not sols:
        raise LatticeError(f"no solution with coefficients in [-{box}, {box}]")
    return sols


def _lattice_points(generators, constraints, box):
    """The sorted integer tuples of ``solve_class``, for any number of
    generators; empty when there are none.

    ``box=None`` bounds no coordinate, so the elimination must leave none to
    enumerate: at most one free coordinate, along which the genus quadratic
    is not constant.  Otherwise it raises LatticeError.
    """
    n = len(generators)
    gram = [[dot(a, b) for b in generators] for a in generators]
    kdots = [dot(g, K) for g in generators]
    rows = []  # augmented rows [D.G_1, ..., D.G_n | value] of the dot constraints
    genus_targets = []
    for c in constraints:
        if c.kind == "dot":
            rows.append([dot(g, c.target) for g in generators] + [c.value])
        else:
            genus_targets.append(c.value)

    def pair(u, v):  # u.G.v on coefficient vectors
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    def kdot(u):
        return sum(a * b for a, b in zip(u, kdots))

    def meets(xs):  # the scan's tests, on an integer tuple
        if box is not None and any(abs(x) > box for x in xs):
            return False
        if genus_targets:
            tot = pair(xs, xs) + kdot(xs)
            if tot % 2 or any(tot // 2 + 1 != t for t in genus_targets):
                return False
        return True

    sols = []
    solution = _affine_solution(rows, n)
    if solution is not None:
        # Every rational solution of the dot rows is X / den with
        # X = base + sum_f x_f dir_f over the free coordinates x_f.
        den, base, dirs = solution
        line = dirs[-1] if genus_targets and dirs else None
        walk = dirs[:-1] if line is not None else dirs
        constant = False
        if line is not None:
            # den^2 (D.D + D.K) along X = P + s line is qa s^2 + qb s + qc,
            # to equal den^2 2 (genus - 1).  qa and the slopes of qb in the
            # walked coordinates do not depend on the point P.
            qa = pair(line, line)
            slopes = [2 * pair(d, line) for d in walk]
            qb0 = 2 * pair(base, line) + den * kdot(line)
            shift = 2 * (genus_targets[0] - 1) * den * den
            constant = qa == 0 and qb0 == 0 and not any(slopes)
        enumerated = len(walk) + constant
        if box is None and enumerated:
            raise LatticeError(f"{enumerated} coordinate(s) left to enumerate and no box")
        rng = range(-box, box + 1) if box is not None else ()
        size = (2 * box + 1) ** enumerated if enumerated else 1
        if size > MAX_ENUMERATION:
            raise EnumerationTooLarge(
                f"box {box} leaves (2 box + 1)^{enumerated} = {size} tuples to "
                f"enumerate, over the cap {MAX_ENUMERATION}"
            )
        for ts in product(rng, repeat=len(walk)):
            point = base
            for t, d in zip(ts, walk):
                point = [p + t * c for p, c in zip(point, d)]
            if line is None:
                candidates = [point]
            else:
                qb = qb0 + sum(t * m for t, m in zip(ts, slopes))
                qc = pair(point, point) + den * kdot(point) - shift
                steps = rng if qa == qb == 0 else _integer_quadratic_roots(qa, qb, qc)
                candidates = ([p + s * v for p, v in zip(point, line)] for s in steps)
            for scaled in candidates:
                if all(c % den == 0 for c in scaled):
                    xs = tuple(c // den for c in scaled)
                    if meets(xs):
                        sols.append(xs)
    return sorted(sols)


def _affine_solution(rows, n: int):
    """The rational solutions of augmented integer rows [a_1 .. a_n | b].

    ``e8.row_reduce`` over Q.  Returns (den, base, dirs), integral, such
    that the solutions are exactly (base + sum_f x_f dirs_f) / den, one
    direction per free column f in increasing order with entry den at f; or
    None when the rows are inconsistent.
    """
    m, pivots, _ = e8.row_reduce(rows, n)
    if any(row[n] for row in m[len(pivots):]):
        return None
    den = lcm(*(v.denominator for row in m for v in row))
    base = [0] * n
    for row, p in zip(m, pivots):
        base[p] = int(row[n] * den)
    dirs = []
    for f in range(n):
        if f in pivots:
            continue
        d = [0] * n
        d[f] = den
        for row, p in zip(m, pivots):
            d[p] = int(-row[f] * den)
        dirs.append(d)
    return den, base, dirs


def _solve_class_scan(generators, constraints, box: int = 20):
    """The reference for ``solve_class``, which picard-solve and
    picard-report run: every tuple of the box, tested.

    Exhaustive, (2 box + 1)^n tuples; up to 3 generators.  Constraints are
    evaluated through precomputed pairings, so the scan is arithmetic on
    small ints.  Only the tests call it.
    """
    n = len(generators)
    if not 1 <= n <= 3:
        raise LatticeError("solve_class takes 1 to 3 generators")
    gram = [[dot(a, b) for b in generators] for a in generators]
    kdots = [dot(g, K) for g in generators]
    lin = []  # (coefficients, value) for each dot constraint
    genus_targets = []
    for c in constraints:
        if c.kind == "dot":
            lin.append(([dot(g, c.target) for g in generators], c.value))
        else:
            genus_targets.append(c.value)
    sols = []
    rng = range(-box, box + 1)
    for xs in product(rng, repeat=n):
        ok = True
        for coeffs, val in lin:
            if sum(x * c for x, c in zip(xs, coeffs)) != val:
                ok = False
                break
        if not ok:
            continue
        if genus_targets:
            sq = sum(
                xs[i] * xs[j] * gram[i][j] for i in range(n) for j in range(n)
            )
            dk = sum(x * c for x, c in zip(xs, kdots))
            if (sq + dk) % 2:
                continue
            g = (sq + dk) // 2 + 1
            if any(g != t for t in genus_targets):
                continue
        sols.append(xs)
    if not sols:
        raise LatticeError(f"no solution with coefficients in [-{box}, {box}]")
    return sols


def _sum_e(indices) -> DivClass:
    e = [0] * 9
    for i in indices:
        e[i] = 1
    return DivClass(0, e)


def halving_class_systems() -> dict:
    """The three class computations for the fiberwise halving loci.

    Each entry: (generators, constraints, expected unique solution).

    * quartic 4-section through a chosen disjoint section pair
      (a canonical pencil of a genus-3 curve): aH + b(E0+E1) + cE,
      disjoint from E0, 4-section, genus 3  ->  (6, 0, -2).
    * two-torsion 3-section (theta pencil of a genus-4 curve):
      aH + b(E1+..+E8) + cE0, disjoint from E0, 3-section, genus 4
      ->  (9, -3, 0).
    * halving the class H - E0 (hyperelliptic genus-3 quintic with a
      triple point at the E0 base point): aH + bE0 + c(E1+..+E8),
      4-section, genus 3, triple point over E0 (D.E0 = 3)
      ->  (5, -3, -1).
    """
    E_28 = _sum_e(range(2, 9))
    E_18 = _sum_e(range(1, 9))
    return {
        "quartic_cover": (
            [H, E(0) + E(1), E_28],
            [
                Constraint("dot", 0, E(0)),
                Constraint("dot", 4, FIBER),
                Constraint("genus", 3),
            ],
            (6, 0, -2),
        ),
        "two_torsion": (
            [H, E_18, E(0)],
            [
                Constraint("dot", 0, E(0)),
                Constraint("dot", 3, FIBER),
                Constraint("genus", 4),
            ],
            (9, -3, 0),
        ),
        "quintic_triple_point": (
            [H, E(0), E_18],
            [
                Constraint("dot", 3, E(0)),
                Constraint("dot", 4, FIBER),
                Constraint("genus", 3),
            ],
            (5, -3, -1),
        ),
    }


@lru_cache(maxsize=None)
def solve_halving_classes() -> MappingProxyType:
    """Run the three systems once per process; each must have a unique
    solution in the box.  Every caller shares the read-only result.  The
    systems are constants, so a wrong solution is an internal error
    (ArithmeticError), not an input error."""
    out = {}
    for name, (gens, cons, expected) in halving_class_systems().items():
        sols = solve_class(gens, cons)
        if len(sols) != 1:
            raise ArithmeticError(f"system {name} not unique in the box: {sols}")
        if sols[0] != expected:
            raise ArithmeticError(f"system {name} solved to {sols[0]}, wanted {expected}")
        out[name] = sols[0]
    return MappingProxyType(out)


# Search box for minimal sections.  The two constraints force h <= 7 by
# Cauchy-Schwarz ((1-3h)^2 <= 8(h^2+1)) and the occupied range is
# h in [0,6], e_i in [-3,1]; the box extends one step past that range so
# completeness is visible: nothing may sit on the open-side boundary.
_H_MAX = 7
_E_RANGE = (-4, 2)


@lru_cache(maxsize=None)
def enumerate_minimal_sections() -> tuple[DivClass, ...]:
    """The 240 classes with S.S = -1, S.K = -1, S.E0 = 0, by exhaustive search.

    S.E0 = -e0 = 0 forces e0 = 0; the remaining constraints,
    S.K = -3h - sum(e) = -1 and S.S = h^2 - sum(e^2) = -1, are symmetric in
    e1..e8, so the box is searched as sorted 8-multisets and each solution
    yields its distinct orderings.  A solution on the box boundary or a
    count other than 240 is an internal error (ArithmeticError).
    """
    lo, hi = _E_RANGE
    out = []
    for h in range(0, _H_MAX + 1):
        for m in combinations_with_replacement(range(lo, hi + 1), 8):
            if sum(m) == 1 - 3 * h and sum(c * c for c in m) == h * h + 1:
                out.extend(DivClass(h, (0,) + e) for e in _distinct_orderings(m))
    for s in out:
        if s.h == _H_MAX or any(c in _E_RANGE for c in s.e[1:]):
            raise ArithmeticError(f"solution {s} on the search-box boundary")
    if len(out) != 240:
        raise ArithmeticError(f"expected 240 minimal sections, found {len(out)}")
    return tuple(sorted(out, key=lambda s: s.as_vector()))


def _distinct_orderings(m):
    """Each distinct ordering of the sorted tuple m once, in increasing
    lexicographic order (the next-permutation step, Knuth's Algorithm L)."""
    a = list(m)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def lattice_height(s: DivClass, t: DivClass) -> int:
    """<S,T> = 1 + S.E0 + T.E0 - S.T on section classes (here S.E0 = 0)."""
    for c in (s, t):
        if dot(c, c) != -1 or dot(c, K) != -1 or dot(c, E(0)) != 0:
            raise LatticeError(f"{c} is not a minimal section class")
    return 1 + dot(s, E(0)) + dot(t, E(0)) - dot(s, t)


@lru_cache(maxsize=None)
def pairings_against_first_section() -> tuple[int, ...]:
    """The distinct heights <S, S_1>, S over the 240 minimal sections and
    S_1 the first of them, in increasing order.

    The enumeration guarantees S.S = -1, S.K = -1 and S.E0 = 0, so the
    height is 1 - S.S_1 without ``lattice_height``'s re-checks.
    """
    sections = enumerate_minimal_sections()
    return tuple(sorted({1 - dot(s, sections[0]) for s in sections}))


def section_h_census() -> dict[int, int]:
    census: dict[int, int] = {}
    for s in enumerate_minimal_sections():
        census[s.h] = census.get(s.h, 0) + 1
    return census


def mw_image(s: DivClass) -> DivClass:
    """Projection S -> S - E0 + K, a (-2)-class orthogonal to K and E0.

    <S,T> = -(mw_image(S) . mw_image(T)): the height pairing is minus the
    induced negative-definite form on the orthogonal complement of (K, E0).
    """
    return s - E(0) + K


# Simple (-2)-classes orthogonal to K and E0 forming an E8 diagram:
# a chain E1-E2, ..., E7-E8 with H-E1-E2-E3 attached at the third node.
def simple_roots_pic() -> list[DivClass]:
    roots = [E(i) - E(i + 1) for i in range(1, 8)]
    roots.append(H - E(1) - E(2) - E(3))
    return roots


def _cartan_from(vectors, pairing) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(pairing(a, b) for b in vectors) for a in vectors)


@lru_cache(maxsize=None)
def section_isometry():
    """An explicit pairing-preserving bijection of the 240 section classes
    onto the 240 E8 roots.

    Returns (mapping, basis_pic, basis_e8) where mapping is a dict
    DivClass -> E8Vector.  Any valid isometry is acceptable; this one sends
    the simple roots of ``simple_roots_pic`` to those of ``e8.BASIS_DCOORDS``
    in order, so mw_image(S) goes to the same coordinates in the E8 basis.
    A failed construction, an E8 basis with another Cartan matrix included,
    is an internal error (ArithmeticError).
    """
    basis_pic = simple_roots_pic()
    basis_e8 = [e8.E8Vector(d) for d in e8.BASIS_DCOORDS]
    gram = _cartan_from(basis_pic, lambda a, b: -dot(a, b))
    if _cartan_from(basis_e8, e8.E8Vector.dot) != gram:
        raise ArithmeticError("e8.BASIS_DCOORDS does not have the Picard Cartan matrix")
    inverse, det = e8.exact_inverse(gram)
    if det not in (1, -1):
        raise ArithmeticError(f"Gram determinant {det}, expected a unit")
    if any(c.denominator != 1 for row in inverse for c in row):
        raise ArithmeticError("inverse not integral")
    gram_inv = [[int(c) for c in row] for row in inverse]

    sections = enumerate_minimal_sections()
    root_set = set(e8.enumerate_roots())
    pic_columns = list(zip(*(r.as_vector() for r in basis_pic)))
    mapping = {}
    for s in sections:
        phi = mw_image(s)
        pairings = [-dot(phi, r) for r in basis_pic]
        coords = [
            sum(gram_inv[i][j] * pairings[j] for j in range(8)) for i in range(8)
        ]
        # The coordinates must write phi itself, not only its pairings: then
        # the map basis_pic -> basis_e8 (equal Cartan matrices) carries phi.
        if tuple(sum(map(mul, coords, col)) for col in pic_columns) != phi.as_vector():
            raise ArithmeticError(f"mw_image of {s} is not a combination of the simple roots")
        img = [0] * 8
        for c, rv in zip(coords, basis_e8):
            for k in range(8):
                img[k] += c * rv.dcoords[k]
        vec = e8.E8Vector(img)
        if vec not in root_set:
            raise ArithmeticError(f"image of {s} is not an E8 root")
        mapping[s] = vec
    if len(set(mapping.values())) != 240:
        raise ArithmeticError("isometry is not injective on the 240 classes")
    return mapping, tuple(basis_pic), tuple(basis_e8)


@lru_cache(maxsize=None)
def verify_isometry() -> bool:
    """Check that each image pairs with basis_e8 as mw_image(S) pairs with
    basis_pic.

    section_isometry checked that basis_e8 has the Cartan matrix of
    basis_pic and wrote each mw_image(S) as an integer combination of
    basis_pic, so this makes the mapping the linear map basis_pic ->
    basis_e8, an isometry: the
    full 240 x 240 Gram data transports along it (the tests check that data
    too).  A constant of the cached isometry, so it runs once per process."""
    mapping, basis_pic, basis_e8 = section_isometry()
    return all(
        [v.dot(r) for r in basis_e8] == [-dot(mw_image(s), r) for r in basis_pic]
        for s, v in mapping.items()
    )


def negation_involution(s: DivClass) -> DivClass:
    """The section class pairing with s under fiberwise inversion.

    In lattice terms the unique minimal section mapping to -root under the
    isometry: S' = -S + 2E0 - 2K.
    """
    return -s + E(0).scale(2) - K.scale(2)


def reflect(d: DivClass, root: DivClass) -> DivClass:
    """Reflection in a (-2)-class orthogonal to K."""
    if dot(root, root) != -2:
        raise LatticeError("reflection needs a (-2)-class")
    return d + root.scale(dot(d, root))


def reconstruct_e0(octuple) -> DivClass:
    """Recover E0 from eight pairwise-orthogonal (-1)-classes.

    Solved by ``solve_class``'s elimination, unbounded, for D in the basis
    H, E0..E8: D.o = 0 for each member o, D.K = -1 and genus 0 (so
    D.D = -1).  The octuple spans -I_8 in a unimodular lattice, so the dot
    rows leave one free coordinate and the genus quadratic along it is not
    constant; its integral root is unique.
    """
    octuple = list(octuple)
    if len(octuple) != 8:
        raise LatticeError("need exactly 8 classes")
    for i, a in enumerate(octuple):
        if dot(a, a) != -1:
            raise LatticeError(f"class {i} has square {dot(a, a)}, expected -1")
        for b in octuple[i + 1 :]:
            if dot(a, b) != 0:
                raise LatticeError("classes are not pairwise orthogonal")
    constraints = [Constraint("dot", 0, o) for o in octuple]
    constraints += [Constraint("dot", -1, K), Constraint("genus", 0)]
    sols = _lattice_points([H] + [E(i) for i in range(9)], constraints, None)
    if len(sols) != 1:
        raise LatticeError(f"expected a unique reconstruction, got {sols}")
    return DivClass(sols[0][0], sols[0][1:])


@lru_cache(maxsize=None)
def standard_zero_base_class() -> DivClass:
    """E0 as ``reconstruct_e0`` recovers it from the standard octuple E1..E8.

    A constant of the lattice, so it runs once per process."""
    return reconstruct_e0([E(i) for i in range(1, 9)])


def _integer_quadratic_roots(a: int, b: int, c: int):
    if a == 0:
        if b == 0:
            raise LatticeError("degenerate quadratic")
        if c % b == 0:
            return [-c // b]
        return []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    out = []
    for num in (-b + r, -b - r):
        if num % (2 * a) == 0:
            out.append(num // (2 * a))
    return sorted(set(out))


@lru_cache(maxsize=None)
def mod2_section_classes() -> int:
    """Number of classes of the 240 sections modulo twice the section lattice.

    A constant of the cached isometry, so it runs once per process."""
    mapping, _, _ = section_isometry()
    return len({e8.mod2_key(v) for v in mapping.values()})


def intersection_examples() -> dict:
    """The two headline intersection numbers of the genus-4 two-torsion curve
    against the quartic-cover and quintic halving curves."""
    two_torsion = DivClass(9, [0] + [-3] * 8)
    quartic_cover = DivClass(6, [0, 0] + [-2] * 7)
    quintic = DivClass(5, [-3] + [-1] * 8)
    return {
        "two_torsion_vs_quartic_cover": dot(two_torsion, quartic_cover),
        "two_torsion_vs_quintic": dot(two_torsion, quintic),
        "genus": {
            "two_torsion": adjunction_genus(two_torsion),
            "quartic_cover": adjunction_genus(quartic_cover),
            "quintic": adjunction_genus(quintic),
        },
    }
