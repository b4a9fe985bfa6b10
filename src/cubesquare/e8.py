"""E8 lattice combinatorics: roots, norm-4 vectors, Weyl order, mod-2 census.

Vectors are stored in doubled coordinates (all entries of 2v), which makes
every lattice quantity an integer: membership is "all coordinates even with
sum divisible by 4, or all odd with sum divisible by 4", the inner product is
(sum of products)/4, and the norm of a root is 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul


def is_member_dcoords(d) -> bool:
    par = {c % 2 for c in d}
    return len(par) == 1 and sum(d) % 4 == 0


class E8Vector:
    """An E8 lattice vector in doubled coordinates."""

    __slots__ = ("dcoords",)

    def __init__(self, dcoords):
        d = tuple(int(c) for c in dcoords)
        if len(d) != 8:
            raise ValueError("need 8 coordinates")
        if not is_member_dcoords(d):
            raise ValueError(f"{d} is not in the lattice (doubled coordinates)")
        self.dcoords = d

    def __eq__(self, other):
        return isinstance(other, E8Vector) and other.dcoords == self.dcoords

    def __hash__(self):
        return hash(self.dcoords)

    def __repr__(self):
        return f"E8Vector{self.dcoords}"

    def __neg__(self):
        return E8Vector(tuple(-c for c in self.dcoords))

    def __add__(self, other):
        return E8Vector(tuple(a + b for a, b in zip(self.dcoords, other.dcoords)))

    def __sub__(self, other):
        return E8Vector(tuple(a - b for a, b in zip(self.dcoords, other.dcoords)))

    def dot(self, other) -> int:
        s = sum(a * b for a, b in zip(self.dcoords, other.dcoords))
        if s % 4 != 0:
            raise ValueError("inner product not integral; bad vectors")
        return s // 4


@lru_cache(maxsize=None)
def enumerate_roots() -> tuple[E8Vector, ...]:
    """The 240 norm-2 vectors: 112 of shape (+-2, +-2, 0^6) and 128 all-odd."""
    out = []
    for i, j in combinations(range(8), 2):
        for si in (2, -2):
            for sj in (2, -2):
                d = [0] * 8
                d[i], d[j] = si, sj
                out.append(E8Vector(d))
    for signs in product((1, -1), repeat=8):
        if sum(signs) % 4 == 0:
            out.append(E8Vector(signs))
    out.sort(key=lambda v: v.dcoords)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_norm4() -> tuple[E8Vector, ...]:
    """All 2160 norm-4 vectors, by coordinate shape."""
    out = []
    # (+-4, 0^7)
    for i in range(8):
        for s in (4, -4):
            d = [0] * 8
            d[i] = s
            out.append(E8Vector(d))
    # (+-2)^4 0^4
    for idx in combinations(range(8), 4):
        for signs in product((2, -2), repeat=4):
            d = [0] * 8
            for k, s in zip(idx, signs):
                d[k] = s
            out.append(E8Vector(d))
    # one +-3, seven +-1, sum = 0 mod 4
    for i in range(8):
        for s3 in (3, -3):
            for signs in product((1, -1), repeat=7):
                d = list(signs[:i]) + [s3] + list(signs[i:])
                if sum(d) % 4 == 0:
                    out.append(E8Vector(d))
    out.sort(key=lambda v: v.dcoords)
    return tuple(out)


# The lattice basis in doubled coordinates: eight simple roots, with the
# Cartan matrix of ``picard.simple_roots_pic`` in its order.  The first seven
# form the chain -e1-e2, e2-e3, ..., e7-e8; the eighth, the half-vector
# (1,-1,-1,1,1,1,1,1)/2, is attached at the third node.  Determinant -256 in
# doubled coordinates, so the basis is unimodular.
BASIS_DCOORDS = (
    (-2, -2, 0, 0, 0, 0, 0, 0),
    (0, 2, -2, 0, 0, 0, 0, 0),
    (0, 0, 2, -2, 0, 0, 0, 0),
    (0, 0, 0, 2, -2, 0, 0, 0),
    (0, 0, 0, 0, 2, -2, 0, 0),
    (0, 0, 0, 0, 0, 2, -2, 0),
    (0, 0, 0, 0, 0, 0, 2, -2),
    (1, -1, -1, 1, 1, 1, 1, 1),
)


def row_reduce(rows, ncols: int):
    """Gauss-Jordan elimination over Q on the first ``ncols`` columns.

    Returns (reduced, pivots, det): the rows over Fraction, pivot row i
    scaled to 1 at column pivots[i] and every other row 0 there; the pivot
    columns in increasing order; and the product of the pivots, negated at
    each row swap, which for a nonsingular square matrix is its determinant.
    Columns past ``ncols`` (an augmented part) are carried along.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        pivot = m[r][col]
        det *= pivot
        m[r] = [v / pivot for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, det


def exact_inverse(matrix):
    """(inverse, determinant) of a square integer matrix, both over Fraction,
    by ``row_reduce`` of [matrix | I]; raises ArithmeticError if it is singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots, det = row_reduce(aug, n)
    if len(pivots) < n:
        raise ArithmeticError("singular matrix")
    return [row[n:] for row in reduced], det


@lru_cache(maxsize=None)
def _basis_solver():
    """(columns of the adjugate, det) of the basis matrix, for exact
    coordinate solves."""
    inverse, det = exact_inverse(BASIS_DCOORDS)
    adj = [[c * det for c in row] for row in inverse]
    if any(c.denominator != 1 for row in adj for c in row):
        raise ArithmeticError("adjugate not integral")
    return tuple(tuple(int(c) for c in col) for col in zip(*adj)), int(det)


def basis_coordinates(v: E8Vector) -> tuple[int, ...]:
    """Integer coordinates of v in the fixed lattice basis."""
    columns, det = _basis_solver()
    # v = c B  =>  c = v adj(B) / det, one column of the adjugate per coordinate.
    num = [sum(map(mul, v.dcoords, col)) for col in columns]
    if any(x % det for x in num):
        raise ValueError(f"{v} not in the lattice span")
    return tuple(x // det for x in num)


def mod2_key(v: E8Vector) -> tuple[int, ...]:
    return tuple(c % 2 for c in basis_coordinates(v))


def weyl_order() -> int:
    """|W(E8)| = 2^14 3^5 5^2 7, cross-checked against the degree product."""
    from_factorization = 2**14 * 3**5 * 5**2 * 7
    degrees = (2, 8, 12, 14, 18, 20, 24, 30)
    prod = 1
    for d in degrees:
        prod *= d
    if prod != from_factorization or from_factorization != 696729600:
        raise ArithmeticError("Weyl order cross-check failed")
    return from_factorization


@lru_cache(maxsize=None)
def mod2_census() -> dict:
    """Partition the 256 classes of E8/2E8 by minimal norm.

    Returns the counts (1 zero class, odd classes of min norm 2, even
    classes of min norm 4) together with the per-class contents.
    """
    roots = enumerate_roots()
    norm4 = enumerate_norm4()
    odd: dict[tuple, list] = {}
    for v in roots:
        odd.setdefault(mod2_key(v), []).append(v)
    even: dict[tuple, list] = {}
    for v in norm4:
        even.setdefault(mod2_key(v), []).append(v)
    zero_key = tuple([0] * 8)
    if zero_key in odd or zero_key in even:
        raise ArithmeticError("a minimal vector reduced to the zero class")
    overlap = set(odd) & set(even)
    if overlap:
        raise ArithmeticError("a class has both norm-2 and norm-4 members")
    roots_per = {len(vs) for vs in odd.values()}
    norm4_per = {len(vs) for vs in even.values()}
    if roots_per != {2} or norm4_per != {16}:
        raise ArithmeticError(
            f"unexpected class contents: roots {roots_per}, norm4 {norm4_per}"
        )
    if 1 + len(odd) + len(even) != 256:
        raise ArithmeticError("classes do not fill E8/2E8")
    return {
        "zero": 1,
        "odd_classes": len(odd),
        "even_classes": len(even),
        "roots_per_odd_class": 2,
        "norm4_per_even_class": 16,
    }


def theta_char_counts(g: int) -> tuple[int, int]:
    """(odd, even) theta-characteristic counts of a genus-g curve."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    return (2 ** (g - 1) * (2**g - 1), 2 ** (g - 1) * (2**g + 1))


def census_report() -> dict:
    """The headline integers, as one JSON-friendly report."""
    c = mod2_census()
    odd_theta, even_theta = theta_char_counts(4)
    return {
        "roots": len(enumerate_roots()),
        "norm4": len(enumerate_norm4()),
        "weyl_order": weyl_order(),
        "mod2": {"zero": c["zero"], "odd": c["odd_classes"], "even": c["even_classes"]},
        "theta": {"odd": odd_theta, "even": even_theta},
    }
