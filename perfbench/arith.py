"""Exact arithmetic for the benchmark's input generators and output oracles.

It is written apart from the program under test, so an oracle never checks
the program against itself.  A binary form of degree d is the list of its
d + 1 coefficients, descending in x (index i holds the coefficient of
x^(d-i) y^i).  Coefficients are ints reduced mod p over F_p, or Fractions
over Q, where p is None.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(c, p):
    return c % p if p else c


def mul(a, b, p):
    """Product of two forms (degrees add)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [_reduce(c, p) for c in out]


def add(a, b, p):
    if len(a) != len(b):
        raise ValueError("adding forms of different degrees")
    return [_reduce(x + y, p) for x, y in zip(a, b)]


def scale(a, c, p):
    return [_reduce(x * c, p) for x in a]


def discriminant12(a, b, p):
    """The degree-12 form 4 a^3 + 27 b^2 of the model Y^2 = X^3 + aX + b."""
    return add(scale(mul(mul(a, a, p), a, p), 4, p), scale(mul(b, b, p), 27, p), p)


def _inv(c, p):
    return pow(c, -1, p) if p else Fraction(1) / c


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _rem(f, g, p):
    """Remainder of ascending coefficient lists f by g (g trimmed, nonzero)."""
    f = list(f)
    inv = _inv(g[-1], p)
    while len(f) >= len(g):
        c = _reduce(f[-1] * inv, p)
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = _reduce(f[shift + i] - c * gc, p)
        f.pop()
        _trim(f)
    return f


def _gcd_degree(f, g, p):
    while g:
        f, g = g, _rem(f, g, p)
    return len(f) - 1


def is_squarefree(form, p) -> bool:
    """No repeated projective root over the algebraic closure, (1:0) included."""
    y_mult = 0
    while y_mult < len(form) and form[y_mult] == 0:
        y_mult += 1
    if y_mult == len(form):
        return False
    if y_mult > 1:
        return False
    aff = _trim(list(reversed(form)))
    if len(aff) <= 2:
        return True
    deriv = _trim([_reduce(k * c, p) for k, c in enumerate(aff)][1:])
    if not deriv:
        return False
    return _gcd_degree(aff, deriv, p) == 0


def field_json(p) -> dict:
    return {"kind": "Fp", "p": p} if p else {"kind": "Q"}


def _fmt(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def form_json(coeffs, p) -> dict:
    """The program's wire format for a binary form."""
    return {
        "degree": len(coeffs) - 1,
        "field": field_json(p),
        "coeffs": [_fmt(c) for c in coeffs],
    }


def parse_coeffs(obj, p):
    """Coefficients of a form in the wire format, as field elements."""
    if obj.get("field") != field_json(p):
        raise ValueError(f"form over {obj.get('field')}, expected {field_json(p)}")
    if p:
        return [int(c) % p for c in obj["coeffs"]]
    return [Fraction(c) for c in obj["coeffs"]]


# Permutations of {0, ..., n-1} as image tuples.


def transpositions(n: int):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            im = list(range(n))
            im[i], im[j] = j, i
            out.append(tuple(im))
    return out


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def is_transposition(p) -> bool:
    return sum(1 for i, x in enumerate(p) if i != x) == 2


def is_transitive(n: int, perms) -> bool:
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in reached:
                reached.add(p[i])
                frontier.append(p[i])
    return len(reached) == n


def induced_action(p, blocks):
    """The permutation p induces on a list of blocks (sets of sets or sets)."""

    def move(block):
        if all(isinstance(b, frozenset) for b in block):
            return frozenset(frozenset(p[i] for i in b) for b in block)
        return frozenset(p[i] for i in block)

    return tuple(blocks.index(move(b)) for b in blocks)


def rh_genus(n: int, perms) -> int:
    """Riemann-Hurwitz genus of a connected n-sheeted cover."""

    def cycles(p):
        seen, count = set(), 0
        for i in range(n):
            if i not in seen:
                count += 1
                while i not in seen:
                    seen.add(i)
                    i = p[i]
        return count

    ramification = sum(n - cycles(p) for p in perms)
    return (ramification - 2 * n + 2) // 2


def conjugate_tuples(a, b, n: int) -> bool:
    """True iff some relabelling g of the sheets carries tuple a onto tuple b."""
    from itertools import permutations

    for g in permutations(range(n)):
        if all(compose(g, q) == compose(p, g) for p, q in zip(a, b)):
            return True
    return False
