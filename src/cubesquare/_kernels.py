"""Hot kernel for the exhaustive cube-plus-square scans over F_q.

``decompose_scan`` finds every f of degree d for which C = F - f^3 is a
perfect square.  The candidates are the q^(d+1) coefficient vectors f, with
index f0 + f1 q + ... + fd q^d (f0 the leading coefficient).  The scan does
not test them all: it eliminates the last coefficient fd and checks the
coefficient after the one it solved on.

Take descending coefficients and write g^2 = C, gdeg = 3d/2, k = gdeg + 1.
When C0 = F0 - f0^3 is a nonzero square, the leading-coefficient recurrence
fixes g0..g_gdeg from C0..C_gdeg, and the first two coefficients it does not
use must then satisfy, with t = fd,

    R(t) = C_k - (g1 g_{k-1} + g2 g_{k-2} + ... + g_{k-1} g1) = 0,
    S(t) = C_{k+1} - (g2 g_{k-1} + g3 g_{k-2} + ... + g_{k-1} g2) = 0.

With p the prefix f0..f_{d-1}, f^3 = p^3 + 3t y^d p^2 + 3t^2 y^(2d) p +
t^3 y^(3d): C_m is free of t for m < d, affine in t for d <= m < 2d, and
t^3 enters only at m = 3d > k + 1.  So g_0..g_{d-1} are free of t, and
g_d..g_gdeg are affine in t as long as no two of them pair up below the
index they feed.

* d >= 4: R is affine, since two indices >= d first pair up at 2d > k.
  S is affine for d >= 6.  For d = 4, k + 1 = 2d, and t^2 enters S twice:
  through -3 t^2 f0 in C_8 and through g_4^2, where g_4 has slope
  -3 f0^2 / (2 g0).  So the t^2 coefficient of S is -3 f0 - 9 f0^4 / (4 C0),
  computed in closed form.
* d = 2: R and S are both quadratic.  g_2 and g_3 are affine with slopes
  b2 = -3 f0^2 / (2 g0) and b3 = -(3 f0 f1 + g1 b2) / g0, and S = C_5 - 2 g2 g3
  has t^2 coefficient -3 f1 - 2 b2 b3.  The pass evaluates at a third t for R
  anyway, so it interpolates S from the same three values.

(w f)^3 = f^3 for every cube root of unity w, so the hits come in orbits
{(f, g), (w f, g), (w^2 f, g)} with one g.  When q = 1 (mod 3) the scan
takes f0 = 0 and, of each orbit {f0, w f0, w^2 f0} of nonzero values, the
least; when q = 2 (mod 3) w = 1 and it takes every f0.  Only prefixes with a
representative f0 are scanned, and each hit with f0 != 0 is expanded to its
w-translates afterwards.  Rows with f0 = 0 are all scanned, since w fixes
f0 = 0 and no finer choice is made there.

C0 depends on f0 alone, so the vectorised prefix pass keeps only the
representative prefixes whose C0 is a nonzero square; a nonzero non-square
C0 passes nothing on.  On those it builds C_m (m < d) and g_0..g_{d-1}
once, then redoes the steps from index d on at t = 0, 1 (and 2 when d = 2)
and interpolates R and S.  Each prefix yields the 0, 1 or 2 roots of R, or
all q values of t when R vanishes identically, and of those only the values
where S vanishes pass on.

The digit columns of the prefixes and the columns of p^2 and p^3 do not
involve F.  ``_field_table`` builds them once per (q, d), over the q^(d-1)
prefixes of each representative f0, in f0-major blocks; a request selects
the blocks of the f0 whose C0 is a nonzero square and computes
C_m = F_m - (p^3)_m from them.

The degenerate slice C0 = 0 (f0^3 = F0, at most three values of f0, one of
them representative) is not interpolated.  A square cannot start at an odd
index, so C1 = F1 - 3 f0^2 f1 must vanish too: with f0 != 0 that fixes f1,
and with f0 = 0 (so F0 = 0) the slice survives only when F1 = 0, with f1
free.  f2..fd stay free, which leaves q^(d-1) rows for the representative
cube root of a nonzero F0, or q^d when F0 = F1 = 0 (y^2 divides F, which
is then not squarefree).  These rows go to the full test as they are.

The elimination only prunes.  Every candidate goes through the full test,
``_verify``, which decides a hit exactly as the plain-Python
``_scan_python_reference`` does on every candidate; the tests compare the
two.  It runs the same recurrence from the first nonzero coefficient C_2h
of C, so coefficients up to gdeg + h hold by construction and only the
residuals of gdeg + h + 1..3d are left to check.  The columns it computes
on are int32 (the table stores residues in the smallest unsigned type that
holds q - 1); every intermediate stays below (3d/2 + 2) q^2, which
``decompose_scan`` bounds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


def backend_name() -> str:
    return "numpy"


def sqrt_table(q: int) -> np.ndarray:
    """table[s] = canonical square root of s mod q (the smaller one), else -1."""
    table = np.full(q, -1, dtype=np.int32)
    for r in range(q):
        s = r * r % q
        c = min(r, q - r) if r else 0
        if table[s] < 0 or c < table[s]:
            table[s] = c
    return table


def _inverse_table(q: int) -> np.ndarray:
    """table[x] = x^-1 mod q for x != 0; table[0] = 0."""
    table = np.zeros(q, dtype=np.int32)
    for x in range(1, q):
        table[x] = pow(x, -1, q)
    return table


def _scan_python_reference(q, F, d, lo, hi):
    """Plain-Python reference of ``decompose_scan``, the scan that z-search
    and selftest run; the tests compare the kernel's hits against it."""
    table = sqrt_table(q)
    nf, nF, gdeg = d + 1, 3 * d + 1, 3 * d // 2
    out = []
    for idx in range(lo, hi):
        c = []
        t = idx
        for _ in range(nf):
            c.append(t % q)
            t //= q
        s = [0] * (2 * d + 1)
        for u in range(nf):
            for v in range(nf):
                s[u + v] = (s[u + v] + c[u] * c[v]) % q
        cube = [0] * nF
        for u in range(2 * d + 1):
            for v in range(nf):
                cube[u + v] = (cube[u + v] + s[u] * c[v]) % q
        C = [(F[m] - cube[m]) % q for m in range(nF)]
        g = _square_root_desc(C, q, gdeg, table)
        if g is not None:
            out.append((tuple(c), tuple(g)))
    return out


def _square_root_desc(C, q, gdeg, table):
    """Square root of a descending coefficient list, or None; the
    perfect-square test of ``_scan_python_reference``."""
    j = 0
    while j < len(C) and C[j] == 0:
        j += 1
    if j == len(C):
        return [0] * (gdeg + 1)
    if j % 2:
        return None
    h = j // 2
    r = int(table[C[j]])
    if r < 0:
        return None
    gam = [0] * (gdeg + 1)
    gam[h] = r
    inv2r = pow(2 * r % q, -1, q)
    for i in range(h + 1, gdeg + 1):
        m = i + h
        acc = C[m]
        for u in range(h + 1, i):
            acc -= gam[u] * gam[m - u]
        gam[i] = acc % q * inv2r % q
    for m in range(len(C)):
        conv = 0
        for u in range(max(0, m - gdeg), min(gdeg, m) + 1):
            conv += gam[u] * gam[m - u]
        if conv % q != C[m]:
            return None
    return gam


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q.  numpy divides an integer array by a scalar several times
    faster than it takes the remainder, so the remainder is built from the
    quotient."""
    return x - x // q * q


def _digits(idx: np.ndarray, q: int, n: int) -> list:
    """The n base-q digits of each index, lowest first, as int32 columns."""
    out = []
    t = idx
    for _ in range(n):
        quo = t // q
        out.append((t - quo * q).astype(np.int32))
        t = quo
    return out


def _conv(q: int, a: list, b: list, n: int) -> list:
    """(a * b)[m] mod q for m < n, for lists of coefficient columns."""
    out = []
    for m in range(n):
        acc = np.zeros_like(a[0])
        for u in range(max(0, m - len(b) + 1), min(len(a) - 1, m) + 1):
            acc += a[u] * b[m - u]
        out.append(_mod(acc, q))
    return out


def _residual_columns(q: int, F: np.ndarray, c: list, n: int) -> list:
    """C[m] = F[m] - (f^3)[m] mod q for m < n; c holds the digit columns of f."""
    cube = _conv(q, _conv(q, c, c, min(n, 2 * len(c) - 1)), c, n)
    return [_mod(int(F[m]) - cube[m], q) for m in range(n)]


def _recurrence_residual(q: int, C, gam: list, m: int, h: int = 0):
    """C_m - (sum of g_u g_(m-u) over h < u, m - u < len(gam)) mod q, for a
    square whose leading term is g_h.  While gam holds g_h..g_(m-h-1) this is
    2 g_h g_(m-h); once g is complete, it is the residual of coefficient m."""
    acc = C.copy()
    for u in range(max(h + 1, m - len(gam) + 1), min(m - h, len(gam))):
        acc -= gam[u] * gam[m - u]
    return _mod(acc, q)


class _FieldTable(NamedTuple):
    """The part of the scan over F_q at degree d that does not involve F."""

    q: int
    d: int
    sqrt: np.ndarray  # sqrt_table(q)
    inv: np.ndarray  # _inverse_table(q)
    units: tuple  # the cube roots of unity other than 1: (w, w^2) or ()
    reps: np.ndarray  # the representative values of f0, ascending
    columns: np.ndarray  # (column, representative, prefix row) residues


@lru_cache(maxsize=8)
def _field_table(q: int, d: int) -> _FieldTable:
    """The tables and prefix columns of the scan over F_q at degree d, built
    once per (q, d) in one vectorised pass.

    The representatives are f0 = 0 and the least value of each orbit
    {f0, w f0, w^2 f0} of nonzero values, which is every f0 when q = 2
    (mod 3).  For the q^(d-1) prefixes f0..f_(d-1) of each, in f0-major
    blocks, ``columns`` holds the d digit columns, the columns of p^2 that
    the prefix pass reads and the columns of p^3 below k + 2.  Every array
    is read-only.
    """
    k = 3 * d // 2 + 1
    units = tuple(w for w in range(2, q) if pow(w, 3, q) == 1)
    reps = np.array([f0 for f0 in range(q) if all(f0 <= w * f0 % q for w in units)], dtype=np.int64)
    rows = q ** (d - 1)
    prefix = (reps[:, None] + q * np.arange(rows, dtype=np.int64)).ravel()
    c = _digits(prefix, q, d)
    s = _conv(q, c, c, 2 * d - 1)
    columns = np.array(c + s[: k + 2 - d] + _conv(q, s, c, k + 2), dtype=np.min_scalar_type(q - 1))
    tab = _FieldTable(q, d, sqrt_table(q), _inverse_table(q), units, reps, columns.reshape(-1, reps.size, rows))
    for array in (tab.sqrt, tab.inv, tab.reps, tab.columns):
        array.flags.writeable = False
    return tab


def _prefix_residuals(F: np.ndarray, tab: _FieldTable):
    """The representative prefixes f0..f_{d-1} on which C0 is a nonzero
    square, as indices f0 + f1 q + ... + f_{d-1} q^(d-1), and on each the
    coefficients (a, b, c) of R(t) = a + b t + c t^2 and of S(t), the
    residual of coefficient k + 1.

    C0 = F0 - f0^3 depends on f0 alone, so the prefixes kept are the blocks
    of the table whose f0 makes it a nonzero square.  With p the prefix and
    t = fd, f = p + t y^d and f^3 = p^3 + 3t y^d p^2 + 3t^2 y^(2d) p +
    t^3 y^(3d), so C_m for m < d, and with it g_0..g_(d-1), does not involve
    t.  They are built once; only the steps from index d on are redone at
    t = 0, 1 (and 2 when d = 2).  The t^2 coefficient of S is known in
    closed form for d = 4 and is 0 for d >= 6 (see the module docstring).
    """
    q, d = tab.q, tab.d
    k = 3 * d // 2 + 1
    table, inv = tab.sqrt, tab.inv
    c0 = (int(F[0]) - tab.reps**3) % q
    keep = np.nonzero((c0 != 0) & (table[c0] >= 0))[0]
    rows = tab.columns.shape[2]
    prefix = (tab.reps[keep, None] + q * np.arange(rows, dtype=np.int64)).ravel()
    cols = tab.columns[:, keep].reshape(len(tab.columns), -1).astype(np.int32)
    c, s = cols[:d], cols[d : -(k + 2)]
    C = _mod(F[: k + 2, None].astype(np.int32) - cols[-(k + 2) :], q)
    g0 = table[C[0]]
    inv2g0 = inv[_mod(2 * g0, q)]
    gam = [g0]
    for i in range(1, d):
        gam.append(_mod(_recurrence_residual(q, C[i], gam, i) * inv2g0, q))

    def at(t, m):
        """C_m at fd = t: C_m - 3t (p^2)_(m-d) - 3t^2 p_(m-2d)."""
        shift = s[m - d] if m - d < len(s) else 0
        if m >= 2 * d:
            shift = shift + t * c[m - 2 * d]
        return _mod(C[m] - 3 * t * shift, q)

    values = []
    for t in range(3 if d == 2 else 2):
        Ct = list(C[:d]) + [at(t, m) for m in range(d, k + 2)] if t else C
        g = gam[:]
        for i in range(d, k):
            g.append(_mod(_recurrence_residual(q, Ct[i], g, i) * inv2g0, q))
        values.append([_recurrence_residual(q, Ct[m], g, m) for m in (k, k + 1)])
    (r0, s0), (r1, s1) = values[:2]
    if d == 2:
        r2, s2 = values[2]
        half = (q + 1) // 2
        rc = _mod((r2 - 2 * r1 + r0) * half, q)
        sc = _mod((s2 - 2 * s1 + s0) * half, q)
    else:
        rc = sc = np.zeros_like(r0)
        if d == 4:
            f0sq = _mod(c[0] * c[0], q)
            quartic = _mod(_mod(f0sq * f0sq, q) * inv[_mod(4 * C[0], q)], q)
            sc = _mod(-3 * c[0] - 9 * quartic, q)
    return prefix, (r0, _mod(r1 - r0 - rc, q), rc), (s0, _mod(s1 - s0 - sc, q), sc)


def _slice_candidates(F: np.ndarray, tab: _FieldTable) -> np.ndarray:
    """Indices of the rows on the slice C0 = F0 - f0^3 = 0 with C1 = 0 and
    f0 representative.

    A square cannot start at an odd index, so C1 = F1 - 3 f0^2 f1 must vanish
    as well.  With f0 != 0 that fixes f1; with f0 = 0 (so F0 = 0) it asks
    F1 = 0 and then leaves f1 free.  f2..fd stay free, and every row goes to
    the full test.
    """
    q, d = tab.q, tab.d
    parts = [np.zeros(0, dtype=np.int64)]
    for f0 in tab.reps.tolist():
        if (f0**3 - int(F[0])) % q:
            continue
        if f0:
            f1 = int(F[1]) * int(tab.inv[3 * f0 * f0 % q]) % q
            parts.append(f0 + q * f1 + q * q * np.arange(q ** (d - 1), dtype=np.int64))
        elif F[1] == 0:
            parts.append(q * np.arange(q**d, dtype=np.int64))
    return np.concatenate(parts)


def _candidates(F: np.ndarray, tab: _FieldTable) -> np.ndarray:
    """Indices of the candidates f with a representative f0 that survive the
    elimination of fd and the test of the next coefficient."""
    q, d, table, inv = tab.q, tab.d, tab.sqrt, tab.inv
    prefix, (a, b, c), (sa, sb, sc) = _prefix_residuals(F, tab)

    def passing(rows, t):
        """prefix + q^d t at the rows where S(t) = 0 as well."""
        keep = _mod(sa[rows] + t * _mod(sb[rows] + t * sc[rows], q), q) == 0
        return prefix[rows[keep]] + q**d * t[keep].astype(np.int64)

    parts = [_slice_candidates(F, tab)]
    lin = np.nonzero((c == 0) & (b != 0))[0]
    parts.append(passing(lin, _mod(-a[lin] * inv[b[lin]], q)))
    quad = np.nonzero(c)[0]
    if quad.size:
        qa, qb, qc = a[quad], b[quad], c[quad]
        r = table[_mod(qb * qb - 4 * qa * qc, q)]
        inv2c = inv[_mod(2 * qc, q)]
        for root, has in ((r, r >= 0), (-r, r > 0)):
            parts.append(passing(quad[has], _mod((root - qb) * inv2c, q)[has]))
    every = np.nonzero((a == 0) & (b == 0) & (c == 0))[0]
    parts.append(passing(np.repeat(every, q), np.tile(np.arange(q, dtype=np.int32), every.size)))
    return np.concatenate(parts)


def _verify(F: np.ndarray, idx: np.ndarray, tab: _FieldTable):
    """The (f, g) with g^2 = F - f^3 among the candidates with these indices.

    Where the first nonzero coefficient of C = F - f^3 is C_2h, g starts at
    g_h = sqrt(C_2h) and the recurrence fixes g_(h+1)..g_gdeg from
    C_(2h+1)..C_(gdeg+h).  Then g^2 and C agree below 2h, where both vanish,
    and from 2h to gdeg + h by construction, so only the residuals of
    coefficients gdeg + h + 1..3d are tested.  A first nonzero coefficient
    at an odd index, or one that is not a square, fails; C = 0 gives g = 0.
    """
    q, d, table, inv = tab.q, tab.d, tab.sqrt, tab.inv
    n, gdeg = 3 * d + 1, 3 * d // 2
    c = _digits(idx, q, d + 1)
    C = _residual_columns(q, F, c, n)
    nz = np.stack(C) != 0
    first = np.where(nz.any(axis=0), nz.argmax(axis=0), n)
    f = np.stack(c, axis=1)
    out = [(tuple(x), (0,) * (gdeg + 1)) for x in f[first == n].tolist()]
    for h in range(gdeg + 1):
        rows = np.nonzero(first == 2 * h)[0]
        rows = rows[table[C[2 * h][rows]] >= 0]
        if not rows.size:
            continue
        Cr = [x[rows] for x in C]
        gam = [np.zeros(rows.size, dtype=np.int32)] * h + [table[Cr[2 * h]]]
        inv2g = inv[_mod(2 * gam[h], q)]
        for i in range(h + 1, gdeg + 1):
            gam.append(_mod(_recurrence_residual(q, Cr[i + h], gam, i + h, h) * inv2g, q))
        ok = np.ones(rows.size, dtype=bool)
        for m in range(gdeg + h + 1, n):
            ok &= _recurrence_residual(q, Cr[m], gam, m, h) == 0
        g = np.stack(gam, axis=1)[ok]
        out.extend(zip(map(tuple, f[rows[ok]].tolist()), map(tuple, g.tolist())))
    return out


_CHUNK = 1 << 19


def decompose_scan(q: int, F_desc, d: int, lo: int = 0, hi: int | None = None):
    """All (f, g) with f^3 + g^2 = F over F_q, f of degree <= d, g canonical.

    ``F_desc`` is the descending coefficient list of a degree-3d form; f and g
    come back as descending coefficient tuples (degrees d and 3d/2), with g
    the canonical square root (its leading value is the smaller residue).
    The companion pair (f, -g) is implied.  Only pairs whose index
    f0 + f1 q + ... + fd q^d lies in [lo, hi) are returned; every call makes
    the whole prefix pass.  Results are sorted.  q is a prime of at least 5,
    since the scan divides by 2 and by 3, and (3d/2 + 2) q^2 < 2^31, since
    its columns are int32.

    The work, with the representatives f0 of ``_field_table``: the prefix
    pass runs on #{representative f0 : F0 - f0^3 a nonzero square} *
    q^(d-1) rows, and the slice on #{representative f0 != 0 : f0^3 = F0} *
    q^(d-1) rows, plus q^d when F0 = F1 = 0.  Only the survivors of both
    reach the full test, and of its hits each one with f0 != 0 stands for
    its orbit under f -> w f, w^3 = 1: the translates are added before the
    window [lo, hi) is applied, so shards stay exact.
    """
    if d < 2 or d % 2:
        raise ValueError("coefficient degree must be even and at least 2")
    if q < 5:
        raise ValueError("the scan needs q >= 5: it divides by 2 and by 3")
    if (3 * d // 2 + 2) * q * q >= 2**31:
        raise ValueError("the scan's int32 columns need (3d/2 + 2) q^2 < 2^31")
    total = q ** (d + 1)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError("bad scan range")
    F = np.asarray([int(x) % q for x in F_desc], dtype=np.int64)
    if F.shape[0] != 3 * d + 1:
        raise ValueError("target form has the wrong degree")
    tab = _field_table(q, d)
    idx = _candidates(F, tab)
    window = lo > 0 or hi < total
    if window:
        # Test each candidate that lies in the window or has a w-translate there.
        digits = _digits(idx, q, d + 1)
        meets = (idx >= lo) & (idx < hi)
        for w in tab.units:
            moved = sum(_mod(w * x, q).astype(np.int64) * q**i for i, x in enumerate(digits))
            meets |= (moved >= lo) & (moved < hi)
        idx = idx[meets]
    pairs = []
    for start in range(0, idx.size, _CHUNK):
        pairs.extend(_verify(F, idx[start : start + _CHUNK], tab))
    pairs += [(tuple(w * x % q for x in f), g) for f, g in pairs if f[0] for w in tab.units]
    if window:
        pairs = [(f, g) for f, g in pairs if lo <= sum(x * q**i for i, x in enumerate(f)) < hi]
    pairs.sort()
    return pairs
