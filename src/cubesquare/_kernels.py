"""Hot kernel for the exhaustive cube-plus-square scans over F_q.

``decompose_scan`` finds every f of degree d for which C = F - f^3 is a
perfect square.  The candidates are the q^(d+1) coefficient vectors f, with
index f0 + f1 q + ... + fd q^d (f0 the leading coefficient).  The scan does
not test them all: it eliminates the last coefficient fd.

Take descending coefficients and write g^2 = C, gdeg = 3d/2, k = gdeg + 1.
When C0 = F0 - f0^3 is a nonzero square, the leading-coefficient recurrence
fixes g0..g_gdeg from C0..C_gdeg, and the first coefficient it does not use
must then satisfy

    R(t) = C_k - (g1 g_{k-1} + g2 g_{k-2} + ... + g_{k-1} g1) = 0,  t = fd.

For d >= 4, R is affine in t: t^2 first appears in f^3 at coefficient
2d > k, and the g_i that involve t (i >= d) never pair up to index k.  For
d = 2 it is quadratic.  One vectorised pass over the q^d prefixes
f0..f_{d-1} evaluates R at t = 0, 1 (and 2 when d = 2) and interpolates it,
so each prefix yields 0, 1 or 2 values of fd.  All q values pass on from
a prefix on which R vanishes identically, and from the degenerate slice
C0 = 0 (f0^3 = F0, at most three values of f0), where the recurrence would
start lower.  A nonzero non-square C0 passes none on.

The elimination only prunes.  Every surviving candidate goes through the
full perfect-square test on all 3d + 1 coefficients of C, the test the
plain-Python ``_scan_python_reference`` applies to every candidate; the
tests compare the two.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def sqrt_table(q: int) -> np.ndarray:
    """table[s] = canonical square root of s mod q (the smaller one), else -1."""
    table = np.full(q, -1, dtype=np.int64)
    for r in range(q):
        s = r * r % q
        c = min(r, q - r) if r else 0
        if table[s] < 0 or c < table[s]:
            table[s] = c
    return table


def _inverse_table(q: int) -> np.ndarray:
    """table[x] = x^-1 mod q for x != 0; table[0] = 0."""
    table = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        table[x] = pow(x, -1, q)
    return table


def _scan_python_reference(q, F, d, lo, hi):
    """Plain-Python reference of the scan (tests compare kernels against it)."""
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
    """Square root of a descending coefficient list, or None."""
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


def _digits(idx: np.ndarray, q: int, n: int) -> list:
    """The n base-q digits of each index, lowest first."""
    out = []
    t = idx.copy()
    for _ in range(n):
        out.append(t % q)
        t //= q
    return out


def _residual_columns(q: int, F: np.ndarray, c: list, n: int) -> list:
    """C[m] = F[m] - (f^3)[m] mod q for m < n; c holds the digit columns of f."""
    d = len(c) - 1
    s = []
    for m in range(min(n, 2 * d + 1)):
        acc = np.zeros_like(c[0])
        for u in range(max(0, m - d), min(d, m) + 1):
            acc += c[u] * c[m - u]
        s.append(acc % q)
    out = []
    for m in range(n):
        acc = np.zeros_like(c[0])
        for u in range(max(0, m - d), min(2 * d, m) + 1):
            acc += s[u] * c[m - u]
        out.append((int(F[m]) - acc) % q)
    return out


def _prefix_residuals(q: int, F: np.ndarray, d: int, table, inv):
    """C0 and the coefficients (a, b, c) of R(t) = a + b t + c t^2 for every
    prefix f0..f_{d-1}, indexed f0 + f1 q + ... + f_{d-1} q^(d-1).

    R is meaningful only where C0 is a nonzero square.
    """
    k = 3 * d // 2 + 1
    c = _digits(np.arange(q**d, dtype=np.int64), q, d)
    c0 = (int(F[0]) - c[0] * c[0] % q * c[0]) % q
    g0 = table[c0]
    inv2g0 = inv[2 * np.maximum(g0, 0) % q]
    values = []
    for t in range(3 if d == 2 else 2):
        C = _residual_columns(q, F, c + [np.full_like(c0, t)], k + 1)
        gam = [g0]
        for i in range(1, k):
            acc = C[i].copy()
            for u in range(1, i):
                acc -= gam[u] * gam[i - u]
            gam.append(acc % q * inv2g0 % q)
        acc = C[k].copy()
        for u in range(1, k):
            acc -= gam[u] * gam[k - u]
        values.append(acc % q)
    r0, r1 = values[:2]
    cc = np.zeros_like(r0)
    if d == 2:
        cc = (values[2] - 2 * r1 + r0) % q * ((q + 1) // 2) % q
    b = (r1 - r0 - cc) % q
    return c0, r0, b, cc


def _candidates(q: int, F: np.ndarray, d: int, table, inv) -> np.ndarray:
    """Indices of the candidates f that survive the elimination of fd."""
    c0, a, b, c = _prefix_residuals(q, F, d, table, inv)
    prefix = np.arange(q**d, dtype=np.int64)
    square = (c0 != 0) & (table[c0] >= 0)
    every = (c0 == 0) | (square & (a == 0) & (b == 0) & (c == 0))

    r = table[(b * b - 4 * a % q * c) % q]
    quad = square & (c != 0) & (r >= 0)
    two = quad & (r != 0)
    inv2c = inv[2 * c % q]
    root1 = (r - b) % q * inv2c % q
    root2 = (-r - b) % q * inv2c % q

    lin = square & (c == 0) & (b != 0)
    root_lin = -a % q * inv[b] % q

    step = q**d
    parts = [
        (prefix[every, None] + step * np.arange(q, dtype=np.int64)).ravel(),
        prefix[quad] + step * root1[quad],
        prefix[two] + step * root2[two],
        prefix[lin] + step * root_lin[lin],
    ]
    return np.concatenate(parts)


def _verify(q: int, F: np.ndarray, d: int, idx: np.ndarray, table, inv):
    """Full perfect-square test of F - f^3 for the candidates with these indices."""
    nf, nF, gdeg = d + 1, 3 * d + 1, 3 * d // 2
    c = _digits(idx, q, nf)
    C = np.stack(_residual_columns(q, F, c, nF), axis=1)
    nz = C != 0
    first = np.where(nz.any(axis=1), nz.argmax(axis=1), nF)
    fmat = np.stack(c, axis=1)
    hits_f, hits_g = [], []

    rows0 = np.nonzero(first == nF)[0]
    if rows0.size:
        hits_f.append(fmat[rows0])
        hits_g.append(np.zeros((rows0.size, gdeg + 1), dtype=np.int64))

    for j in range(0, nF, 2):
        rows = np.nonzero(first == j)[0]
        if not rows.size:
            continue
        h = j // 2
        if h > gdeg:
            continue
        Cr = C[rows]
        r0 = table[Cr[:, j]]
        keep = r0 >= 0
        rows, Cr, r0 = rows[keep], Cr[keep], r0[keep]
        if not rows.size:
            continue
        gam = np.zeros((rows.size, gdeg + 1), dtype=np.int64)
        gam[:, h] = r0
        inv2r = inv[2 * r0 % q]
        for i in range(h + 1, gdeg + 1):
            m = i + h
            acc = Cr[:, m].copy()
            for u in range(h + 1, i):
                acc -= gam[:, u] * gam[:, m - u]
            gam[:, i] = acc % q * inv2r % q
        ok = np.ones(rows.size, dtype=bool)
        for m in range(nF):
            conv = np.zeros(rows.size, dtype=np.int64)
            for u in range(max(0, m - gdeg), min(gdeg, m) + 1):
                conv += gam[:, u] * gam[:, m - u]
            ok &= conv % q == Cr[:, m]
        if ok.any():
            hits_f.append(fmat[rows[ok]])
            hits_g.append(gam[ok])
    out = []
    for fs, gs in zip(hits_f, hits_g):
        for r in range(fs.shape[0]):
            out.append((tuple(int(x) for x in fs[r]), tuple(int(x) for x in gs[r])))
    return out


_CHUNK = 1 << 19


def decompose_scan(q: int, F_desc, d: int, lo: int = 0, hi: int | None = None):
    """All (f, g) with f^3 + g^2 = F over F_q, f of degree <= d, g canonical.

    ``F_desc`` is the descending coefficient list of a degree-3d form; f and g
    come back as descending coefficient tuples (degrees d and 3d/2), with g
    the canonical square root (its leading value is the smaller residue).
    The companion pair (f, -g) is implied.  Only pairs whose index
    f0 + f1 q + ... + fd q^d lies in [lo, hi) are returned; every call makes
    the full q^d prefix pass.  Results are sorted.
    """
    if d < 2 or d % 2:
        raise ValueError("coefficient degree must be even and at least 2")
    total = q ** (d + 1)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError("bad scan range")
    F = np.asarray([int(x) % q for x in F_desc], dtype=np.int64)
    if F.shape[0] != 3 * d + 1:
        raise ValueError("target form has the wrong degree")
    table, inv = sqrt_table(q), _inverse_table(q)
    idx = _candidates(q, F, d, table, inv)
    idx = idx[(idx >= lo) & (idx < hi)]
    pairs = []
    for start in range(0, idx.size, _CHUNK):
        pairs.extend(_verify(q, F, d, idx[start : start + _CHUNK], table, inv))
    pairs.sort()
    return pairs
