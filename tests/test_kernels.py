"""Cross-checks of the decomposition scan: the elimination kernel against the
plain-Python reference, which tests every candidate, and against the exact
BinForm arithmetic path."""

import random

import numpy as np
import pytest

from cubesquare import _kernels, binform
from cubesquare.binform import BinForm
from cubesquare.fields import PrimeField


def _plant(q, d, rng, leading_g=None):
    """A squarefree f^3 + g^2 over F_q; ``leading_g = 0`` puts (f, g) in the
    degenerate slice C0 = F0 - f0^3 = 0."""
    field = PrimeField(q)
    while True:
        f = [rng.randrange(q) for _ in range(d + 1)]
        g = [rng.randrange(q) for _ in range(3 * d // 2 + 1)]
        if leading_g is not None:
            g[0] = leading_g
        form = BinForm(field, d, f) ** 3 + BinForm(field, 3 * d // 2, g) ** 2
        if not form.is_zero and binform.is_squarefree(form):
            return f, form


def _random_target(q, d, rng):
    f, form = _plant(q, d, rng)
    return form.field, form


def _reference(q, coeffs, d, lo=0, hi=None):
    hi = q ** (d + 1) if hi is None else hi
    return sorted(_kernels._scan_python_reference(q, coeffs, d, lo, hi))


def _index(q, f_desc):
    return sum(c * q**i for i, c in enumerate(f_desc))


def _units(q):
    """The cube roots of unity of F_q, 1 first."""
    return [w for w in range(1, q) if pow(w, 3, q) == 1]


def _translates(q, f_desc):
    """f, w f and w^2 f, with repeats when q = 2 (mod 3) or f = 0."""
    return [tuple(w * c % q for c in f_desc) for w in _units(q)]


def _representative(q, f_desc):
    """The translate w f that the scan tests: the one whose leading
    coefficient is least, or f itself when f0 = 0, since every row with
    f0 = 0 is scanned.  f itself when q = 2 (mod 3)."""
    return tuple(f_desc) if not f_desc[0] else min(_translates(q, f_desc))


def _is_representative(q, f0):
    return f0 == min(w * f0 % q for w in _units(q))


def _field(q, d):
    return _kernels._field_table(q, d)


def test_sqrt_table():
    for q in (5, 7, 11, 13):
        table = _kernels.sqrt_table(q)
        for s in range(q):
            roots = [r for r in range(q) if r * r % q == s]
            if roots:
                assert table[s] == min(min(r, q - r) for r in roots) or table[s] in roots
                assert table[s] ** 2 % q == s
                assert table[s] == min(table[s], q - table[s]) or table[s] == 0
            else:
                assert table[s] == -1


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (11, 2), (13, 2), (5, 4), (7, 4)])
def test_backends_agree_with_reference(q, d):
    rng = random.Random(q * 10 + d)
    field, form = _random_target(q, d, rng)
    coeffs = [int(c) for c in form.coeffs]
    assert _kernels.decompose_scan(q, coeffs, d) == _reference(q, coeffs, d)


@pytest.mark.parametrize("q,d", [(7, 4), (5, 4), (13, 2), (11, 2)])
def test_degenerate_leading_slice_matches_reference(q, d):
    # F0 = f0^3 is a cube with three cube roots when q = 1 (mod 3), with one
    # when q = 2 (mod 3); the planted pair lies in the slice C0 = 0.
    rng = random.Random(q * 100 + d)
    f, form = _plant(q, d, rng, leading_g=0)
    coeffs = [int(c) for c in form.coeffs]
    roots = [x for x in range(q) if pow(x, 3, q) == coeffs[0]]
    assert f[0] and len(roots) == (3 if q % 3 == 1 else 1)
    hits = _kernels.decompose_scan(q, coeffs, d)
    assert hits == _reference(q, coeffs, d)
    assert tuple(f) in {fr for fr, _ in hits}
    # On the slice the full test needs C1 = F1 - 3 f0^2 f1 = 0 too, which
    # fixes f1 for the one representative cube root f0 of F0; the plant's
    # representative translate is among those rows.
    F = np.asarray(coeffs, dtype=np.int64)
    idx = _kernels._candidates(F, _field(q, d))
    on_slice = idx[np.isin(idx % q, roots)]
    assert on_slice.size == q ** (d - 1)
    assert _index(q, _representative(q, f)) in set(on_slice.tolist())


def _plant_unreduced(q, d, rng, f0, g0):
    """f^3 + g^2 over F_q with the leading coefficients f0 and g0, squarefree
    or not."""
    field = PrimeField(q)
    f = [f0] + [rng.randrange(q) for _ in range(d)]
    g = [g0] + [rng.randrange(q) for _ in range(3 * d // 2)]
    form = BinForm(field, d, f) ** 3 + BinForm(field, 3 * d // 2, g) ** 2
    return f, [int(c) for c in form.coeffs]


@pytest.mark.parametrize("q,d", [(5, 4), (7, 4), (11, 2), (13, 2)])
def test_slice_with_vanishing_leading_target_matches_reference(q, d):
    # F0 = 0 puts f0 = 0 on the slice C0 = 0, where C1 = F1 leaves f1 free
    # when F1 = 0 and passes nothing on otherwise.
    rng = random.Random(q * 1000 + d)
    # f0 = g0 = 0 gives F0 = F1 = 0 (y^2 divides F), with the plant on the slice.
    f, coeffs = _plant_unreduced(q, d, rng, 0, 0)
    assert coeffs[:2] == [0, 0]
    hits = _kernels.decompose_scan(q, coeffs, d)
    assert hits == _reference(q, coeffs, d)
    assert tuple(f) in {fr for fr, _ in hits}
    # f0^3 = -g0^2 != 0 gives F0 = 0 with the plant off the slice; keep F1 != 0.
    f0, g0 = next((a, b) for a in range(1, q) for b in range(1, q) if (a**3 + b * b) % q == 0)
    while True:
        f, coeffs = _plant_unreduced(q, d, rng, f0, g0)
        if coeffs[1]:
            break
    assert coeffs[0] == 0
    hits = _kernels.decompose_scan(q, coeffs, d)
    assert hits == _reference(q, coeffs, d)
    assert tuple(f) in {fr for fr, _ in hits}
    assert not any(fr[0] == 0 for fr, _ in hits)


def _residual_coeffs(q, F, f):
    """C = F - f^3 in plain Python, f and F descending."""
    d = len(f) - 1
    cube = [0] * (3 * d + 1)
    for u in range(d + 1):
        for v in range(d + 1):
            for w in range(d + 1):
                cube[u + v + w] += f[u] * f[v] * f[w]
    return [(F[m] - cube[m]) % q for m in range(3 * d + 1)]


def _tail_residuals(q, F, f, h):
    """The residuals of coefficients k + h and k + h + 1 of C = F - f^3 for
    the square root that starts at g_h = sqrt(C_2h), by the plain recurrence;
    None when C_2h is not a nonzero square."""
    gdeg = 3 * (len(f) - 1) // 2
    C = _residual_coeffs(q, F, f)
    r = next((x for x in range(1, q) if x * x % q == C[2 * h]), None)
    if r is None:
        return None
    g = [0] * (gdeg + 1)
    g[h] = r
    for i in range(h + 1, gdeg + 1):
        acc = C[i + h] - sum(g[u] * g[i + h - u] for u in range(h + 1, i))
        g[i] = acc * pow(2 * r, -1, q) % q
    return [
        (C[m] - sum(g[u] * g[m - u] for u in range(max(0, m - gdeg), gdeg + 1))) % q
        for m in (gdeg + 1 + h, gdeg + 2 + h)
    ]


def test_prefix_pass_keeps_the_square_leading_residuals():
    q, d = 7, 4
    rng = random.Random(6)
    _, form = _random_target(q, d, rng)
    F = np.asarray([int(c) for c in form.coeffs], dtype=np.int64)
    table = _kernels.sqrt_table(q)
    prefix, r, s = _kernels._prefix_residuals(F, _field(q, d))
    c0 = [(int(F[0]) - (p % q) ** 3) % q for p in range(q**d)]
    kept = [p for p in range(q**d) if c0[p] and table[c0[p]] >= 0 and _is_representative(q, p % q)]
    assert sorted(prefix.tolist()) == kept
    # F_7 has the representatives 0, 1 and 3 of {0}, {1, 2, 4} and {3, 5, 6}.
    assert {p % q for p in kept} <= {0, 1, 3}
    assert all(x.shape == prefix.shape for x in r + s)


@pytest.mark.parametrize("q,d", [(7, 4), (11, 4), (11, 2), (101, 2)])
def test_prefix_pass_residuals_match_the_plain_recurrence(q, d):
    # R(t) and S(t), interpolated (for d = 4 with the closed-form t^2
    # coefficient of S), agree with the plain recurrence at every t.
    rng = random.Random(q + d)
    _, form = _random_target(q, d, rng)
    coeffs = [int(c) for c in form.coeffs]
    prefix, r, s = _kernels._prefix_residuals(np.asarray(coeffs, dtype=np.int64), _field(q, d))
    for row in rng.sample(range(prefix.size), min(40, prefix.size)):
        p = [int(prefix[row]) // q**i % q for i in range(d)]
        for t in range(q):
            at = [(int(x[0][row]) + int(x[1][row]) * t + int(x[2][row]) * t * t) % q for x in (r, s)]
            assert at == _tail_residuals(q, coeffs, p + [t], 0)


@pytest.mark.parametrize("q,d", [(11, 4), (13, 4), (7, 4), (13, 2), (101, 2)])
def test_candidates_pass_the_next_coefficient_and_the_slice_restart(q, d):
    # Counted from _candidates: every candidate off the slice satisfies R and
    # S, and the slice candidates are exactly the q^(d-1) rows with C0 = C1
    # = 0 of the representative cube root of F0, passed on unfiltered.
    rng = random.Random(q * 7 + d)
    f, form = _plant(q, d, rng, leading_g=0)
    coeffs = [int(c) for c in form.coeffs]
    idx = _kernels._candidates(np.asarray(coeffs, dtype=np.int64), _field(q, d))
    roots = [x for x in range(q) if pow(x, 3, q) == coeffs[0] and _is_representative(q, x)]
    assert len(roots) == 1
    on_slice = np.isin(idx % q, roots)
    assert _index(q, _representative(q, f)) in set(idx[on_slice].tolist())
    assert (~on_slice).sum() > 0
    for i in idx[~on_slice].tolist():
        fi = [i // q**j % q for j in range(d + 1)]
        assert _tail_residuals(q, coeffs, fi, 0) == [0, 0]
    # C0 and C1 involve f0 and f1 only.
    heads = [
        (a, b)
        for a in roots
        for b in range(q)
        if _residual_coeffs(q, coeffs, [a, b] + [0] * (d - 1))[:2] == [0, 0]
    ]
    assert len(heads) == len(roots)
    rows = [a + q * b + q * q * r for a, b in heads for r in range(q ** (d - 1))]
    assert sorted(idx[on_slice].tolist()) == sorted(rows)


def _full_space_targets(q, d, rng):
    """A random target, x^(3d) + y^(3d), a y^2-divisible target and a cube."""
    n = 3 * d + 1
    f = [rng.randrange(q) for _ in range(d + 1)]
    return [
        [rng.randrange(q) for _ in range(n)],
        [1] + [0] * (n - 2) + [1],
        [0, 0] + [rng.randrange(q) for _ in range(n - 2)],
        [-c % q for c in _residual_coeffs(q, [0] * n, f)],
    ]


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (5, 4)])
def test_full_test_on_every_index_matches_reference(q, d):
    # _verify on the whole space, not only on the pruned candidates: rows of
    # C that start at an odd index, at C_2h with h >= 1, or vanish (F = f^3).
    rng = random.Random(q * 31 + d)
    idx = np.arange(q ** (d + 1), dtype=np.int64)
    leads = set()
    for coeffs in _full_space_targets(q, d, rng):
        hits = _kernels._verify(np.asarray(coeffs, dtype=np.int64), idx, _field(q, d))
        assert sorted(hits) == _reference(q, coeffs, d)
        leads |= {next((h for h, x in enumerate(g) if x), None) for _, g in hits}
    assert None in leads and max(h for h in leads if h is not None) >= 1


@pytest.mark.parametrize("q", [2, 3])
def test_scan_rejects_fields_below_five(q):
    with pytest.raises(ValueError, match="q >= 5"):
        _kernels.decompose_scan(q, [1] + [0] * 11 + [1], 4)


@pytest.mark.parametrize("q,d", [(5, 4), (7, 4), (13, 2)])
def test_power_sum_target_matches_reference(q, d):
    coeffs = [1] + [0] * (3 * d - 1) + [1]  # x^(3d) + y^(3d): many hits
    hits = _kernels.decompose_scan(q, coeffs, d)
    assert len(hits) > 1
    assert hits == _reference(q, coeffs, d)


@pytest.mark.parametrize(
    "q,d,coeffs",
    [
        (7, 2, [4, 6, 5, 5, 5, 6, 5]),
        (7, 4, [3, 5, 2, 1, 5, 6, 6, 5, 0, 1, 3, 5, 1]),
    ],
)
def test_identically_vanishing_residual_matches_reference(q, d, coeffs):
    # On some prefixes with a nonzero square C0 the constraint R(t) is the zero
    # polynomial, so every value of the last coefficient goes to the full test.
    prefix, (a, b, c), _ = _kernels._prefix_residuals(np.asarray(coeffs, dtype=np.int64), _field(q, d))
    vanishing = (a == 0) & (b == 0) & (c == 0)
    assert vanishing.any()
    assert _kernels.decompose_scan(q, coeffs, d) == _reference(q, coeffs, d)


@pytest.mark.parametrize(
    "q,d,coeffs",
    [
        (7, 2, [4, 3, 1, 4, 5, 0, 3]),
        (7, 4, [4, 1, 3, 0, 5, 3, 2, 4, 3, 0, 2, 4, 6]),
    ],
)
def test_identically_vanishing_next_residual_matches_reference(q, d, coeffs):
    # On some prefixes R(t) and S(t) are both the zero polynomial, so every
    # value of the last coefficient goes to the full test.
    prefix, r, s = _kernels._prefix_residuals(np.asarray(coeffs, dtype=np.int64), _field(q, d))
    vanishing = np.nonzero(np.all([x == 0 for x in r + s], axis=0))[0]
    assert vanishing.size
    p = [int(prefix[vanishing[0]]) // q**i % q for i in range(d)]
    assert all(_tail_residuals(q, coeffs, p + [t], 0) == [0, 0] for t in range(q))
    idx = set(_kernels._candidates(np.asarray(coeffs, dtype=np.int64), _field(q, d)).tolist())
    assert all(_index(q, p + [t]) in idx for t in range(q))
    assert _kernels.decompose_scan(q, coeffs, d) == _reference(q, coeffs, d)


def test_scan_rejects_fields_beyond_its_int32_columns():
    # (3 * 4 / 2 + 2) * 16411^2 > 2^31; rejected before any column is built.
    with pytest.raises(ValueError, match="int32"):
        _kernels.decompose_scan(16411, [1] + [0] * 11 + [1], 4)


@pytest.mark.parametrize("q,d", [(11, 4), (13, 4), (101, 2)])
@pytest.mark.parametrize("leading_g", [None, 0])
def test_windows_match_reference(q, d, leading_g):
    # Windows keep the reference fast.  One holds the planted pair; with
    # leading_g = 0 that pair lies in the slice C0 = 0.
    rng = random.Random(q + d + (leading_g is None))
    f, form = _plant(q, d, rng, leading_g)
    coeffs = [int(c) for c in form.coeffs]
    total = q ** (d + 1)
    at = _index(q, f)
    for lo in (max(0, at - 1500), total // 2, total - 1500):
        hi = min(total, lo + 3000)
        assert _kernels.decompose_scan(q, coeffs, d, lo, hi) == _reference(q, coeffs, d, lo, hi)

    def found(lo, hi):
        return {fr for fr, _ in _kernels.decompose_scan(q, coeffs, d, lo, hi)}

    assert tuple(f) in found(max(0, at - 1500), min(total, at + 1500))
    assert tuple(f) in found(at, at + 1)
    assert tuple(f) not in found(max(0, at - 1500), at) | found(at + 1, min(total, at + 1500))


def test_sharded_scan_matches_full():
    q, d = 7, 4
    rng = random.Random(3)
    field, form = _random_target(q, d, rng)
    coeffs = [int(c) for c in form.coeffs]
    full = _kernels.decompose_scan(q, coeffs, d)
    total = q ** (d + 1)
    parts = []
    bounds = [0, total // 3, 2 * total // 3, total]
    for lo, hi in zip(bounds, bounds[1:]):
        parts.extend(_kernels.decompose_scan(q, coeffs, d, lo, hi))
    assert sorted(parts) == full


def test_kernel_matches_exact_square_root_path():
    # every kernel hit must agree with the exact-arithmetic square root of
    # F - f^3, and every miss must have no square root (spot-checked)
    q, d = 7, 2
    rng = random.Random(4)
    field, form = _random_target(q, d, rng)
    coeffs = [int(c) for c in form.coeffs]
    hits = dict(_kernels.decompose_scan(q, coeffs, d))
    checked_hits = 0
    for trial in range(400):
        f_desc = tuple(rng.randrange(q) for _ in range(d + 1))
        f_form = BinForm(field, d, f_desc)
        rem = form - f_form**3
        if rem.is_zero:
            continue
        root = binform.perfect_square_root(rem)
        if f_desc in hits:
            assert root is not None
            assert tuple(int(c) for c in root.coeffs) in (
                hits[f_desc],
                tuple(-c % q for c in hits[f_desc]),
            )
            checked_hits += 1
        else:
            assert root is None
    # also check all actual hits explicitly
    for f_desc, g_desc in hits.items():
        f_form = BinForm(field, d, f_desc)
        g_form = BinForm(field, 3 * d // 2, g_desc)
        assert f_form**3 + g_form * g_form == form


def test_canonical_g_is_smaller_residue():
    q, d = 11, 2
    rng = random.Random(5)
    field, form = _random_target(q, d, rng)
    pairs = _kernels.decompose_scan(q, [int(c) for c in form.coeffs], d)
    for _, g_desc in pairs:
        lead = next((c for c in g_desc if c), 0)
        assert lead <= q - lead


def test_backend_flag_reported():
    assert _kernels.backend_name() == "numpy"


def _targets_on_the_slice(q, d, rng):
    """Forms whose leading coefficients the slice treats apart: F0 a nonzero
    cube, F0 = 0 with F1 != 0, F0 = F1 = 0 (y^2 divides F), and, when
    q = 1 (mod 3), a plant whose f0 is not its orbit's representative; each
    with its plant f."""
    f, form = _plant(q, d, rng, leading_g=0)
    out = {"F0 a nonzero cube": (f, [int(c) for c in form.coeffs])}
    f0, g0 = next((a, b) for a in range(1, q) for b in range(1, q) if (a**3 + b * b) % q == 0)
    while True:
        f, coeffs = _plant_unreduced(q, d, rng, f0, g0)
        if coeffs[1]:
            break
    out["F0 = 0"] = (f, coeffs)
    out["F0 = F1 = 0"] = _plant_unreduced(q, d, rng, 0, 0)
    if q % 3 == 1:
        f0 = next(x for x in range(1, q) if not _is_representative(q, x))
        out["f0 not representative"] = _plant_unreduced(q, d, rng, f0, rng.randrange(1, q))
    return out


@pytest.mark.parametrize("q,d", [(7, 4), (13, 2), (7, 2)])
def test_orbit_scan_matches_reference_on_the_slice_cases(q, d):
    # One f0 per orbit {f0, w f0, w^2 f0} is scanned and each hit expanded:
    # the whole hit set still equals the reference's, which tests every f.
    rng = random.Random(q * 17 + d)
    for case, (f, coeffs) in _targets_on_the_slice(q, d, rng).items():
        hits = _kernels.decompose_scan(q, coeffs, d)
        assert hits == _reference(q, coeffs, d), case
        assert set(_translates(q, f)) <= {fr for fr, _ in hits}, case


@pytest.mark.parametrize("q,d", [(13, 4)])
def test_orbit_scan_matches_reference_in_windows_at_each_translate(q, d):
    # The full reference at F_13, d = 4 tests 13^5 candidates; windows around
    # the plant and each of its translates keep it fast.
    rng = random.Random(q * 17 + d)
    total = q ** (d + 1)
    for case, (f, coeffs) in _targets_on_the_slice(q, d, rng).items():
        for fr in _translates(q, f):
            at = _index(q, fr)
            lo, hi = max(0, at - 700), min(total, at + 700)
            hits = _kernels.decompose_scan(q, coeffs, d, lo, hi)
            assert hits == _reference(q, coeffs, d, lo, hi), case
            assert fr in {x for x, _ in hits}, case


@pytest.mark.parametrize("q,d", [(7, 4), (13, 4), (7, 2), (13, 2)])
def test_windows_and_shards_separate_a_hit_from_its_translates(q, d):
    # A window holding one translate of a hit returns that translate alone,
    # and 3-way shards cut between the translates still add up to the scan.
    rng = random.Random(q * 19 + d)
    f, form = _plant(q, d, rng)
    while not f[0]:
        f, form = _plant(q, d, rng)
    coeffs = [int(c) for c in form.coeffs]
    full = _kernels.decompose_scan(q, coeffs, d)
    at = sorted(_index(q, fr) for fr in _translates(q, f))
    assert len(set(at)) == 3
    for i in at:
        window = _kernels.decompose_scan(q, coeffs, d, i, i + 1)
        assert window == _reference(q, coeffs, d, i, i + 1) == [p for p in full if _index(q, p[0]) == i]
        assert len(window) == 1
    total = q ** (d + 1)
    bounds = [0, at[1], at[2], total]
    parts = [_kernels.decompose_scan(q, coeffs, d, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert [sum(_index(q, fr) == i for fr, _ in part) for part, i in zip(parts, at)] == [1, 1, 1]
    assert sorted(p for part in parts for p in part) == full


@pytest.mark.parametrize("q,d", [(7, 4), (13, 4), (7, 2), (13, 2), (19, 2)])
def test_hit_sets_are_closed_under_cube_roots_of_unity(q, d):
    # (w f)^3 = f^3, so (f, g) and (w f, g) are hits together.
    rng = random.Random(q * 23 + d)
    for trial in range(6):
        _, form = _plant(q, d, rng, leading_g=0 if trial % 2 else None)
        hits = set(_kernels.decompose_scan(q, [int(c) for c in form.coeffs], d))
        assert hits
        assert {(fr, g) for f, g in hits for fr in _translates(q, f)} == hits


def _slice_rows(q, d, coeffs):
    """Rows the slice passes on, by the formula: q^(d-1) per representative
    nonzero cube root of F0, and q^d when F0 = F1 = 0."""
    roots = [x for x in range(1, q) if pow(x, 3, q) == coeffs[0] % q and _is_representative(q, x)]
    return len(roots) * q ** (d - 1) + (q**d if coeffs[0] % q == coeffs[1] % q == 0 else 0)


@pytest.mark.parametrize("q,d", [(7, 4), (11, 4), (13, 4), (101, 2)])
def test_scan_work_is_counted_by_its_formula(q, d):
    # The prefix pass runs on #{representative f0 : F0 - f0^3 a nonzero
    # square} * q^(d-1) rows, and the slice on the rows of _slice_rows;
    # counted from what the passes return, on the four fields of the
    # benchmark's z-search workload.
    rng = random.Random(q * 29 + d)
    table = _kernels.sqrt_table(q)
    tab = _field(q, d)
    forms = [[int(c) for c in _plant(q, d, rng, leading_g=g0)[1].coeffs] for g0 in (None, None, 0)]
    forms += [coeffs for _, coeffs in _targets_on_the_slice(q, d, rng).values()]
    for coeffs in forms:
        F = np.asarray(coeffs, dtype=np.int64)
        square = [
            f0
            for f0 in range(q)
            if _is_representative(q, f0) and (c0 := (coeffs[0] - f0**3) % q) and table[c0] >= 0
        ]
        prefix, _, _ = _kernels._prefix_residuals(F, tab)
        assert prefix.size == len(square) * q ** (d - 1)
        assert _kernels._slice_candidates(F, tab).size == _slice_rows(q, d, coeffs)
    # f0 = 0 and a third of the nonzero f0 when q = 1 (mod 3), every f0 else.
    assert tab.reps.size == 1 + ((q - 1) // 3 if q % 3 == 1 else q - 1)


def test_field_table_matches_an_uncached_build():
    for q, d in [(7, 4), (11, 4), (13, 2), (101, 2)]:
        _kernels._field_table.cache_clear()
        tab = _field(q, d)
        assert tab is _field(q, d)
        k = 3 * d // 2 + 1
        reps = [f0 for f0 in range(q) if _is_representative(q, f0)]
        assert tab.reps.tolist() == reps
        assert tab.units == tuple(sorted(set(_units(q)) - {1}))
        prefix = np.array([f0 + q * r for f0 in reps for r in range(q ** (d - 1))], dtype=np.int64)
        c = _kernels._digits(prefix, q, d)
        s = _kernels._conv(q, c, c, 2 * d - 1)
        cube = _kernels._conv(q, s, c, k + 2)
        expect = np.stack(c + s[: k + 2 - d] + cube).reshape(-1, len(reps), q ** (d - 1))
        assert np.array_equal(tab.columns, expect)
        assert np.array_equal(tab.sqrt, _kernels.sqrt_table(q))
        assert np.array_equal(tab.inv, _kernels._inverse_table(q))


def test_field_table_is_read_only():
    tab = _field(7, 4)
    for array in (tab.sqrt, tab.inv, tab.reps, tab.columns):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_workload_field_tables_fit_in_one_megabyte():
    # The benchmark's z-search serves these four fields from one process;
    # its peak_rss_mb bound is 5% of about 38 MB.
    tabs = [_field(q, d) for q, d in [(7, 4), (11, 4), (13, 4), (101, 2)]]
    assert sum(a.nbytes for t in tabs for a in (t.sqrt, t.inv, t.reps, t.columns)) <= 1 << 20
