"""The locus of degree-12 forms expressible as a cube plus a square.

Certificates pair a degree-12 form F with a decomposition F = f^3 + g^2;
planting builds certificates, verification re-checks them exactly.  Over a
small prime field the full fiber over F is computed by ``decompose_fq``, an
exhaustive scan over every f of degree <= 4 (``_kernels.decompose_scan``:
the last coefficient of f is solved for, and each surviving candidate gets
the full perfect-square test on F - f^3), and raw pairs are grouped into
orbits of the torus action (f, g) -> (lam^2 f, lam^3 g) with
lam^6 = 1.  The map (f, g) -> f^3 + g^2 is birational onto the locus
modulo that action, so a generic planted degree-12 form has exactly one
orbit.  Planted pairs on the double-point hypersurface of the (f, g) space,
a share of about c/q of uniform plants over F_q, give forms with genuine
extra orbits; these are reported, never suppressed.  The documented headline
constants that are out of reach of a desk-scale computation live in
``constants_registry`` with provenance notes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from . import _kernels, binform
from .binform import BinForm
from .families import BPoint
from .fields import PrimeField, same_field
from .poly import PolyError

# Degree of F -> (degree d of f, largest q the scan accepts): degree 12
# (deg f = 4, deg g = 6) up to q = 13, sextics (deg f = 2, deg g = 3) up to
# q = 101.  The scan covers q^(d+1) candidate f.
SCAN_BOUNDS = {12: (4, 13), 6: (2, 101)}


class ZCertificate:
    """A degree-12 form with a claimed cube-plus-square decomposition."""

    __slots__ = ("form", "point")

    def __init__(self, form: BinForm, point: BPoint):
        if form.degree != 12:
            raise PolyError("certificate form must have degree 12")
        same_field(form.field, point.field)
        if point.normalization != "monic":
            point = point.convert("monic")
        self.form = form
        self.point = point

    @property
    def field(self):
        return self.form.field


def plant(f: BinForm, g: BinForm) -> ZCertificate:
    """Certificate for F = f^3 + g^2 (deg f <= 4, deg g <= 6)."""
    point = BPoint(binform.pad(f, 4), binform.pad(g, 6), "monic")
    form = point.degree12()
    if form.is_zero:
        raise PolyError("f^3 + g^2 vanishes identically")
    return ZCertificate(form, point)


def verify_certificate(cert: ZCertificate) -> dict:
    """Exact decomposition check plus squarefreeness; failures are diagnostics."""
    recomputed = cert.point.degree12()
    diff = recomputed - cert.form
    decomposes = diff.is_zero
    squarefree = (not cert.form.is_zero) and binform.is_squarefree(cert.form)
    diagnostics = []
    if not decomposes:
        diagnostics.append(
            "form minus f^3+g^2 is nonzero: "
            + " ".join(cert.field.format(c) for c in diff.coeffs)
        )
    if not squarefree:
        diagnostics.append("degree-12 form is not squarefree")
    return {
        "valid": decomposes and squarefree,
        "decomposes": decomposes,
        "squarefree": squarefree,
        "diagnostics": diagnostics,
    }


def mu6(field: PrimeField) -> list[int]:
    """The sixth roots of unity in F_q, ascending."""
    return sorted(x for x in range(1, field.p) if pow(x, 6, field.p) == 1)


class DecompositionOrbit:
    """One orbit of raw (f, g) pairs under (f, g) -> (lam^2 f, lam^3 g)."""

    __slots__ = ("field", "members")

    def __init__(self, field: PrimeField, members):
        self.field = field
        self.members = tuple(sorted(members))

    @property
    def representative(self):
        return self.members[0]

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, DecompositionOrbit) and other.members == self.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"DecompositionOrbit(size={len(self.members)}, rep={self.representative})"

    def contains_pair(self, f_desc, g_desc) -> bool:
        f_desc = tuple(int(c) % self.field.p for c in f_desc)
        g_desc = tuple(int(c) % self.field.p for c in g_desc)
        return (f_desc, g_desc) in self.members


def _orbit_of(field: PrimeField, f_desc, g_desc, units) -> frozenset:
    p = field.p
    out = set()
    for lam in units:
        l2, l3 = lam * lam % p, pow(lam, 3, p)
        out.add(
            (
                tuple(c * l2 % p for c in f_desc),
                tuple(c * l3 % p for c in g_desc),
            )
        )
    return frozenset(out)


def _group_orbits(field: PrimeField, raw_pairs) -> list[DecompositionOrbit]:
    units = mu6(field)
    raw = set(raw_pairs)
    orbits = []
    seen = set()
    for pair in sorted(raw):
        if pair in seen:
            continue
        orbit = _orbit_of(field, pair[0], pair[1], units)
        if not orbit <= raw:
            raise PolyError(f"scan output not closed under the torus action at {pair}")
        seen |= orbit
        orbits.append(DecompositionOrbit(field, orbit))
    return sorted(orbits, key=lambda o: o.representative)


def decompose_fq(form: BinForm, jobs: int = 1) -> list[DecompositionOrbit]:
    """All cube-plus-square decompositions of a squarefree form of degree 12
    (q <= 13) or 6 (q <= 101) over F_q, as torus orbits.

    Exhaustive over all q^(d+1) candidate f; the scan enumerates the q^d
    prefixes and solves for the last coefficient (see ``_kernels``).  With
    ``jobs`` > 1 the candidate range is split over that many worker
    processes; the orbits do not depend on ``jobs``.  For sextics the
    per-field orbit count is empirical data: a lower bound for the geometric
    count of essentially different decompositions, never asserted to equal
    any particular value.
    """
    field = form.field
    if not isinstance(field, PrimeField):
        raise PolyError("the decomposition scan runs over a prime field")
    if form.degree not in SCAN_BOUNDS:
        raise PolyError(f"the scan supports degree 12 or 6, got {form.degree}")
    d, qmax = SCAN_BOUNDS[form.degree]
    q = field.p
    if q > qmax:
        raise PolyError(f"the degree-{form.degree} scan needs q <= {qmax}, got {q}")
    if not binform.is_squarefree(form):
        raise PolyError(f"degree-{form.degree} form is not squarefree")
    coeffs = [int(c) for c in form.coeffs]
    if jobs == 1:
        canonical = _kernels.decompose_scan(q, coeffs, d)
    else:
        bounds = [q ** (d + 1) * i // jobs for i in range(jobs + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(
                _kernels.decompose_scan,
                [q] * jobs, [coeffs] * jobs, [d] * jobs, bounds[:-1], bounds[1:],
            )
            canonical = [hit for part in parts for hit in part]
    raw = set()
    for f_desc, g_desc in canonical:
        raw.add((f_desc, g_desc))
        raw.add((f_desc, tuple(-c % q for c in g_desc)))
    return _group_orbits(field, raw)


def _recomposes(cert: ZCertificate, f_desc, g_desc) -> bool:
    try:
        other = plant(BinForm(cert.field, 4, f_desc), BinForm(cert.field, 6, g_desc))
    except PolyError:
        return False
    return other.form == cert.form and verify_certificate(other)["valid"]


def plant_verdict(cert: ZCertificate, orbits) -> dict:
    """Exact checks on the orbits a scan returned for one planted form.

    Pure in its inputs: ``orbits`` is any list of ``DecompositionOrbit``
    claimed to be the decompositions of ``cert.form``.  The planted pair must
    lie in exactly one orbit.  Every other orbit is an extra orbit; its
    representative must recompose the form through ``plant`` and
    ``verify_certificate`` (BinForm arithmetic, independent of the scan
    kernel) and must not be a mu6(F_q)-translate (lam^2 f, lam^3 g) of the
    planted pair.  ``unique`` says the planted orbit is the only one.
    """
    f, g = cert.point.f, cert.point.g
    f_desc = [int(c) for c in f.coeffs]
    g_desc = [int(c) for c in g.coeffs]
    planted = [o for o in orbits if o.contains_pair(f_desc, g_desc)]
    extras = [o.representative for o in orbits if not o.contains_pair(f_desc, g_desc)]
    translates = {(f.scale(lam * lam), g.scale(lam**3)) for lam in mu6(cert.field)}
    return {
        "orbits": len(orbits),
        "unique": len(planted) == 1 and not extras,
        "extra_orbits": [[list(fr), list(gr)] for fr, gr in extras],
        "planted_once": len(planted) == 1,
        "extras_recompose": all(_recomposes(cert, fr, gr) for fr, gr in extras),
        "extras_not_translates": not any(
            (BinForm(cert.field, 4, fr), BinForm(cert.field, 6, gr)) in translates
            for fr, gr in extras
        ),
    }


def planted_scan_report(cert: ZCertificate) -> dict:
    """Scan the certificate's form over F_q, q <= 13, and judge the result
    with ``plant_verdict``; extra orbits are listed, never suppressed."""
    return plant_verdict(cert, decompose_fq(cert.form))


def constants_registry() -> dict:
    """Documented headline constants with provenance notes.

    These are recorded values whose full recomputation is out of scope at
    desk scale; each entry names the consistency shadow this package does
    test.
    """
    return {
        "deg_Z": {
            "value": 3762,
            "provenance": (
                "degree of the locus of degree-12 binary forms splitting as a "
                "cube plus a square, inside the P^12 of all degree-12 forms; "
                "documented constant, not recomputed here (the known "
                "derivations go through Hurwitz-space sheet counts); tested "
                "shadow: the birationality scan over F_11 (each planted orbit "
                "found once, extra orbits genuine second decompositions, at "
                "most 5/4 orbits per plant against 3/2 for a second sheet)"
            ),
        },
        "covering_degrees": {
            "value": {"C": 120, "D": 135},
            "provenance": (
                "sheet counts of the two tetragonal-data covers of the space "
                "of twelve-nodal fibrations; documented constants; tested "
                "shadow: the mod-2 class census 1 + 120 + 135 = 256 of the "
                "rank-8 even unimodular lattice"
            ),
        },
        "clebsch_sextic": {
            "value": 40,
            "provenance": (
                "number of essentially different cube-plus-square splittings "
                "of a general sextic form; documented constant; tested "
                "shadow: the per-field orbit histogram of the sextic scan "
                "(a lower bound per field, never asserted equal)"
            ),
        },
        "sections_disjoint": {
            "value": 240,
            "provenance": (
                "sections disjoint from the zero section = minimal vectors "
                "of the rank-8 lattice; reproduced exactly by enumeration"
            ),
        },
        "weyl": {
            "value": 696729600,
            "provenance": (
                "order of the rank-8 reflection group, 2^14 3^5 5^2 7; "
                "reproduced from the factorization and the degree product"
            ),
        },
        "theta": {
            "value": [120, 136],
            "provenance": (
                "odd/even theta-characteristic counts in genus 4; reproduced "
                "by the closed form 2^(g-1)(2^g -+ 1)"
            ),
        },
        "covers_255": {
            "value": 255,
            "provenance": (
                "connected unramified double covers of a genus-4 curve "
                "= 2^(2g) - 1; reproduced: 120 + 135 = 255"
            ),
        },
    }
