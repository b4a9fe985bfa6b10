"""The acceptance suites, runnable from the CLI and from the test suite.

Each criterion function returns a dict with ``passed``, ``elapsed``,
``budget`` (seconds) and a ``details`` payload; ``run_all`` executes every
criterion in order.  All randomness is seeded and local.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from . import binform, e8, families, fibration, locusz, picard, recillas
from . import poly as upoly
from .binform import BinForm
from .fields import QQ, PrimeField
from .poly import UniPoly


def _suite(name, budget):
    def wrap(fn):
        def run(**kwargs):
            t0 = time.time()
            passed, details = fn(**kwargs)
            elapsed = time.time() - t0
            return {
                "criterion": name,
                "passed": bool(passed),
                "elapsed": round(elapsed, 3),
                "budget": budget,
                "within_budget": elapsed < budget,
                "details": details,
            }

        run.criterion_name = name
        return run

    return wrap


@_suite("e8-census", budget=1.0)
def criterion_e8():
    report = e8.census_report()
    checks = {
        "roots": report["roots"] == 240,
        "norm4": report["norm4"] == 2160,
        "weyl": report["weyl_order"] == 696729600 == 2**14 * 3**5 * 5**2 * 7,
        "mod2": report["mod2"] == {"zero": 1, "odd": 120, "even": 135},
        "per_class": (
            e8.mod2_census()["roots_per_odd_class"] == 2
            and e8.mod2_census()["norm4_per_even_class"] == 16
        ),
        "theta": report["theta"] == {"odd": 120, "even": 136},
        "weyl_quotient": report["weyl_order"] // (math.factorial(8) * 2**7) == 135,
    }
    return all(checks.values()), {"report": report, "checks": checks}


@_suite("picard-lattice", budget=10.0)
def criterion_picard():
    solves = picard.solve_halving_classes()
    sections = picard.enumerate_minimal_sections()
    isometry_ok = picard.verify_isometry()
    inter = picard.intersection_examples()
    checks = {
        "solve_quartic_cover": solves["quartic_cover"] == (6, 0, -2),
        "solve_two_torsion": solves["two_torsion"] == (9, -3, 0),
        "solve_quintic": solves["quintic_triple_point"] == (5, -3, -1),
        "sections_240": len(sections) == 240,
        "isometry": isometry_ok,
        "dot_12": inter["two_torsion_vs_quartic_cover"] == 12,
        "dot_21": inter["two_torsion_vs_quintic"] == 21,
    }
    return all(checks.values()), {
        "solves": {k: list(v) for k, v in solves.items()},
        "h_census": picard.section_h_census(),
        "checks": checks,
    }


def _random_form(rng, degree, bound=9):
    return BinForm(QQ, degree, [Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1)])


@_suite("discriminant-identities", budget=30.0)
def criterion_discriminants(seed: int = 1):
    rng = random.Random(seed)
    # A degree-12 form is determined by its values at 13 distinct points of
    # the line, so 13 pointwise checks give the exact form identity.
    samples = [(Fraction(t), Fraction(1)) for t in range(12)] + [(Fraction(1), Fraction(0))]
    identity_ok = True
    for _ in range(100):
        a = _random_form(rng, 4)
        b = _random_form(rng, 6)
        delta = families.weierstrass_discriminant(a, b)
        for (x0, y0) in samples:
            cubic = UniPoly(QQ, [b(x0, y0), a(x0, y0), 0, 1])
            lhs = upoly.discriminant(cubic)
            if lhs != -delta(x0, y0):
                identity_ok = False
    kappa4, kappa3 = families.reconcile_with_standard(probes=50, seed=seed)
    checks = {
        "cubic_disc_identity_100": identity_ok,
        "kappa4_constant": kappa4 is not None,
        "kappa3_constant": kappa3 is not None,
    }
    return all(checks.values()), {
        "kappa4": str(kappa4),
        "kappa3": str(kappa3),
        "checks": checks,
    }


@_suite("fibration-two-torsion", budget=60.0)
def criterion_fibration(seed: int = 1):
    field = PrimeField(1009)
    rng = random.Random(seed)
    branch_ok = 0
    for _ in range(50):
        w = fibration.random_nodal_model(field, rng)
        delta = w.delta
        droots = binform.roots_fp(delta)
        fam = fibration.two_torsion_trigonal(w)
        if families.delta12_cubic(fam) != delta:
            continue
        good = True
        branch = set()
        for at in fibration.base_points(field.p):
            cubic = fam.specialize(*at)
            if upoly.gcd(cubic, cubic.derivative()).degree > 0:
                branch.add(at)
        if branch != set(droots):
            good = False
        for at in droots:
            cubic = fam.specialize(*at)
            if upoly.gcd(cubic, cubic.derivative()).degree != 1:
                good = False  # not a plain double root
        if good:
            branch_ok += 1

    halving_ok = 0
    divisible_ok = 0
    for _ in range(20):
        w, s = fibration.random_planted_model(field, rng)
        fam = fibration.halving_quartic(w, s)
        fibers_checked = 0
        good = True
        u = 0
        while fibers_checked < 5 and u < field.p:
            at = (u, 1)
            u += 1
            try:
                fibration.specialize_fiber(w, at)
            except fibration.FibrationError:
                continue
            value = fibration.section_value(s, at)
            if value.infinite or value.y == 0:
                continue
            brute = fibration.halving_set_bruteforce(w, s, at)
            rational = fibration.halving_roots_fp(w, fam, at)
            if brute != rational:
                good = False
            fibers_checked += 1
        if good and fibers_checked == 5:
            halving_ok += 1
        try:
            quotient = families.delta12_quartic(fam).divexact(w.delta)
            if quotient.degree == 12:
                divisible_ok += 1
        except upoly.PolyError:
            pass
    checks = {
        "branch_locus_50": branch_ok == 50,
        "halving_20": halving_ok == 20,
        "delta12_divisible_20": divisible_ok == 20,
    }
    return all(checks.values()), {
        "branch_ok": branch_ok,
        "halving_ok": halving_ok,
        "divisible_ok": divisible_ok,
        "checks": checks,
    }


@_suite("recillas-roundtrip", budget=30.0)
def criterion_recillas(trials: int = 1000, seed: int = 1):
    rng = random.Random(seed)
    good = 0
    genera = set()
    attempts = 0
    while good < trials and attempts < 20 * trials:
        attempts += 1
        t = recillas.random_tuple(4, 12, rng=rng)
        try:
            triple, sextic = recillas.forward(t)
        except recillas.MonodromyError:
            continue  # non-transitive triple image; redraw
        genera.add(
            (recillas.rh_genus(t), recillas.rh_genus(triple), recillas.rh_genus(sextic))
        )
        if not all(p.is_transposition() for p in triple.perms):
            break
        if 2 - 2 * recillas.rh_genus(sextic) != 2 * (2 - 2 * recillas.rh_genus(triple)):
            break
        recillas.roundtrip_check(t)  # raises when not conjugate
        good += 1
    frob_ok = all(
        recillas.frobenius_count(4, k) == recillas.brute_force_tuple_count(4, k)
        for k in range(0, 5)
    )
    checks = {
        "roundtrips": good == trials,
        "genera": genera == {(3, 4, 7)},
        "frobenius_matches_brute": frob_ok,
    }
    return all(checks.values()), {
        "roundtrips": good,
        "genera": sorted(genera),
        "checks": checks,
    }


# Criterion 6's bound on the mean number of torus orbits per planted form;
# ``criterion_locus`` derives it.
ORBITS_PER_PLANT_BOUND = Fraction(5, 4)


def locus_verdict(verdicts) -> dict:
    """Criterion 6's checks over a list of ``locusz.plant_verdict`` results."""
    orbits = sum(v["orbits"] for v in verdicts)
    return {
        "planted_orbit_once": all(v["planted_once"] for v in verdicts),
        "extra_orbits_recompose": all(v["extras_recompose"] for v in verdicts),
        "extra_orbits_not_translates": all(v["extras_not_translates"] for v in verdicts),
        "orbits_per_plant_at_most_5_4": orbits <= ORBITS_PER_PLANT_BOUND * len(verdicts),
    }


def planted_verdicts(q: int, plants: int, seed: int) -> list:
    """(f, g, ``locusz.plant_verdict``) for ``plants`` seeded uniform plants
    f^3 + g^2 over F_q with a valid certificate, each scanned in full."""
    field = PrimeField(q)
    rng = random.Random(seed)
    out = []
    while len(out) < plants:
        f = BinForm(field, 4, [rng.randrange(q) for _ in range(5)])
        g = BinForm(field, 6, [rng.randrange(q) for _ in range(7)])
        try:
            cert = locusz.plant(f, g)
        except upoly.PolyError:
            continue
        if not locusz.verify_certificate(cert)["valid"]:
            continue
        out.append((f, g, locusz.planted_scan_report(cert)))
    return out


@_suite("locus-birationality", budget=300.0)
def criterion_locus(plants: int = 100, seed: int = 1):
    """Birationality of (f, g) -> f^3 + g^2 onto the locus (B), modulo
    (f, g) -> (lam^2 f, lam^3 g) with lam^6 = 1, seen on ``plants`` uniformly
    planted squarefree forms over F_11.

    Birationality promises one orbit over a generic form, not over every
    form.  Two pairs with f1^3 + g1^2 = f2^3 + g2^2 satisfy

        (g2 - g1)(g2 + g1) = (f1 - f2)(f1 - w f2)(f1 - w^2 f2),  w^3 = 1,

    and splitting each quartic factor on the right into two quadratics gives
    an 11-dimensional family of such pairs.  So the double-point locus is a
    hypersurface in the 12-dimensional (f, g) space; by Lang-Weil it holds a
    share c/q of uniform plants, and the mean number of orbits per plant is
    1 + O(1/q).  Such plants are genuine second decompositions, so the count
    of plants with a single orbit (``unique``) is reported, not asserted.

    The shadow of birationality is a bound on the mean, derived from what
    the alternative would show.  Were the map of degree >= 2 onto (B), the
    pairs over the same form that are not torus translates would fill a
    12-dimensional variety W' over the (f, g) space, not a hypersurface.
    Each geometrically irreducible component of W' defined over F_q has
    about q^12 rational points (Lang-Weil), i.e. about one further rational
    pair per plant.  Said per orbit: away from the branch locus the second
    sheet is an F_q-rational point of the quotient by mu6, and it lifts to an
    untwisted pair over F_q when its class in F_q^*/F_q^*6 is trivial; that
    group has order gcd(6, q - 1) = 2 at q = 11, so about half of the sheets
    lift (all of them when the sheet map lifts to pairs), each as an orbit of
    |mu6(F_11)| = 2 pairs.  A second sheet thus shows at least about 3/2
    orbits per plant, birationality about 1 + c/q.  The bound 5/4 is the
    midpoint of 1 and 3/2; at 100 plants a mean of 3/2 sits about five
    standard deviations (0.05) above it.  Its limit: a sheet defined only
    over F_q(w) has no component of W' fixed by Frobenius when q = 2 (mod 3),
    as q = 11 is, and would not show here.  The test suite runs the same
    exact per-plant checks on 30 plants over F_13, 13 = 1 (mod 3), with the
    orbit total reported and no bound asserted there.

    Asserted: ``locus_verdict`` over every plant's exact
    ``locusz.plant_verdict``, the bound above, and the two known orbits of
    the F_13 power form x^12 + y^12.  Every non-unique plant is listed with
    its extra orbits.
    """
    planted = planted_verdicts(11, plants, seed)
    verdicts = [v for _, _, v in planted]
    non_unique = [
        {
            "f": [int(c) for c in f.coeffs],
            "g": [int(c) for c in g.coeffs],
            "extra_orbits": v["extra_orbits"],
        }
        for f, g, v in planted
        if v["extra_orbits"]
    ]

    f13 = PrimeField(13)
    power_form = BinForm(f13, 12, [1] + [0] * 11 + [1])
    orbits = locusz.decompose_fq(power_form)
    has_first = any(
        o.contains_pair([1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1]) for o in orbits
    )
    has_second = any(
        o.contains_pair([0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0]) for o in orbits
    )
    checks = locus_verdict(verdicts)
    checks["power_form_two_orbits"] = len(orbits) >= 2 and has_first and has_second
    return all(checks.values()), {
        "plants": len(verdicts),
        "unique": sum(v["unique"] for v in verdicts),
        "orbits": sum(v["orbits"] for v in verdicts),
        "non_unique": non_unique,
        "power_form_orbits": len(orbits),
        "checks": checks,
    }


@_suite("constants-registry", budget=5.0)
def criterion_registry():
    reg = locusz.constants_registry()
    odd, even = e8.theta_char_counts(4)
    checks = {
        "deg_Z": reg["deg_Z"]["value"] == 3762,
        "covering_degrees": reg["covering_degrees"]["value"] == {"C": 120, "D": 135},
        "clebsch": reg["clebsch_sextic"]["value"] == 40,
        "provenance_strings": all(
            isinstance(v["provenance"], str) and len(v["provenance"]) > 20
            for v in reg.values()
        ),
        # consistency shadows
        "shadow_mod2": e8.mod2_census()["odd_classes"] == 120
        and e8.mod2_census()["even_classes"] == 135,
        "shadow_256": 1 + 120 + 135 == 256,
        "shadow_255": 120 + 135 == reg["covers_255"]["value"],
        "shadow_theta": (odd, even) == (120, 136),
        "shadow_weyl_quotient": reg["weyl"]["value"] // (math.factorial(8) * 2**7)
        == 135,
    }
    return all(checks.values()), {"checks": checks}


def run_all(trials: int | None = None, seed: int = 1):
    """Run every acceptance suite; returns the list of result dicts.

    ``trials`` sets the round trips of criterion 5 and, up to 100, the plants
    of criterion 6; None runs 1000 round trips and 100 plants."""
    roundtrips, plants = (1000, 100) if trials is None else (trials, min(trials, 100))
    return [
        criterion_e8(),
        criterion_picard(),
        criterion_discriminants(seed=seed),
        criterion_fibration(seed=seed),
        criterion_recillas(trials=roundtrips, seed=seed),
        criterion_locus(plants=plants, seed=seed),
        criterion_registry(),
    ]
