"""Acceptance gate: every criterion at its stated tolerance, one line each.

All tolerances are exact (integer / exact-arithmetic equality); runtime
budgets are asserted as stated.  Criterion parameters (counts, seeds, field
sizes) are pinned here and never loosened at run time.
"""

import sys

from cubesquare import selftest


def _report(res):
    status = "PASS" if res["passed"] and res["within_budget"] else "FAIL"
    line = (
        f"ACCEPTANCE {res['criterion']}: {status} "
        f"({res['elapsed']:.2f}s of {res['budget']:.0f}s budget)"
    )
    print(line)
    sys.stdout.flush()
    return res


def test_criterion_1_e8_census():
    res = _report(selftest.criterion_e8())
    assert res["details"]["checks"] == {k: True for k in res["details"]["checks"]}
    assert res["passed"] and res["within_budget"]


def test_criterion_2_picard_lattice():
    res = _report(selftest.criterion_picard())
    assert res["details"]["checks"]["solve_quartic_cover"]
    assert res["details"]["checks"]["solve_two_torsion"]
    assert res["details"]["checks"]["solve_quintic"]
    assert res["details"]["checks"]["sections_240"]
    assert res["details"]["checks"]["isometry"]
    assert res["details"]["checks"]["dot_12"] and res["details"]["checks"]["dot_21"]
    assert res["passed"] and res["within_budget"]


def test_criterion_3_discriminant_identities():
    res = _report(selftest.criterion_discriminants(seed=1))
    assert res["details"]["checks"]["cubic_disc_identity_100"]
    assert res["details"]["kappa4"] == "-1"
    assert res["details"]["kappa3"] == "-1"
    assert res["passed"] and res["within_budget"]


def test_criterion_4_fibration_two_torsion():
    res = _report(selftest.criterion_fibration(seed=1))
    assert res["details"]["branch_ok"] == 50
    assert res["details"]["halving_ok"] == 20
    assert res["details"]["divisible_ok"] == 20
    assert res["passed"] and res["within_budget"]


def test_criterion_5_recillas():
    res = _report(selftest.criterion_recillas(trials=1000, seed=1))
    assert res["details"]["roundtrips"] == 1000
    assert res["details"]["genera"] == [(3, 4, 7)] or res["details"]["genera"] == [
        [3, 4, 7]
    ]
    assert res["details"]["checks"]["frobenius_matches_brute"]
    assert res["passed"] and res["within_budget"]


def test_criterion_6_locus_birationality():
    res = _report(selftest.criterion_locus(plants=100, seed=1))
    details = res["details"]
    assert details["plants"] == 100
    assert details["checks"] == {
        "planted_orbit_once": True,
        "extra_orbits_recompose": True,
        "extra_orbits_not_translates": True,
        "orbits_per_plant_at_most_5_4": True,
        "power_form_two_orbits": True,
    }, f"{details['orbits']} orbits over {details['plants']} plants"
    assert res["passed"] and res["within_budget"]


def test_criterion_6_exact_checks_at_f13(record_property):
    # q = 13 = 1 (mod 3), so a second sheet defined only over F_13(w) would
    # show here, where it cannot at F_11.  Only the exact per-plant checks are
    # asserted; no orbit bound is derived for q = 13, so the total is reported.
    verdicts = [v for _, _, v in selftest.planted_verdicts(13, 30, seed=1)]
    orbits = sum(v["orbits"] for v in verdicts)
    print(f"ACCEPTANCE locus-birationality at F_13: {orbits} orbits over {len(verdicts)} plants")
    record_property("orbits_over_30_plants", orbits)
    assert len(verdicts) == 30
    assert all(v["planted_once"] for v in verdicts)
    assert all(v["extras_recompose"] for v in verdicts)
    assert all(v["extras_not_translates"] for v in verdicts)


def test_criterion_7_registry_constants():
    res = _report(selftest.criterion_registry())
    checks = res["details"]["checks"]
    assert checks["covering_degrees"]
    assert res["details"]["documented"] == {"deg_Z": 3762, "clebsch_sextic": 40}
    assert checks["provenance_strings"]
    assert checks["shadow_mod2"] and checks["shadow_256"] and checks["shadow_255"]
    assert checks["shadow_theta"] and checks["shadow_weyl_quotient"]
    assert res["passed"] and res["within_budget"]
