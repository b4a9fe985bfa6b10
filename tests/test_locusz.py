import random
from collections import Counter

import pytest

from cubesquare import binform, locusz
from cubesquare.binform import BinForm
from cubesquare.fields import QQ, PrimeField
from cubesquare.poly import PolyError

F7 = PrimeField(7)
F11 = PrimeField(11)
F13 = PrimeField(13)


def test_plant_and_verify_membership_point():
    cert = locusz.plant(BinForm.monomial(QQ, 4, 4), BinForm.monomial(QQ, 6, 0))
    assert cert.form == BinForm(QQ, 12, [1] + [0] * 11 + [1])
    report = locusz.verify_certificate(cert)
    assert report["valid"] and report["squarefree"] and report["decomposes"]


def test_both_decompositions_of_the_power_form_verify():
    # x^12 + y^12 = (x^4)^3 + (y^6)^2 = (y^4)^3 + (x^6)^2
    target = BinForm(QQ, 12, [1] + [0] * 11 + [1])
    first = locusz.plant(BinForm.monomial(QQ, 4, 4), BinForm.monomial(QQ, 6, 0))
    second = locusz.plant(BinForm.monomial(QQ, 4, 0), BinForm.monomial(QQ, 6, 6))
    assert first.form == second.form == target
    assert locusz.verify_certificate(first)["valid"]
    assert locusz.verify_certificate(second)["valid"]
    assert first.point.f != second.point.f


def test_plant_degenerate_cases():
    # (s^4, s^6): F = 2 s^12, decomposition holds but not squarefree
    cert = locusz.plant(BinForm.monomial(QQ, 4, 4), BinForm.monomial(QQ, 6, 6))
    report = locusz.verify_certificate(cert)
    assert report["decomposes"] and not report["squarefree"] and not report["valid"]
    # (0, g): F = g^2, never squarefree
    g = BinForm(QQ, 6, [1, 0, 0, 2, 0, 0, 1])
    cert2 = locusz.plant(BinForm.zero(QQ, 4), g)
    assert not locusz.verify_certificate(cert2)["squarefree"]
    with pytest.raises(PolyError):
        locusz.plant(BinForm.zero(QQ, 4), BinForm.zero(QQ, 6))


def test_verify_reports_mismatch():
    cert = locusz.plant(BinForm.monomial(QQ, 4, 4), BinForm.monomial(QQ, 6, 0))
    doctored = locusz.ZCertificate(
        cert.form + BinForm.monomial(QQ, 12, 3), cert.point
    )
    report = locusz.verify_certificate(doctored)
    assert not report["decomposes"]
    assert any("nonzero" in d for d in report["diagnostics"])


def test_power_form_over_f13_has_both_printed_orbits():
    form = BinForm(F13, 12, [1] + [0] * 11 + [1])
    orbits = locusz.decompose_fq(form)
    assert len(orbits) >= 2
    assert any(o.contains_pair([1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1]) for o in orbits)
    assert any(o.contains_pair([0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0]) for o in orbits)


def test_scan_rejects_bad_inputs():
    with pytest.raises(PolyError):
        # wrong degree
        locusz.decompose_fq(BinForm(F13, 8, [1, 0, 0, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(PolyError):
        # not squarefree: x^2 y^10
        locusz.decompose_fq(BinForm(F13, 12, [0] * 10 + [1, 0, 0]))
    with pytest.raises(PolyError):
        # field too large for the q^5 scan
        locusz.decompose_fq(BinForm(PrimeField(17), 12, [1] + [0] * 11 + [1]))
    with pytest.raises(PolyError):
        locusz.decompose_fq(BinForm(PrimeField(103), 6, [1, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(PolyError):
        # sextic with a square factor: (xy)^2 (x^2 + y^2)
        sq = BinForm(F11, 2, [0, 1, 0])
        locusz.decompose_fq(sq * sq * BinForm(F11, 2, [1, 0, 1]))


def _plant_fq(field, rng):
    while True:
        f = BinForm(field, 4, [rng.randrange(field.p) for _ in range(5)])
        g = BinForm(field, 6, [rng.randrange(field.p) for _ in range(7)])
        try:
            cert = locusz.plant(f, g)
        except PolyError:
            continue
        if locusz.verify_certificate(cert)["valid"]:
            return cert


@pytest.mark.parametrize("q,expected_orbit", [(7, 6), (11, 2), (13, 6)])
def test_orbit_sizes_match_mu6(q, expected_orbit):
    field = PrimeField(q)
    assert len(locusz.mu6(field)) == expected_orbit
    rng = random.Random(q)
    for _ in range(3):
        cert = _plant_fq(field, rng)
        orbits = locusz.decompose_fq(cert.form)
        f_desc = [int(c) for c in cert.point.f.coeffs]
        g_desc = [int(c) for c in cert.point.g.coeffs]
        planted = [o for o in orbits if o.contains_pair(f_desc, g_desc)]
        assert len(planted) == 1
        # trivial stabilizer: the orbit has exactly |mu6| members
        assert len(planted[0]) == expected_orbit


def test_orbits_regeneratable_from_any_member():
    rng = random.Random(99)
    cert = _plant_fq(F11, rng)
    for orbit in locusz.decompose_fq(cert.form):
        f_desc, g_desc = orbit.members[0]
        regenerated = locusz._orbit_of(F11, f_desc, g_desc, locusz.mu6(F11))
        assert regenerated == frozenset(orbit.members)


def test_planted_scan_report_shape():
    rng = random.Random(5)
    cert = _plant_fq(F11, rng)
    report = locusz.planted_scan_report(cert)
    assert report["orbits"] >= 1
    assert report["unique"] == (report["orbits"] == 1)
    assert len(report["extra_orbits"]) == report["orbits"] - 1


def test_sextic_scan_finds_planted_orbit():
    rng = random.Random(6)
    while True:
        f = BinForm(F11, 2, [rng.randrange(11) for _ in range(3)])
        g = BinForm(F11, 3, [rng.randrange(11) for _ in range(4)])
        form = f**3 + g * g
        if not form.is_zero and binform.is_squarefree(form):
            break
    orbits = locusz.decompose_fq(form)
    f_desc = [int(c) for c in f.coeffs]
    g_desc = [int(c) for c in g.coeffs]
    assert any(o.contains_pair(f_desc, g_desc) for o in orbits)


def test_sextic_orbit_histogram_is_reported_not_asserted():
    # desk-scale data gathering at a prime near 49; the geometric count 40
    # for a general sextic is a registry constant, not an assertion here
    field = PrimeField(47)
    rng = random.Random(7)
    histogram = Counter()
    for _ in range(10):
        while True:
            form = BinForm(field, 6, [rng.randrange(47) for _ in range(7)])
            if not form.is_zero and binform.is_squarefree(form):
                break
        histogram[len(locusz.decompose_fq(form))] += 1
    assert sum(histogram.values()) == 10
    assert all(k >= 0 for k in histogram)


def test_constants_registry():
    reg = locusz.constants_registry()
    assert reg["deg_Z"]["value"] == 3762
    assert reg["covering_degrees"]["value"] == {"C": 120, "D": 135}
    assert reg["clebsch_sextic"]["value"] == 40
    assert reg["sections_disjoint"]["value"] == 240
    assert reg["weyl"]["value"] == 696729600
    assert reg["theta"]["value"] == [120, 136]
    assert reg["covers_255"]["value"] == 255
    for entry in reg.values():
        assert len(entry["provenance"]) > 20
