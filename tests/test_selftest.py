"""Criterion 6's verdict flips on each fault it is meant to catch.

The planted pairs are the first plant of ``criterion_locus`` at seed 1 (one
orbit) and its first plant with extra orbits (two of them).  The verdict
helpers are pure, so faults are injected into the orbit lists they judge.
Further tests check that ``run_all`` runs the trial count it is given, that
criterion 4 draws only the models it is asked for, and that the registry's
consistency shadows compare computed values, so that each can fail.
"""

import pytest

from cubesquare import e8, fibration, locusz, selftest
from cubesquare.binform import BinForm
from cubesquare.fields import PrimeField

F11 = PrimeField(11)
UNIQUE = ([2, 9, 1, 4, 1], [7, 7, 7, 10, 6, 3, 1])
NON_UNIQUE = ([5, 10, 8, 7, 8], [3, 1, 0, 1, 2, 2, 2])
# With this many one-orbit plants the non-unique plant's orbits stay within
# 5/4 per plant even with one orbit added: 3 + 1 + 12 <= 5/4 * 13.
PADDING = 12


def _scan(pair):
    f, g = pair
    cert = locusz.plant(BinForm(F11, 4, f), BinForm(F11, 6, g))
    return cert, locusz.decompose_fq(cert.form)


@pytest.fixture(scope="module")
def plants():
    return _scan(UNIQUE), _scan(NON_UNIQUE)


def _checks(plants, orbits):
    (u_cert, u_orbits), (cert, _) = plants
    unique = locusz.plant_verdict(u_cert, u_orbits)
    return selftest.locus_verdict([locusz.plant_verdict(cert, orbits)] + [unique] * PADDING)


def test_genuine_plants_pass(plants):
    (_, u_orbits), (_, orbits) = plants
    assert len(u_orbits) == 1 and len(orbits) == 3
    checks = _checks(plants, orbits)
    assert all(checks.values()), checks


def test_extra_pair_that_does_not_recompose_fails(plants):
    _, (_, orbits) = plants
    f, g = NON_UNIQUE
    bogus = locusz.DecompositionOrbit(F11, [(tuple(f[:-1] + [f[-1] + 1]), tuple(g))])
    checks = _checks(plants, orbits + [bogus])
    assert not checks["extra_orbits_recompose"]
    assert checks["orbits_per_plant_at_most_5_4"]
    assert not all(checks.values())


def test_torus_translate_listed_as_extra_orbit_fails(plants):
    _, (_, orbits) = plants
    f, g = (tuple(c) for c in NON_UNIQUE)
    minus_g = tuple(-c % 11 for c in g)
    planted = [o for o in orbits if o.contains_pair(f, g)]
    assert planted and set(planted[0].members) == {(f, g), (f, minus_g)}
    split = [o for o in orbits if o is not planted[0]] + [
        locusz.DecompositionOrbit(F11, [(f, g)]),
        locusz.DecompositionOrbit(F11, [(f, minus_g)]),
    ]
    checks = _checks(plants, split)
    assert checks["planted_orbit_once"] and checks["extra_orbits_recompose"]
    assert not checks["extra_orbits_not_translates"]
    assert checks["orbits_per_plant_at_most_5_4"]
    assert not all(checks.values())


def test_orbit_total_above_five_quarters_per_plant_fails(plants):
    (u_cert, u_orbits), (cert, orbits) = plants
    verdicts = [locusz.plant_verdict(cert, orbits)]
    verdicts += [locusz.plant_verdict(u_cert, u_orbits)] * 4
    checks = selftest.locus_verdict(verdicts)  # 7 orbits > 5/4 * 5
    assert checks["planted_orbit_once"] and checks["extra_orbits_recompose"]
    assert checks["extra_orbits_not_translates"]
    assert not checks["orbits_per_plant_at_most_5_4"]


def test_scan_that_misses_the_planted_orbit_fails(plants):
    _, (_, orbits) = plants
    f, g = NON_UNIQUE
    checks = _checks(plants, [o for o in orbits if not o.contains_pair(f, g)])
    assert not checks["planted_orbit_once"]
    assert not all(checks.values())


def _run_all_arguments(monkeypatch, trials):
    seen = {}
    for name in [n for n in dir(selftest) if n.startswith("criterion_")]:
        monkeypatch.setattr(selftest, name, lambda name=name, **kw: seen.setdefault(name, kw))
    selftest.run_all(trials=trials)
    return seen


@pytest.mark.parametrize("trials, roundtrips, planted", [(5, 5, 5), (0, 0, 0), (None, 1000, 100)])
def test_run_all_runs_the_trials_it_is_given(monkeypatch, trials, roundtrips, planted):
    seen = _run_all_arguments(monkeypatch, trials)
    assert seen["criterion_recillas"]["trials"] == roundtrips
    assert seen["criterion_locus"]["plants"] == planted


@pytest.mark.parametrize("trials, nodal, planted", [(5, 5, 5), (0, 0, 0), (30, 30, 20), (None, 50, 20)])
def test_run_all_caps_the_fibration_models(monkeypatch, trials, nodal, planted):
    seen = _run_all_arguments(monkeypatch, trials)
    assert seen["criterion_fibration"] == {"seed": 1, "nodal": nodal, "planted": planted}


def test_small_fibration_suite_draws_fewer_models(monkeypatch):
    drawn = {"nodal": 0, "planted": 0}
    for kind in drawn:
        real = getattr(fibration, f"random_{kind}_model")

        def counted(*args, real=real, kind=kind):
            drawn[kind] += 1
            return real(*args)

        monkeypatch.setattr(fibration, f"random_{kind}_model", counted)
    res = selftest.criterion_fibration(seed=7, nodal=3, planted=2)
    assert drawn == {"nodal": 3, "planted": 2}
    assert res["passed"]
    assert res["details"]["checks"] == {"branch_locus_3": True, "halving_2": True, "delta12_divisible_2": True}


def test_registry_shadows_compare_computed_values(monkeypatch):
    assert selftest.criterion_registry()["passed"]
    census = dict(e8.mod2_census())
    monkeypatch.setattr(e8, "mod2_census", lambda: dict(census, even_classes=134))
    checks = selftest.criterion_registry()["details"]["checks"]
    failed = ["covering_degrees", "shadow_mod2", "shadow_256", "shadow_255"]
    assert [name for name, ok in checks.items() if not ok] == failed
    monkeypatch.undo()
    monkeypatch.setattr(e8, "weyl_order", lambda: 696729600 * 2)
    checks = selftest.criterion_registry()["details"]["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["shadow_weyl_quotient"]
