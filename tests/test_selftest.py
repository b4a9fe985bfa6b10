"""Criterion 6's verdict flips on each fault it is meant to catch.

The planted pairs are the first plant of ``criterion_locus`` at seed 1 (one
orbit) and its first plant with extra orbits (two of them).  The verdict
helpers are pure, so faults are injected into the orbit lists they judge.
"""

import pytest

from cubesquare import locusz, selftest
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
