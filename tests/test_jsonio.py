import json
import random

import pytest

from cubesquare import fibration, jsonio, recillas
from cubesquare.binform import BinForm
from cubesquare.families import BPoint, CubicFamily, QuarticFamily
from cubesquare.fields import QQ, PrimeField
from cubesquare.jsonio import SchemaError
from test_cli import DOUBLED_SECTION_INPUT

F1009 = PrimeField(1009)


def test_form_roundtrip_with_rational_strings():
    f = BinForm(QQ, 4, ["1/2", "-3", "0", "7/5", "2"])
    doc = jsonio.form_to_json(f)
    assert doc["coeffs"] == ["1/2", "-3", "0", "7/5", "2"]
    assert jsonio.form_from_json(doc) == f


def test_form_coefficients_are_descending_in_x():
    # a0 x^4 + a1 x^3 y + ... + a4 y^4: index 0 is the x^4 coefficient
    f = jsonio.form_from_json(
        {"degree": 4, "field": {"kind": "Q"}, "coeffs": ["5", "0", "0", "0", "0"]}
    )
    assert f(1, 0) == 5 and f(0, 1) == 0


def test_form_schema_errors():
    with pytest.raises(SchemaError):
        jsonio.form_from_json({"degree": 2, "field": {"kind": "Q"}, "coeffs": ["1"]})
    with pytest.raises(SchemaError):
        jsonio.form_from_json(
            {"degree": 1, "field": {"kind": "Q"}, "coeffs": ["1/0", "1"]}
        )
    with pytest.raises(SchemaError):
        jsonio.form_from_json({"degree": 1, "coeffs": ["1", "1"]})


def test_family_roundtrip():
    fam = QuarticFamily.constants(QQ, [1, 0, 0, 2, 3])
    doc = jsonio.family_to_json(fam)
    assert doc["kind"] == "quartic" and doc["profile"] == fam.profile
    assert [jsonio.form_from_json(f) for f in doc["coeff_forms"]] == list(fam.p)
    cfam = CubicFamily(
        BinForm.constant(F1009, 1),
        BinForm.zero(F1009, 2),
        BinForm(F1009, 4, [1, 2, 3, 4, 5]),
        BinForm(F1009, 6, [1, 0, 0, 0, 0, 0, 6]),
        profile="E",
    )
    doc = jsonio.family_to_json(cfam)
    assert doc["kind"] == "cubic" and doc["profile"] == "E"
    assert [jsonio.form_from_json(f) for f in doc["coeff_forms"]] == list(cfam.q)
    with pytest.raises(SchemaError):
        jsonio.family_to_json(fam.p[0])


def test_model_and_section_roundtrip():
    rng = random.Random(0)
    w, s = fibration.random_planted_model(F1009, rng)
    w2 = jsonio.model_from_json(jsonio.model_to_json(w))
    assert w2.a == w.a and w2.b == w.b
    s2 = jsonio.section_from_json(jsonio.section_to_json(s))
    assert s2 == s
    o = jsonio.section_from_json(jsonio.section_to_json(fibration.Section.zero()))
    assert o.is_zero
    # a denominator-bearing section survives the trip too
    doc = json.loads(DOUBLED_SECTION_INPUT)
    w = jsonio.model_from_json(doc["model"])
    d = jsonio.section_from_json(doc["section"], model=w)
    assert d.contact_with_zero == 3
    assert jsonio.section_to_json(d) == doc["section"]


def test_bpoint_roundtrip():
    bp = BPoint(BinForm.monomial(QQ, 4, 4), BinForm.monomial(QQ, 6, 0), "monic")
    assert jsonio.bpoint_from_json(jsonio.bpoint_to_json(bp)) == bp


def test_tuple_roundtrip_one_indexed():
    t = recillas.random_tuple(4, 12, seed=3)
    doc = jsonio.tuple_to_json(t)
    assert all(min(p) == 1 and max(p) == 4 for p in doc["perms"])
    assert jsonio.tuple_from_json(doc) == t
    with pytest.raises(SchemaError):
        jsonio.tuple_from_json({"degree": 4, "perms": [[1, 1, 2, 3]]})


def test_divclass_roundtrip():
    from cubesquare.picard import DivClass

    d = DivClass(6, [0, 0, -2, -2, -2, -2, -2, -2, -2])
    assert jsonio.divclass_from_json(jsonio.divclass_to_json(d)) == d
    with pytest.raises(SchemaError):
        jsonio.divclass_from_json({"h": 1, "e": [0, 0]})


def test_reports_are_deterministic():
    payload = {"b": 2, "a": [3, 1]}
    r1 = jsonio.make_report("cmd", payload, [payload])
    r2 = jsonio.make_report("cmd", payload, [payload])
    assert jsonio.dump_report(r1) == jsonio.dump_report(r2)
    assert json.loads(jsonio.dump_report(r1))["inputs_digest"] == r1["inputs_digest"]
    # digest changes when inputs change
    r3 = jsonio.make_report("cmd", payload, [{"b": 2, "a": [3, 2]}])
    assert r3["inputs_digest"] != r1["inputs_digest"]
