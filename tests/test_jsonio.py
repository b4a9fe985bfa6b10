import hashlib
import json
import random
from collections import OrderedDict

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


class Label(str):
    pass


class Count(int):
    pass


class UserList(list):
    pass


def _json_reference(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "report",
    [
        {},
        [],
        {"empty_list": [], "empty_object": {}, "nested": [[], {}, [[]], {"a": {}}]},
        {"deep": [[[[[{"x": [1, [2, [3, (4, 5)]]]}]]]]], "tuple": (1, "a", (None, True))},
        {"text": "schééma ☃ \U0001f600", "surrogate": "\ud800x\udfff", "ctl": "a\"b\\c\n\t\x00"},
        {"big": [-(10**40), 10**40, -1, 0], "alone": -(2**63) - 1},
        {"strings": ["1", "-2/3", "é", "\ud800"], "mixed": ["1", 1, None, "1"]},
        {10: "ten", 9: "nine", -1: [True, False, None]},
        {"b": True, "a": None, "c": False, "d": [True, 1, None, 0]},
        {"float": [1.5, -0.0, 1e300, float("inf"), float("nan")], "keys": {2.5: 1, 1: 2}},
        {"true": {True: 2, False: 3}, "null": {None: 1}},
        "a lone string",
        -17,
        {"subclasses": OrderedDict(b=Label("é"), a=[Count(3), Count(-4)]), "userlist": UserList([1])},
    ],
)
def test_dump_report_writes_the_bytes_of_json_dumps(report):
    assert jsonio.dump_report(report) == _json_reference(report)


def test_dump_report_matches_json_dumps_on_a_random_report():
    rng = random.Random(26)

    def value(depth):
        kind = rng.randrange(7 if depth < 4 else 4)
        if kind == 0:
            return rng.randrange(-(10**20), 10**20)
        if kind == 1:
            codes = [rng.choice([rng.randrange(32, 127), rng.randrange(0x80, 0x3000)]) for _ in range(5)]
            return "".join(map(chr, codes))
        if kind == 2:
            return rng.choice([None, True, False])
        if kind == 3:
            return [rng.randrange(-9, 9) for _ in range(rng.randrange(4))]
        if kind == 4:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        if kind == 5:
            return tuple(value(depth + 1) for _ in range(rng.randrange(3)))
        return {f"k{rng.randrange(30)}": value(depth + 1) for _ in range(rng.randrange(5))}

    for _ in range(200):
        report = {"payload": value(0), "status": "ok"}
        assert jsonio.dump_report(report) == _json_reference(report)


def test_dump_report_rejects_what_json_rejects():
    for report in ({"x": object()}, {(1, 2): 1}, {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            _json_reference(report)
        with pytest.raises(TypeError):
            jsonio.dump_report(report)


def test_inputs_digest_is_the_sha256_of_the_canonical_parts():
    parts = [{"b": [1, "é"], "a": None}, 7, "x"]
    expected = hashlib.sha256(b"".join(jsonio.canonical_dumps(p).encode() + b"\x00" for p in parts))
    assert jsonio.inputs_digest(*parts) == expected.hexdigest()
