"""JSON codecs for the wire formats of every module.

All exact integers travel as decimal strings (rationals as "num/den") so
downstream tooling never truncates them at 53 bits.  Encoders emit plain
dicts; ``dump_report`` serializes with sorted keys so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json

from .binform import BinForm
from .families import BPoint, CubicFamily, QuarticFamily
from .fibration import Section, WModel
from .fields import field_from_json, field_to_json
from .picard import Constraint, DivClass
from .recillas import HurwitzTuple, Perm


class SchemaError(ValueError):
    """Malformed or mistyped input document; names the offending field."""


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _count(obj: dict, key: str, where: str, default=None) -> int:
    """The non-negative integer ``obj[key]``; ``default``, if given, when absent."""
    value = _need(obj, key, where) if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{where}.{key}: need a non-negative integer, got {value!r}")
    return value


def form_to_json(f: BinForm) -> dict:
    # Coefficient order is descending in x: a0 x^d, a1 x^(d-1) y, ...
    return {
        "degree": f.degree,
        "field": field_to_json(f.field),
        "coeffs": [f.field.format(c) for c in f.coeffs],
    }


def form_from_json(obj: dict, where: str = "form") -> BinForm:
    degree = _count(obj, "degree", where)
    field = field_from_json(_need(obj, "field", where), f"{where}.field")
    raw = _need(obj, "coeffs", where)
    if not isinstance(raw, list) or len(raw) != degree + 1:
        raise SchemaError(f"{where}.coeffs: need {degree + 1} entries")
    try:
        coeffs = [field.parse(str(c)) for c in raw]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}.coeffs: {exc}") from exc
    return BinForm(field, degree, coeffs)


def family_to_json(fam) -> dict:
    if isinstance(fam, QuarticFamily):
        kind, forms, profile = "quartic", fam.p, fam.profile
    elif isinstance(fam, CubicFamily):
        kind, forms, profile = "cubic", fam.q, fam.profile
    else:
        raise SchemaError("not a family")
    return {
        "kind": kind,
        "profile": profile,
        "coeff_forms": [form_to_json(f) for f in forms],
    }


def family_from_json(obj: dict, where: str = "family"):
    kind = _need(obj, "kind", where)
    profile = obj.get("profile", "free")
    forms = [
        form_from_json(f, f"{where}.coeff_forms[{i}]")
        for i, f in enumerate(_need(obj, "coeff_forms", where))
    ]
    if kind == "quartic":
        if len(forms) != 5:
            raise SchemaError(f"{where}: a quartic family needs 5 forms")
        return QuarticFamily(*forms, profile=profile)
    if kind == "cubic":
        if len(forms) != 4:
            raise SchemaError(f"{where}: a cubic family needs 4 forms")
        return CubicFamily(*forms, profile=profile)
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def model_to_json(w: WModel) -> dict:
    return {"a": form_to_json(w.a), "b": form_to_json(w.b)}


def model_from_json(obj: dict, where: str = "model") -> WModel:
    return WModel(
        form_from_json(_need(obj, "a", where), f"{where}.a"),
        form_from_json(_need(obj, "b", where), f"{where}.b"),
    )


def section_to_json(s: Section) -> dict:
    if s.is_zero:
        return {"zero": True}
    return {
        "x_num": form_to_json(s.x_num),
        "x_den_sqrt": form_to_json(s.x_den_sqrt),
        "y_num": form_to_json(s.y_num),
    }


def section_from_json(obj: dict, where: str = "section", model=None) -> Section:
    """Decode a section; with ``model``, also check that it lies on it."""
    if _object(obj, where).get("zero"):
        return Section.zero()
    return Section(
        form_from_json(_need(obj, "x_num", where), f"{where}.x_num"),
        form_from_json(_need(obj, "x_den_sqrt", where), f"{where}.x_den_sqrt"),
        form_from_json(_need(obj, "y_num", where), f"{where}.y_num"),
        model=model,
    )


def bpoint_to_json(bp: BPoint) -> dict:
    return {
        "f": form_to_json(bp.f),
        "g": form_to_json(bp.g),
        "normalization": bp.normalization,
    }


def bpoint_from_json(obj: dict, where: str = "point") -> BPoint:
    return BPoint(
        form_from_json(_need(obj, "f", where), f"{where}.f"),
        form_from_json(_need(obj, "g", where), f"{where}.g"),
        _need(obj, "normalization", where),
    )


def divclass_to_json(d: DivClass) -> dict:
    return {"h": d.h, "e": list(d.e)}


def divclass_from_json(obj: dict, where: str = "class") -> DivClass:
    e = _need(obj, "e", where)
    if not isinstance(e, list) or len(e) != 9:
        raise SchemaError(f"{where}.e: need 9 integers")
    return DivClass(int(_need(obj, "h", where)), [int(c) for c in e])


def constraint_from_json(obj: dict, where: str = "constraint") -> Constraint:
    if "genus" in _object(obj, where):
        return Constraint("genus", int(obj["genus"]))
    return Constraint(
        "dot",
        int(_need(obj, "equals", where)),
        divclass_from_json(_need(obj, "dot_with", where), f"{where}.dot_with"),
    )


def tuple_to_json(t: HurwitzTuple) -> dict:
    return {
        "degree": t.degree,
        "perms": [p.to_one_indexed() for p in t.perms],
    }


def tuple_from_json(obj: dict, where: str = "tuple") -> HurwitzTuple:
    degree = int(_need(obj, "degree", where))
    perms = []
    for i, images in enumerate(_need(obj, "perms", where)):
        try:
            perms.append(Perm.from_one_indexed([int(x) for x in images]))
        except ValueError as exc:
            raise SchemaError(f"{where}.perms[{i}]: {exc}") from exc
    return HurwitzTuple(degree, perms)


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def inputs_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical_dumps(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def make_report(command: str, payload, digest_parts, status="ok", error=None) -> dict:
    report = {
        "schema_version": "1",
        "command": command,
        "inputs_digest": inputs_digest(*digest_parts),
        "payload": payload,
        "status": status,
    }
    if error is not None:
        report["error"] = error
    return report


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
