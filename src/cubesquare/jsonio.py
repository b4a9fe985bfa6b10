"""JSON codecs for the wire formats of every module.

All exact integers travel as decimal strings (rationals as "num/den") so
downstream tooling never truncates them at 53 bits.  Encoders emit plain
dicts; ``dump_report`` serializes with sorted keys so identical inputs give
byte-identical output.

``dump_report`` writes exactly the bytes of ``json.dumps(report,
sort_keys=True, indent=2) + "\\n"``, which the tests keep as its reference, by
its own writer: on Python 3.11 the C encoder does not indent, so ``json``
would run its pure-Python ``_iterencode`` for every report.  Keys are sorted
as ``json`` sorts them, on the original key (int keys numerically), and then
written as strings; strings go through ``json``'s own ASCII escaper; a list
of ints, or of strings, is written with one ``join``.  ``inputs_digest`` is
a SHA-256 by CPython's own module, so no command loads OpenSSL.
"""

from __future__ import annotations

import json

try:
    # CPython's own SHA-256.  hashlib's loads OpenSSL, about 3.5 MB resident
    # in every process, to hash the few kB of input of each report.
    from _sha256 import sha256
except ImportError:  # renamed in CPython 3.12
    from hashlib import sha256

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


def _list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list, got {type(obj).__name__}")
    return obj


def _integer(value, where: str, nonnegative: bool = False) -> int:
    """``value`` if it is a JSON integer (a bool is not), and >= 0 if asked."""
    if isinstance(value, bool) or not isinstance(value, int) or (nonnegative and value < 0):
        need = "a non-negative integer" if nonnegative else "an integer"
        raise SchemaError(f"{where}: need {need}, got {value!r}")
    return value


def _count(obj: dict, key: str, where: str, default=None) -> int:
    """The non-negative integer ``obj[key]``; ``default``, if given, when absent."""
    value = _need(obj, key, where) if default is None else obj.get(key, default)
    return _integer(value, f"{where}.{key}", nonnegative=True)


def form_to_json(f: BinForm) -> dict:
    # Coefficient order is descending in x: a0 x^d, a1 x^(d-1) y, ...
    return {
        "degree": f.degree,
        "field": field_to_json(f.field),
        "coeffs": [f.field.format(n, f.den) for n in f.nums],
    }


def form_from_json(obj: dict, where: str = "form") -> BinForm:
    degree = _count(obj, "degree", where)
    field = field_from_json(_need(obj, "field", where), f"{where}.field")
    raw = _need(obj, "coeffs", where)
    if not isinstance(raw, list) or len(raw) != degree + 1:
        raise SchemaError(f"{where}.coeffs: need {degree + 1} entries")
    try:
        ratios = [field.parse(str(c)) for c in raw]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}.coeffs: {exc}") from exc
    return BinForm.from_ratios(field, degree, ratios)


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
    return DivClass(
        _integer(_need(obj, "h", where), f"{where}.h"),
        [_integer(c, f"{where}.e[{i}]") for i, c in enumerate(e)],
    )


def constraint_from_json(obj: dict, where: str = "constraint") -> Constraint:
    if "genus" in _object(obj, where):
        return Constraint("genus", _integer(obj["genus"], f"{where}.genus"))
    return Constraint(
        "dot",
        _integer(_need(obj, "equals", where), f"{where}.equals"),
        divclass_from_json(_need(obj, "dot_with", where), f"{where}.dot_with"),
    )


def tuple_to_json(t: HurwitzTuple) -> dict:
    return {
        "degree": t.degree,
        "perms": [p.to_one_indexed() for p in t.perms],
    }


def tuple_from_json(obj: dict, where: str = "tuple") -> HurwitzTuple:
    degree = _count(obj, "degree", where)
    perms = []
    for i, images in enumerate(_list(_need(obj, "perms", where), f"{where}.perms")):
        at = f"{where}.perms[{i}]"
        images = [_integer(x, f"{at}[{j}]") for j, x in enumerate(_list(images, at))]
        try:
            perms.append(Perm.from_one_indexed(images))
        except ValueError as exc:
            raise SchemaError(f"{at}: {exc}") from exc
    return HurwitzTuple(degree, perms)


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def inputs_digest(*parts) -> str:
    h = sha256()
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


_escape = json.encoder.encode_basestring_ascii
# How json writes a str and an int (a bool is neither here: its type is bool).
_SCALARS = {str: _escape, int: int.__repr__}


def _key(key) -> str:
    """A dict key as ``json`` writes it: strings as they are, the constants
    and numbers in their JSON spelling."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) or key is None or key is True or key is False:
        return json.dumps(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(value, newline: str, out: list) -> None:
    """Append the indented JSON text of ``value`` to ``out``; ``newline`` is
    a newline and the indent of the line ``value`` starts on."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:  # all ints or all strings: one join
            out.append(f"[{inner}{(',' + inner).join(map(scalar, value))}{newline}]")
            return
        out.append("[")
        sep = inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        sep = inner
        for key, item in sorted(value.items()):
            out.append(f"{sep}{_escape(_key(key))}: ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None or value is True or value is False or isinstance(value, float):
        out.append(json.dumps(value))
    elif isinstance(value, str):  # subclasses, written as json writes their base
        out.append(_escape(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write(list(value), newline, out)
    elif isinstance(value, dict):
        _write(dict(value), newline, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_report(report: dict) -> str:
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)
