"""Batch command-line front end: JSON in, JSON reports out.

Exit codes: 0 ok, 1 selftest/assertion failure, 2 malformed input.  Reports
are pure functions of (argv, input documents): no clocks, no environment,
stable key order.  The optional --jobs flag shards the exhaustive scan
(``locusz.decompose_fq``, which selftest runs too) by candidate range; the
orbits are grouped from the merged hits, so the output is independent of the
job count.  Each shard repeats the scan's q^d prefix pass, so jobs buy
little; --jobs takes 1..MAX_JOBS.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import binform, e8, families, fibration, jsonio, locusz, picard, recillas, selftest
from . import poly as upoly
from .fibration import FibrationError
from .fields import FieldError, PrimeField
from .jsonio import SchemaError
from .picard import LatticeError
from .poly import PolyError
from .recillas import MonodromyError

INPUT_ERRORS = (
    SchemaError,
    PolyError,
    FibrationError,
    FieldError,
    LatticeError,
    MonodromyError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# Upper bound of --jobs, the number of worker processes z-search starts.  A
# fixed constant, not the host's CPU count, so that whether a command line is
# accepted does not depend on the machine.
MAX_JOBS = 8


def _load_json(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{where}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(report: dict, out_path: str | None) -> None:
    text = jsonio.dump_report(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_selftest(args) -> int:
    results = selftest.run_all(
        trials=args.trials, seed=args.seed, fault=args.inject_fault
    )
    all_ok = True
    first_failure = None
    for res in results:
        payload = {
            "criterion": res["criterion"],
            "passed": res["passed"],
            "details": res["details"],
        }
        report = jsonio.make_report(
            "selftest",
            payload,
            [res["criterion"], args.trials, args.seed, args.inject_fault],
            status="ok" if res["passed"] else "error",
            error=None
            if res["passed"]
            else {"code": 1, "message": f"criterion {res['criterion']} failed"},
        )
        _emit(report, None)
        if not res["passed"] and first_failure is None:
            first_failure = res["criterion"]
            all_ok = False
    if not all_ok:
        sys.stderr.write(f"selftest: first failing suite: {first_failure}\n")
        return EXIT_FAIL
    return EXIT_OK


def cmd_e8_report(args) -> int:
    payload = e8.census_report()
    _emit(jsonio.make_report("e8-report", payload, [payload]), args.out)
    return EXIT_OK


def cmd_picard_solve(args) -> int:
    doc = jsonio._object(_load_json(args.infile, "picard-solve --in"), "input")
    gens = [
        jsonio.divclass_from_json(g, f"generators[{i}]")
        for i, g in enumerate(doc.get("generators", []))
    ]
    cons = [
        jsonio.constraint_from_json(c, f"constraints[{i}]")
        for i, c in enumerate(doc.get("constraints", []))
    ]
    box = jsonio._count(doc, "box", "input", default=20)
    try:
        sols = picard.solve_class(gens, cons, box=box)
        payload = {"solutions": [list(s) for s in sols], "box": box}
        status, error = "ok", None
    except picard.LatticeError as exc:
        payload = {"solutions": [], "box": box}
        status, error = "error", {"code": 1, "message": str(exc)}
    report = jsonio.make_report("picard-solve", payload, [doc], status, error)
    _emit(report, args.out)
    return EXIT_OK if status == "ok" else EXIT_FAIL


def cmd_picard_report(args) -> int:
    solves = picard.solve_halving_classes()
    recon = picard.reconstruct_e0([picard.E(i) for i in range(1, 9)])
    sections = picard.enumerate_minimal_sections()
    heights = sorted(
        {picard.lattice_height(s, sections[0]) for s in sections}
    )
    payload = {
        "minimal_sections": len(sections),
        "h_census": {str(k): v for k, v in sorted(picard.section_h_census().items())},
        "halving_class_solutions": {k: list(v) for k, v in solves.items()},
        "intersections": picard.intersection_examples(),
        "isometry_verified": picard.verify_isometry(),
        "mod2_section_classes": picard.mod2_section_classes(),
        "pairings_against_first_section": heights,
        "reconstructed_zero_base_class": jsonio.divclass_to_json(recon),
    }
    _emit(jsonio.make_report("picard-report", payload, [payload]), args.out)
    return EXIT_OK


def cmd_fibration_info(args) -> int:
    doc = _load_json(args.infile, "fibration-info --in")
    w = jsonio.model_from_json(doc)
    report = fibration.fibration_report(w)
    report["delta"] = jsonio.form_to_json(w.delta)
    point = families.to_b_point(w.a, w.b)
    report["decomposition_point"] = {
        "weierstrass": jsonio.bpoint_to_json(point),
        "monic": jsonio.bpoint_to_json(point.convert("monic")),
        # The Weierstrass point's degree-12 form is 4 a^3 + 27 b^2 = delta.
        "valid": w.nodal,
    }
    if isinstance(w.field, PrimeField):
        report["distinct_nodal_roots_fp"] = upoly.distinct_root_count_fp(
            w.delta.dehomogenize()
        ) + (1 if w.delta.y_multiplicity() > 0 else 0)
    _emit(jsonio.make_report("fibration-info", report, [doc]), args.out)
    return EXIT_OK


def cmd_fibration_halving(args) -> int:
    doc = _load_json(args.infile, "fibration-halving --in")
    w = jsonio.model_from_json(jsonio._need(doc, "model", "input"))
    s = jsonio.section_from_json(jsonio._need(doc, "section", "input"), model=w)
    fam = fibration.halving_quartic(w, s)
    delta24 = families.delta12_quartic(fam)
    try:
        quotient = delta24.divexact(w.delta)
        extraneous = jsonio.form_to_json(quotient)
        divisible = True
        root = binform.perfect_square_root(quotient)
        extraneous_root = None if root is None else jsonio.form_to_json(root)
    except PolyError:
        extraneous = None
        extraneous_root = None
        divisible = False
    payload = {
        "halving_family": jsonio.family_to_json(fam),
        "family_discriminant_form": jsonio.form_to_json(delta24),
        "divisible_by_model_discriminant": divisible,
        "extraneous_factor": extraneous,
        "extraneous_factor_square_root": extraneous_root,
        "section_height": fibration.height_pairing(w, s, s) if w.nodal else None,
    }
    _emit(jsonio.make_report("fibration-halving", payload, [doc]), args.out)
    return EXIT_OK


def cmd_recillas_forward(args) -> int:
    doc = _load_json(args.infile, "recillas-forward --in")
    t = jsonio.tuple_from_json(doc)
    triple, sextic = recillas.forward(t)
    payload = {
        "triple": jsonio.tuple_to_json(triple),
        "sextic": jsonio.tuple_to_json(sextic),
        "genera": {
            "quadruple": recillas.rh_genus(t),
            "triple": recillas.rh_genus(triple),
            "sextic": recillas.rh_genus(sextic),
        },
    }
    _emit(jsonio.make_report("recillas-forward", payload, [doc]), args.out)
    return EXIT_OK


def cmd_recillas_reverse(args) -> int:
    triple_doc = _load_json(args.triple, "recillas-reverse --triple")
    lift_doc = _load_json(args.lift, "recillas-reverse --lift")
    triple = jsonio.tuple_from_json(triple_doc, "triple")
    lift = jsonio.tuple_from_json(lift_doc, "lift")
    quad = recillas.reverse(triple, lift)
    payload = {
        "quadruple": jsonio.tuple_to_json(quad),
        "genus": recillas.rh_genus(quad),
    }
    _emit(
        jsonio.make_report("recillas-reverse", payload, [triple_doc, lift_doc]),
        args.out,
    )
    return EXIT_OK


def cmd_recillas_selftest(args) -> int:
    import random

    rng = random.Random(args.seed)
    good = 0
    for _ in range(args.trials):
        t = recillas.random_tuple(4, 12, rng=rng)
        try:
            recillas.forward(t)
        except recillas.MonodromyError:
            continue
        recillas.roundtrip_check(t)
        good += 1
    frob = {k: recillas.frobenius_count(4, k) for k in range(0, 5)}
    brute = {k: recillas.brute_force_tuple_count(4, k) for k in range(0, 5)}
    ok = frob == brute and good > 0
    payload = {
        "roundtrips_verified": good,
        "trials": args.trials,
        "frobenius": frob,
        "brute_force": brute,
    }
    report = jsonio.make_report(
        "recillas-selftest",
        payload,
        [args.trials, args.seed],
        status="ok" if ok else "error",
        error=None if ok else {"code": 1, "message": "frobenius mismatch"},
    )
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_z_verify(args) -> int:
    doc = _load_json(args.infile, "z-verify --cert")
    form = jsonio.form_from_json(jsonio._need(doc, "F", "cert"), "cert.F")
    point = jsonio.bpoint_from_json(jsonio._need(doc, "point", "cert"), "cert.point")
    cert = locusz.ZCertificate(form, point)
    payload = locusz.verify_certificate(cert)
    _emit(jsonio.make_report("z-verify", payload, [doc]), args.out)
    return EXIT_OK


def cmd_z_plant(args) -> int:
    f = jsonio.form_from_json(_load_json(args.f, "z-plant --f"), "f")
    g = jsonio.form_from_json(_load_json(args.g, "z-plant --g"), "g")
    cert = locusz.plant(f, g)
    payload = {
        "F": jsonio.form_to_json(cert.form),
        "point": jsonio.bpoint_to_json(cert.point),
        "verification": locusz.verify_certificate(cert),
    }
    _emit(
        jsonio.make_report("z-plant", payload, [jsonio.form_to_json(f), jsonio.form_to_json(g)]),
        args.out,
    )
    return EXIT_OK


def cmd_z_search(args) -> int:
    if not 1 <= args.jobs <= MAX_JOBS:
        raise SchemaError(f"--jobs: need 1..{MAX_JOBS}, got {args.jobs}")
    doc = _load_json(args.infile, "z-search --F")
    form = jsonio.form_from_json(doc, "F")
    if args.q and args.q != getattr(form.field, "p", None):
        raise SchemaError(f"--q {args.q} disagrees with the form's field {form.field!r}")
    orbits = locusz.decompose_fq(form, jobs=args.jobs)
    payload = {
        "q": form.field.p,
        "degree": form.degree,
        "orbit_count": len(orbits),
        "orbits": [
            {
                "size": len(o),
                "members": [[list(fr), list(gr)] for fr, gr in o.members],
            }
            for o in orbits
        ],
    }
    _emit(jsonio.make_report("z-search", payload, [doc, args.q or 0]), args.out)
    return EXIT_OK


def cmd_z_constants(args) -> int:
    payload = locusz.constants_registry()
    _emit(jsonio.make_report("z-constants", payload, [payload]), args.out)
    return EXIT_OK


DISPATCH = {
    "selftest": cmd_selftest,
    "e8-report": cmd_e8_report,
    "picard-solve": cmd_picard_solve,
    "picard-report": cmd_picard_report,
    "fibration-info": cmd_fibration_info,
    "fibration-halving": cmd_fibration_halving,
    "recillas-forward": cmd_recillas_forward,
    "recillas-reverse": cmd_recillas_reverse,
    "recillas-selftest": cmd_recillas_selftest,
    "z-verify": cmd_z_verify,
    "z-plant": cmd_z_plant,
    "z-search": cmd_z_search,
    "z-constants": cmd_z_constants,
}

# Which catalogued operations each subcommand reaches (directly or through
# the suites it runs); the coverage test asserts every operation appears.
OP_COVERAGE = {
    "selftest": [
        "exactalg.resultant",
        "exactalg.discriminant",
        "exactalg.is_squarefree",
        "exactalg.roots_fp",
        "binforms.u_invariants_quartic",
        "binforms.delta12_quartic",
        "binforms.u_invariants_cubic",
        "binforms.delta12_cubic",
        "binforms.reconcile_with_standard",
        "fibration.discriminant_locus",
        "fibration.is_nodal_twelve",
        "fibration.two_torsion_trigonal",
        "fibration.make_with_section",
        "fibration.verify_section",
        "fibration.halving_quartic",
        "fibration.fiber_group_law",
        "fibration.section_group_law",
        "e8.enumerate_roots",
        "e8.enumerate_norm4",
        "e8.weyl_order",
        "e8.mod2_census",
        "e8.theta_char_counts",
        "picard.solve_class",
        "picard.enumerate_minimal_sections",
        "picard.lattice_height",
        "picard.dot",
        "picard.adjunction_genus",
        "recillas.rh_genus",
        "recillas.forward",
        "recillas.reverse",
        "recillas.random_tuple",
        "recillas.frobenius_count",
        "locusz.plant",
        "locusz.verify_certificate",
        "locusz.decompose_fq",
        "locusz.constants_registry",
        "exactalg.perfect_square_root",
    ],
    "e8-report": [
        "e8.enumerate_roots",
        "e8.enumerate_norm4",
        "e8.weyl_order",
        "e8.mod2_census",
        "e8.theta_char_counts",
    ],
    "picard-solve": ["picard.solve_class"],
    "picard-report": [
        "picard.dot",
        "picard.adjunction_genus",
        "picard.enumerate_minimal_sections",
        "picard.lattice_height",
        "picard.reconstruct_e0",
    ],
    "fibration-info": [
        "fibration.discriminant_locus",
        "fibration.is_nodal_twelve",
        "exactalg.is_squarefree",
        "exactalg.roots_fp",
        "exactalg.distinct_root_count_fp",
        "binforms.to_b_point",
    ],
    "fibration-halving": [
        "fibration.halving_quartic",
        "fibration.verify_section",
        "fibration.height_pairing",
        "binforms.delta12_quartic",
    ],
    "recillas-forward": [
        "recillas.s4_to_s3",
        "recillas.s4_to_s6",
        "recillas.forward",
        "recillas.rh_genus",
    ],
    "recillas-reverse": ["recillas.reverse"],
    "recillas-selftest": ["recillas.random_tuple", "recillas.frobenius_count"],
    "z-verify": ["locusz.verify_certificate"],
    "z-plant": ["locusz.plant"],
    "z-search": [
        "locusz.decompose_fq",
        "exactalg.perfect_square_root",
    ],
    "z-constants": ["locusz.constants_registry"],
}

CATALOGUED_OPERATIONS = [
    "exactalg.resultant",
    "exactalg.discriminant",
    "exactalg.is_squarefree",
    "exactalg.perfect_square_root",
    "exactalg.distinct_root_count_fp",
    "exactalg.roots_fp",
    "binforms.u_invariants_quartic",
    "binforms.delta12_quartic",
    "binforms.u_invariants_cubic",
    "binforms.delta12_cubic",
    "binforms.reconcile_with_standard",
    "binforms.to_b_point",
    "fibration.discriminant_locus",
    "fibration.is_nodal_twelve",
    "fibration.two_torsion_trigonal",
    "fibration.verify_section",
    "fibration.make_with_section",
    "fibration.halving_quartic",
    "fibration.fiber_group_law",
    "fibration.section_group_law",
    "fibration.height_pairing",
    "e8.enumerate_roots",
    "e8.enumerate_norm4",
    "e8.weyl_order",
    "e8.mod2_census",
    "e8.theta_char_counts",
    "picard.dot",
    "picard.adjunction_genus",
    "picard.solve_class",
    "picard.enumerate_minimal_sections",
    "picard.lattice_height",
    "picard.reconstruct_e0",
    "recillas.rh_genus",
    "recillas.s4_to_s3",
    "recillas.s4_to_s6",
    "recillas.forward",
    "recillas.reverse",
    "recillas.random_tuple",
    "recillas.frobenius_count",
    "locusz.verify_certificate",
    "locusz.plant",
    "locusz.decompose_fq",
    "locusz.constants_registry",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubesquare",
        description="Exact computations around degree-12 forms that split as a cube plus a square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("e8-report", help="lattice census")
    p.add_argument("--out")

    p = sub.add_parser("picard-solve", help="solve a class system")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("picard-report", help="lattice censuses and solutions")
    p.add_argument("--out")

    p = sub.add_parser("fibration-info", help="analyze a Weierstrass model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("fibration-halving", help="halving quartic of a section")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("recillas-forward", help="quadruple cover to triple + double")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("recillas-reverse", help="triple + double cover to quadruple")
    p.add_argument("--triple", required=True)
    p.add_argument("--lift", required=True)
    p.add_argument("--out")

    p = sub.add_parser("recillas-selftest", help="round-trip property runner")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("z-verify", help="verify a decomposition certificate")
    p.add_argument("--cert", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("z-plant", help="build a certificate from f and g")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--out")

    p = sub.add_parser("z-search", help="exhaustive decomposition scan")
    p.add_argument("--F", dest="infile", required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help=f"worker processes, 1..{MAX_JOBS}")
    p.add_argument("--out")

    p = sub.add_parser("z-constants", help="documented constants registry")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = DISPATCH[args.command]
    try:
        return handler(args)
    except INPUT_ERRORS as exc:
        report = jsonio.make_report(
            args.command,
            None,
            [str(exc)],
            status="error",
            error={"code": EXIT_INPUT, "message": str(exc)},
        )
        _emit(report, getattr(args, "out", None))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
