"""Batch command-line front end: JSON in, JSON reports out.

Every request takes one path.  ``main`` parses argv and runs the command's
``cmd_*`` handler, which only decodes its inputs and computes: it yields one
outcome per report, (payload, digest parts, failure), where failure is None
or the message of a failed check.  selftest yields seven outcomes, every
other command one.  ``main`` alone wraps each outcome with
``jsonio.make_report``, writes it to stdout or --out and sets the exit code:
0 ok, 1 a failed check, 2 an input error (``INPUT_ERRORS``), among them a
malformed command line, an input file that cannot be read or decoded and an
--out that cannot be written, and 3 an internal error: any other exception,
which is a bug in the program, reported with its type and message (the
traceback goes to stderr).

``parse_command_line`` hands a known command's arguments straight to that
command's subparser, which is what ``PARSER`` would do after reading the
command name, and reports leftover arguments under ``PARSER``'s prog, as
``PARSER`` does; an unknown or missing command goes through ``PARSER``
itself.  Every malformed command line so gives the same report either way,
at about half the parsing cost.

Reports are pure functions of (argv, input documents): no clocks, no
environment, stable key order.  The optional --jobs flag shards the
exhaustive scan (``locusz.decompose_fq``, which selftest runs too) by
candidate range; the orbits are grouped from the merged hits, so the output
is independent of the job count.  Each shard repeats the scan's whole prefix
pass (over the prefixes whose C0 = F0 - f0^3 is a nonzero square, with the
C0 = 0 slice solved apart), so jobs buy little; --jobs takes 1..MAX_JOBS.

Importing this module loads every command's module but neither numpy nor
the process pool.  numpy is imported only by z-search and selftest, through
the scan kernel ``_kernels``, which ``locusz.decompose_fq`` imports on first
use; the process pool only by z-search --jobs > 1.  The other commands,
fibration-info and fibration-halving over Q and F_p among them, load
neither.
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
EXIT_INTERNAL = 3

# Upper bound of --jobs, the number of worker processes z-search starts.  A
# fixed constant, not the host's CPU count, so that whether a command line is
# accepted does not depend on the machine.
MAX_JOBS = 8

# Upper bound of --trials in selftest and recillas-selftest.  Each trial is a
# few milliseconds of round trips, so the cap keeps a run under a minute.  The
# lower bound is 1: a run without round trips can pass neither suite.
MAX_TRIALS = 10_000


def _check_trials(trials) -> None:
    if trials is not None and not 1 <= trials <= MAX_TRIALS:
        raise SchemaError(f"--trials: need 1..{MAX_TRIALS}, got {trials}")


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
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or an over-long integer
        raise SchemaError(f"{where}: cannot decode {path}: {exc}") from exc


def _emit(report: dict, out_path: str | None) -> None:
    text = jsonio.dump_report(report)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"--out: cannot write {out_path}: {exc}") from exc


def cmd_selftest(args):
    _check_trials(args.trials)
    results = selftest.run_all(trials=args.trials, seed=args.seed)
    for res in results:
        payload = {
            "criterion": res["criterion"],
            "passed": res["passed"],
            "details": res["details"],
        }
        parts = [res["criterion"], args.trials, args.seed]
        yield payload, parts, None if res["passed"] else f"criterion {res['criterion']} failed"
    failed = [res["criterion"] for res in results if not res["passed"]]
    if failed:
        sys.stderr.write(f"selftest: first failing suite: {failed[0]}\n")


def cmd_e8_report(args):
    payload = e8.census_report()
    yield payload, [payload], None


def cmd_picard_solve(args):
    doc = jsonio._object(_load_json(args.infile, "picard-solve --in"), "input")
    gens = [
        jsonio.divclass_from_json(g, f"generators[{i}]")
        for i, g in enumerate(jsonio._list(doc.get("generators", []), "generators"))
    ]
    if not 1 <= len(gens) <= 3:
        raise SchemaError(f"generators: need 1..3 classes, got {len(gens)}")
    cons = [
        jsonio.constraint_from_json(c, f"constraints[{i}]")
        for i, c in enumerate(jsonio._list(doc.get("constraints", []), "constraints"))
    ]
    box = jsonio._count(doc, "box", "input", default=20)
    failure = None
    try:
        sols = picard.solve_class(gens, cons, box=box)
    except picard.EnumerationTooLarge as exc:
        raise SchemaError(f"input.box: {exc}") from exc
    except picard.LatticeError as exc:
        sols, failure = [], str(exc)
    yield {"solutions": [list(s) for s in sols], "box": box}, [doc], failure


def cmd_picard_report(args):
    solves = picard.solve_halving_classes()
    recon = picard.standard_zero_base_class()
    sections = picard.enumerate_minimal_sections()
    payload = {
        "minimal_sections": len(sections),
        "h_census": {str(k): v for k, v in sorted(picard.section_h_census().items())},
        "halving_class_solutions": {k: list(v) for k, v in solves.items()},
        "intersections": picard.intersection_examples(),
        "isometry_verified": picard.verify_isometry(),
        "mod2_section_classes": picard.mod2_section_classes(),
        "pairings_against_first_section": list(picard.pairings_against_first_section()),
        "reconstructed_zero_base_class": jsonio.divclass_to_json(recon),
    }
    yield payload, [payload], None


def cmd_fibration_info(args):
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
    yield report, [doc], None


def cmd_fibration_halving(args):
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
        "section_height": fibration.height_pairing(w, s) if w.nodal else None,
    }
    yield payload, [doc], None


def cmd_recillas_forward(args):
    doc = _load_json(args.infile, "recillas-forward --in")
    t = jsonio.tuple_from_json(doc)
    triple, sextic, (g_triple, g_sextic) = recillas.forward(t, genera=True)
    payload = {
        "triple": jsonio.tuple_to_json(triple),
        "sextic": jsonio.tuple_to_json(sextic),
        "genera": {
            "quadruple": recillas.rh_genus(t),
            "triple": g_triple,
            "sextic": g_sextic,
        },
    }
    yield payload, [doc], None


def cmd_recillas_reverse(args):
    triple_doc = _load_json(args.triple, "recillas-reverse --triple")
    lift_doc = _load_json(args.lift, "recillas-reverse --lift")
    triple = jsonio.tuple_from_json(triple_doc, "triple")
    lift = jsonio.tuple_from_json(lift_doc, "lift")
    quad = recillas.reverse(triple, lift)
    payload = {
        "quadruple": jsonio.tuple_to_json(quad),
        "genus": recillas.rh_genus(quad),
    }
    yield payload, [triple_doc, lift_doc], None


def cmd_recillas_selftest(args):
    import random

    _check_trials(args.trials)
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
    if frob != brute:
        failure = "frobenius mismatch"
    elif not good:
        failure = f"no round trip among {args.trials} trials"
    else:
        failure = None
    payload = {
        "roundtrips_verified": good,
        "trials": args.trials,
        "frobenius": frob,
        "brute_force": brute,
    }
    yield payload, [args.trials, args.seed], failure


def cmd_z_verify(args):
    doc = _load_json(args.infile, "z-verify --cert")
    form = jsonio.form_from_json(jsonio._need(doc, "F", "cert"), "cert.F")
    point = jsonio.bpoint_from_json(jsonio._need(doc, "point", "cert"), "cert.point")
    cert = locusz.ZCertificate(form, point)
    yield locusz.verify_certificate(cert), [doc], None


def cmd_z_plant(args):
    f = jsonio.form_from_json(_load_json(args.f, "z-plant --f"), "f")
    g = jsonio.form_from_json(_load_json(args.g, "z-plant --g"), "g")
    cert = locusz.plant(f, g)
    payload = {
        "F": jsonio.form_to_json(cert.form),
        "point": jsonio.bpoint_to_json(cert.point),
        "verification": locusz.verify_certificate(cert),
    }
    yield payload, [jsonio.form_to_json(f), jsonio.form_to_json(g)], None


def cmd_z_search(args):
    if not 1 <= args.jobs <= MAX_JOBS:
        raise SchemaError(f"--jobs: need 1..{MAX_JOBS}, got {args.jobs}")
    doc = _load_json(args.infile, "z-search --F")
    form = jsonio.form_from_json(doc, "F")
    if args.q is not None and args.q != getattr(form.field, "p", None):
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
    yield payload, [doc, args.q or 0], None


def cmd_z_constants(args):
    payload = locusz.constants_registry()
    yield payload, [payload], None


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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error (exit 2 with a
    report) instead of exiting; subparsers inherit the class.  -h still
    prints help and exits 0."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubesquare",
        description="Exact computations around degree-12 forms that split as a cube plus a square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its subparser

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--trials", type=int, default=None, help=f"1..{MAX_TRIALS}")
    p.add_argument("--seed", type=int, default=1)

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
    p.add_argument("--trials", type=int, default=100, help=f"1..{MAX_TRIALS}")
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


# Built once per process: building costs about fifty times what parsing does.
PARSER = build_parser()


def parse_command_line(argv):
    """What ``PARSER.parse_args(argv)`` returns or raises, parsing a known
    command's arguments with its subparser directly.  ``PARSER`` hands the
    subparser everything after the command and reports what it leaves over
    under its own prog; so does this.  An unknown or missing command goes
    through ``PARSER``."""
    sub = PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        return PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command line; the one place that writes reports and exit codes."""
    argv = sys.argv[1:] if argv is None else argv
    command, out, code = None, None, EXIT_OK
    try:
        args = parse_command_line(argv)
        command, out = args.command, getattr(args, "out", None)
        for payload, parts, failure in DISPATCH[command](args):
            status, error = "ok", None
            if failure is not None:
                code, status, error = EXIT_FAIL, "error", {"code": EXIT_FAIL, "message": failure}
            _emit(jsonio.make_report(command, payload, parts, status, error), out)
    except INPUT_ERRORS as exc:
        code, message = EXIT_INPUT, str(exc)
    except Exception as exc:  # a bug: neither bad input nor a failed check
        import traceback

        traceback.print_exc()
        code, message = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    else:
        return code
    if command is None and argv and argv[0] in DISPATCH:  # the command line did not parse
        command = argv[0]
    error = {"code": code, "message": message}
    report = jsonio.make_report(command, None, [message], "error", error)
    try:
        _emit(report, out)
    except SchemaError:  # --out cannot be written: the report goes to stdout
        _emit(report, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
