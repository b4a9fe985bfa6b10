"""Every function and module constant of the package is used, or kept by name.

One profiled run feeds the rules on functions.  It runs one small valid
command line per subcommand (``test_cli._small_argvs``) and the inputs of
``branch_argvs`` under ``sys.setprofile``, and records per command line every
function that starts and what it writes to stdout.  ``defined_functions``
lists every function and non-dunder method defined in ``src/cubesquare`` by
compiling the package's sources, so a function that nothing imports is listed
too.

* Each function must have run for some command line or be named in ``KEPT``
  with the reason it stays; a ``KEPT`` entry that runs fails as well, so the
  list cannot go stale.
* Each subcommand must start every operation that ``REACHES`` names for it,
  and every report it writes must read ``ok``.

A static rule covers module constants: every non-dunder name a module assigns
at its top level must be read by the package's code, or be named in ``KEPT``.
"""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import cubesquare
from cubesquare import cli, fibration, jsonio
from cubesquare.binform import BinForm
from cubesquare.fields import PrimeField
from cubesquare.poly import UniPoly
from test_cli import PINNED_HALVING_INPUTS, _reports, _small_argvs, _write

PACKAGE = Path(cubesquare.__file__).parent

KINDS = ("reference", "benchmark-named", "test oracle", "input builder", "runs at import")

# Functions that no command reaches, and module constants that nothing in
# the package reads, that stay, each with its kind and reason.  Everything
# else that no command reaches or nothing reads is deleted.
KEPT = {
    "_kernels._scan_python_reference": "reference: of decompose_scan, which z-search runs",
    "_kernels._square_root_desc": "reference: the square-root step of _scan_python_reference",
    "_kernels.backend_name": "benchmark-named: perfbench/worker.py records the backend",
    "picard._solve_class_scan": "reference: of solve_class, which picard-solve runs",
    "picard.lattice_height": "benchmark-named: perfbench/tracing.py wraps it by name",
    "picard.negation_involution": "test oracle: checks that section_isometry maps -S to -root",
    "picard.Constraint.satisfied": "test oracle: checks picard-solve's solutions",
    "recillas.HurwitzTuple.conjugate": "test oracle: checks what roundtrip_check returns",
    "recillas.Perm.cycle_type": "test oracle: checks the images of s4_to_s6",
    "families.BPoint.is_valid": "test oracle: checks the nodal verdict of fibration-info",
    "families.u_invariants_quartic": "reference: the Fraction route to delta12_quartic's integer covariants",
    "families.u_invariants_cubic": "reference: the Fraction route to delta12_cubic's integer covariants",
    "picard.reflect": "input builder: Weyl-moved octuples for the reconstruct_e0 tests",
    "picard.DivClass.scale": "input builder: multiples of classes for the picard tests",
    "binform.BinForm.monomial": "input builder: monomial forms for the tests",
    "poly.UniPoly.zero": "input builder: the zero polynomial for the tests",
    "fields.PrimeField.neg": "input builder: F_p roots and signs for the poly tests",
    "jsonio.model_to_json": "input builder: model documents for the CLI tests",
    "jsonio.section_to_json": "input builder: section documents for the CLI tests",
    "cli.build_parser": "runs at import: builds cli.PARSER once per process",
    "selftest._suite": "runs at import: decorates each acceptance suite",
}

# The operations each subcommand must start, as "module.function" or
# "module.Class.method".
REACHES = {
    "selftest": [
        "e8.census_report",
        "picard.solve_halving_classes",
        "picard.enumerate_minimal_sections",
        "picard.verify_isometry",
        "picard.intersection_examples",
        "picard.section_h_census",
        "picard.dot",
        "picard.adjunction_genus",
        "poly.resultant",
        "poly.discriminant",
        "binform.is_squarefree",
        "binform.roots_fp",
        "families.delta12_quartic",
        "families.delta12_cubic",
        "families.reconcile_with_standard",
        "families.weierstrass_discriminant",
        "fibration.is_nodal_twelve",
        "fibration.two_torsion_trigonal",
        "fibration.make_with_section",
        "fibration.verify_section",
        "fibration.halving_quartic",
        "fibration.halving_set_bruteforce",
        "fibration.FiberCurve.add",
        "recillas.random_tuple",
        "recillas.forward",
        "recillas.reverse",
        "recillas.frobenius_count",
        "locusz.plant",
        "locusz.verify_certificate",
        "locusz.decompose_fq",
        "locusz.constants_registry",
    ],
    "e8-report": [
        "e8.census_report",
        "e8.enumerate_roots",
        "e8.enumerate_norm4",
        "e8.weyl_order",
        "e8.mod2_census",
        "e8.theta_char_counts",
    ],
    "picard-solve": ["picard.solve_class"],
    "picard-report": [
        "picard.solve_halving_classes",
        "picard.enumerate_minimal_sections",
        "picard.section_h_census",
        "picard.intersection_examples",
        "picard.verify_isometry",
        "picard.mod2_section_classes",
        "picard.pairings_against_first_section",
        "picard.standard_zero_base_class",
        "picard.dot",
        "picard.adjunction_genus",
    ],
    "fibration-info": [
        "fibration.fibration_report",
        "fibration.WModel.discriminant_locus",
        "families.weierstrass_discriminant",
        "fibration.is_nodal_twelve",
        "binform.is_squarefree",
        "binform.roots_fp",
        "poly.distinct_root_count_fp",
        "poly._root_part",
        "families.to_b_point",
    ],
    "fibration-halving": [
        "fibration.verify_section",
        "fibration.halving_quartic",
        "fibration.height_pairing",
        "families.delta12_quartic",
        "families.weierstrass_discriminant",
        "binform.BinForm.divexact",
        "binform.perfect_square_root",
    ],
    "recillas-forward": [
        "recillas.forward",
        "recillas.s4_to_s3",
        "recillas.s4_to_s6",
        "recillas.rh_genus",
    ],
    "recillas-reverse": ["recillas.reverse", "recillas.rh_genus"],
    "recillas-selftest": [
        "recillas.random_tuple",
        "recillas.forward",
        "recillas.roundtrip_check",
        "recillas.frobenius_count",
        "recillas.brute_force_tuple_count",
    ],
    "z-verify": ["locusz.verify_certificate"],
    "z-plant": ["locusz.plant", "locusz.verify_certificate"],
    "z-search": ["locusz.decompose_fq", "_kernels.decompose_scan", "binform.is_squarefree"],
    "z-constants": ["locusz.constants_registry"],
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_functions():
    """{(file, first line): "module.qualname"} for every function and
    non-dunder method of the package; nested functions belong to the
    function that defines them and are not listed apart."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cubesquare.{path.stem}")
        stack = [compile(path.read_text(encoding="utf-8"), module.__file__, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not inspect.iscode(const):
                    continue
                stack.append(const)
                name = const.co_name
                if (
                    not const.co_flags & inspect.CO_OPTIMIZED  # a class body
                    or name.startswith("<")  # lambdas and comprehensions
                    or "<locals>" in const.co_qualname
                    or _dunder(name)
                ):
                    continue
                out[const.co_filename, const.co_firstlineno] = f"{path.stem}.{const.co_qualname}"
    return out


def module_constants():
    """{"module.NAME": read} for every non-dunder name that a module of the
    package assigns at its top level.  ``read`` says whether the package's
    code loads it outside its own assignment: as a bare name in its module or
    in a module that imports it by name, or as an attribute of that name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    importers = {}  # (module, name) -> the modules that import the name from it
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    importers.setdefault((node.module, alias.name), set()).add(stem)
    out = {}
    for stem, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own = {id(node) for node in ast.walk(stmt)}
            for name in {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                if _dunder(name):
                    continue
                bare = {stem} | importers.get((stem, name), set())
                out[f"{stem}.{name}"] = any(
                    id(node) not in own
                    and isinstance(getattr(node, "ctx", None), ast.Load)
                    and (
                        (isinstance(node, ast.Name) and node.id == name and reader in bare)
                        or (isinstance(node, ast.Attribute) and node.attr == name)
                    )
                    for reader, reader_tree in trees.items()
                    for node in ast.walk(reader_tree)
                )
    return out


def branch_argvs(tmp_path):
    """Inputs for what the small command lines reach only on another branch."""
    F = PrimeField(1009)
    w, s = fibration.make_with_section(
        UniPoly.zero(F), UniPoly(F, [5, 0, 1, 1]), BinForm(F, 4, [1, 0, 2, 0, 3])
    )
    on_x0 = {"model": jsonio.model_to_json(w), "section": jsonio.section_to_json(s)}
    on_o = {"model": on_x0["model"], "section": {"zero": True}}
    q = {"kind": "Q"}
    cusp = {  # a = 0, b = x^2 y^4: delta = 27 x^4 y^8
        "a": {"degree": 4, "field": q, "coeffs": [0] * 5},
        "b": {"degree": 6, "field": q, "coeffs": [0, 0, 0, 0, 1, 0, 0]},
    }
    return [
        # Over Q: parsing, formatting, square roots and differences of Fractions.
        ["fibration-halving", "--in", _write(tmp_path, "q.json", PINNED_HALVING_INPUTS["Q"])],
        # x = 0: the section's gcd(x_num, x_den_sqrt) meets the zero form.
        ["fibration-halving", "--in", _write(tmp_path, "x0.json", on_x0)],
        # The zero section, which cannot be halved (exit 2).
        ["fibration-halving", "--in", _write(tmp_path, "o.json", on_o)],
        # A malformed command line (exit 2).
        ["z-search", "--F", "F.json", "--jobs", "x"],
        # A non-squarefree delta over Q: the exact gcd decides after the
        # certificate mod a prime does not.
        ["fibration-info", "--in", _write(tmp_path, "cusp.json", cusp)],
    ]


def _clear_caches():
    """Empty every lru_cache of the package, so that cached functions run."""
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"cubesquare.{path.stem}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Run(NamedTuple):
    started: set  # {(file, first line)} of every function that started
    code: int
    out: str


def reached_functions(argvs):
    """One ``Run`` per command line, in order.  The caches are emptied before
    each line, since a warm cache hit never starts the function behind it."""
    runs = []
    for argv in argvs:
        started = set()

        def hook(frame, event, arg):
            if event == "call":
                started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        _clear_caches()
        out = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            sys.setprofile(None)
        runs.append(Run(started, code, out.getvalue()))
    return runs


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """({subcommand: Run} of the small command lines, [Run] of the branches)."""
    tmp_path = tmp_path_factory.mktemp("reach")
    small = _small_argvs(tmp_path)
    branches = reached_functions(branch_argvs(tmp_path))
    return dict(zip(small, reached_functions(small.values()))), branches


def test_every_function_is_reached_or_kept(profiled):
    small, branches = profiled
    defined = defined_functions()
    assert all(reason.split(":")[0] in KINDS for reason in KEPT.values())
    names = set(defined.values()) | set(module_constants())
    assert set(KEPT) <= names, f"KEPT names nothing defined: {sorted(set(KEPT) - names)}"
    assert [run.code for run in branches] == [0, 0, 2, 2, 0]
    assert _reports(branches[-1].out)[0]["payload"]["in_A"] is False

    started = set().union(*(run.started for run in [*small.values(), *branches]))
    unreached = sorted({n for key, n in defined.items() if key not in started} - set(KEPT))
    assert not unreached, f"no command reaches {unreached}: delete them or keep them in KEPT"
    stale = sorted({n for key, n in defined.items() if key in started} & set(KEPT))
    assert not stale, f"KEPT functions that a command reaches: {stale}"


def test_every_subcommand_reaches_its_operations(profiled):
    small, _ = profiled
    assert set(small) == set(cli.DISPATCH) == set(REACHES)
    defined = defined_functions()
    named = {op for ops in REACHES.values() for op in ops}
    assert named <= set(defined.values()), f"no such function: {sorted(named - set(defined.values()))}"
    for command, run in small.items():
        assert run.code == 0, command
        assert all(r["status"] == "ok" for r in _reports(run.out)), command
        reached = {defined[key] for key in run.started if key in defined}
        missed = [op for op in REACHES[command] if op not in reached]
        assert not missed, f"{command} did not reach {missed}"
    # Every computing module of the package is reached by some command.
    assert {op.split(".")[0] for op in named} == {
        "_kernels", "binform", "e8", "families", "fibration", "locusz", "picard", "poly", "recillas",
    }


def test_small_selftest_passes_every_suite(profiled):
    # --trials 5 scales the sampled suites down; the full-size suites run in
    # test_acceptance.py.
    run = profiled[0]["selftest"]
    assert run.code == 0
    reports = _reports(run.out)
    assert len(reports) == 7
    assert all(r["payload"]["passed"] for r in reports)
    names = [r["payload"]["criterion"] for r in reports]
    assert names[0] == "e8-census" and names[-1] == "constants-registry"


def test_every_module_constant_is_read_or_kept():
    constants = module_constants()
    unread = sorted(name for name, read in constants.items() if not read and name not in KEPT)
    assert not unread, f"nothing in the package reads {unread}: delete them or keep them in KEPT"
    stale = sorted(name for name, read in constants.items() if read and name in KEPT)
    assert not stale, f"KEPT constants that the package reads: {stale}"
