"""Every function of the package is reached by a command, or is kept by name.

The test runs one small valid command line per subcommand
(``test_cli._small_argvs``) and the inputs of ``branch_argvs`` under
``sys.setprofile`` and records every function that starts.  It lists every
function and non-dunder method defined in ``src/cubesquare`` by compiling the
package's sources, so a function that nothing imports is listed too.  Each one
must have run or be named in ``KEPT`` with the reason it stays; a ``KEPT``
entry that runs fails as well, so the list cannot go stale.
"""

import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import cubesquare
from cubesquare import cli, fibration, jsonio
from cubesquare.binform import BinForm
from cubesquare.fields import PrimeField
from cubesquare.poly import UniPoly
from test_cli import PINNED_HALVING_INPUTS, _small_argvs, _write

KINDS = ("reference", "benchmark-named", "test oracle", "input builder", "runs at import")

# Functions that no command reaches and that stay, each with its kind and
# reason.  Everything else that no command reaches is deleted.
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


def defined_functions():
    """{(file, first line): "module.qualname"} for every function and
    non-dunder method of the package; nested functions belong to the
    function that defines them and are not listed apart."""
    out = {}
    for path in sorted(Path(cubesquare.__file__).parent.glob("*.py")):
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
                    or (name.startswith("__") and name.endswith("__"))
                ):
                    continue
                out[const.co_filename, const.co_firstlineno] = f"{path.stem}.{const.co_qualname}"
    return out


def branch_argvs(tmp_path):
    """Inputs for what the small command lines reach only on another branch."""
    F = PrimeField(1009)
    w, s = fibration.make_with_section(
        UniPoly.zero(F), UniPoly(F, [5, 0, 1, 1]), BinForm(F, 4, [1, 0, 2, 0, 3])
    )
    on_x0 = {"model": jsonio.model_to_json(w), "section": jsonio.section_to_json(s)}
    on_o = {"model": on_x0["model"], "section": {"zero": True}}
    return [
        # Over Q: parsing, formatting, square roots and differences of Fractions.
        ["fibration-halving", "--in", _write(tmp_path, "q.json", PINNED_HALVING_INPUTS["Q"])],
        # x = 0: the section's gcd(x_num, x_den_sqrt) meets the zero form.
        ["fibration-halving", "--in", _write(tmp_path, "x0.json", on_x0)],
        # The zero section, which cannot be halved (exit 2).
        ["fibration-halving", "--in", _write(tmp_path, "o.json", on_o)],
        # A malformed command line (exit 2).
        ["z-search", "--F", "F.json", "--jobs", "x"],
    ]


def _clear_caches():
    """Empty every lru_cache of the package, so that cached functions run."""
    for path in Path(cubesquare.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"cubesquare.{path.stem}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def reached_functions(argvs):
    """{(file, first line)} of every function that starts while argvs run."""
    started = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    _clear_caches()
    codes = []
    sys.setprofile(hook)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    return started, codes


def test_every_function_is_reached_or_kept(tmp_path):
    assert all(reason.split(":")[0] in KINDS for reason in KEPT.values())
    defined = defined_functions()
    names = set(defined.values())
    assert set(KEPT) <= names, f"KEPT names no such function: {sorted(set(KEPT) - names)}"

    small, branches = list(_small_argvs(tmp_path).values()), branch_argvs(tmp_path)
    started, codes = reached_functions(small + branches)
    assert codes == [0] * (len(small) + len(branches) - 2) + [2, 2]

    unreached = sorted({n for key, n in defined.items() if key not in started} - set(KEPT))
    assert not unreached, f"no command reaches {unreached}: delete them or keep them in KEPT"
    stale = sorted({n for key, n in defined.items() if key in started} & set(KEPT))
    assert not stale, f"KEPT functions that a command reaches: {stale}"
