"""The benchmark's tracer wraps program functions by name; each must exist
and record a call on the workloads that name it.

``perfbench/`` is only read: every ``SPANS`` and ``COUNTERS`` target is
resolved on the package by the tracer's own ``getattr`` walk, and one block
of each workload's requests runs under the tracer, so a renamed, deleted or
bypassed traced function fails here rather than in a traced benchmark run.

Inside this process every module is imported already, so a fresh
interpreter checks what the tracer meets right after ``import
cubesquare.cli``: the scan kernel, which loads on first use
(``cubesquare._LAZY``), must still resolve.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubesquare
import cubesquare.cli  # noqa: F401  (imports every traced module but the lazy ``_kernels``)
from test_cli import PINNED_HALVING_INPUTS, _small_argvs, _write

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_on_the_package():
    tracing = _load_tracing()
    tracer = tracing.Tracer(cubesquare)
    targets = [(s[0], s[1]) for s in tracing.SPANS] + [(c[0], c[1]) for c in tracing.COUNTERS]
    assert targets
    for module, path in targets:
        owner, attr, func = tracer._target(module, path)
        assert callable(func), f"{module}.{path}"


@pytest.mark.parametrize("workload", _load_tracing().ALL)
def test_every_span_records_a_call_on_its_workloads(workload, tmp_path, monkeypatch):
    # A span that records no call reads as an incorrect traced run, so a
    # function the program stops calling must fail here first.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    tracing = _load_tracing()
    manifest = workloads.build_manifest(workload, 1, str(tmp_path))
    specs = workloads.block(manifest, 0)
    tracer = tracing.Tracer(cubesquare)
    tracer.install()
    try:
        for i, spec in enumerate(specs):
            tracer.request = i
            with contextlib.redirect_stdout(io.StringIO()):
                assert cubesquare.cli.main(spec["argv"]) == 0, spec["argv"]
    finally:
        tracer.uninstall()
    commands = [spec["argv"][0] for spec in specs]
    assert tracing.per_layer(tracer, commands, workload, 0.0, 1.0, 1.0)[1] == []


# Run in a fresh interpreter: import the CLI, send each command line, then
# resolve every tracer target the way ``Tracer.install`` does.
FRESH = """
import contextlib, importlib.util, io, json, sys
argvs, tracing_path = json.loads(sys.argv[1]), sys.argv[2]
heavy = ("numpy", "concurrent.futures.process")
import cubesquare, cubesquare.cli
out = {
    "after_import": [m for m in heavy if m in sys.modules],
    "lazy_loaded": [m for m in cubesquare._LAZY if f"cubesquare.{m}" in sys.modules],
    "runs": [],
}
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cubesquare.cli.main(argv)
    out["runs"].append([argv[0], code, "numpy" in sys.modules])
spec = importlib.util.spec_from_file_location("_perfbench_tracing", tracing_path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer(cubesquare)
targets = [s[:2] for s in tracing.SPANS] + [c[:2] for c in tracing.COUNTERS]
out["unresolved"] = [
    f"{m}.{p}" for m, p in targets if not callable(tracer._target(m, p)[2])
]
out["targets"] = len(targets)
out["numpy_after_resolving"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_a_fresh_interpreter_loads_numpy_only_where_it_is_used(tmp_path):
    small = _small_argvs(tmp_path)
    over_q, over_fp = PINNED_HALVING_INPUTS["Q"], PINNED_HALVING_INPUTS["F1009"]
    argvs = [
        ["fibration-info", "--in", _write(tmp_path, "q_model.json", over_q["model"])],
        ["fibration-halving", "--in", _write(tmp_path, "q_halving.json", over_q)],
        ["fibration-info", "--in", _write(tmp_path, "fp_model.json", over_fp["model"])],
        ["fibration-halving", "--in", _write(tmp_path, "fp_halving.json", over_fp)],
        small["e8-report"],
        small["picard-report"],
        small["picard-solve"],
        small["recillas-forward"],
    ]
    src = str(Path(cubesquare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(argvs), str(TRACING)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == [] and out["lazy_loaded"] == []
    assert out["runs"] == [[argv[0], 0, False] for argv in argvs]
    assert out["targets"] and out["unresolved"] == []
    # Resolving the kernel's spans is what loads it.
    assert out["numpy_after_resolving"] is True
