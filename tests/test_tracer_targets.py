"""The benchmark's tracer wraps program functions by name; each must exist
and record a call on the workloads that name it.

``perfbench/`` is only read: every ``SPANS`` and ``COUNTERS`` target is
resolved on the package by the tracer's own ``getattr`` walk, and one block
of each workload's requests runs under the tracer, so a renamed, deleted or
bypassed traced function fails here rather than in a traced benchmark run.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import cubesquare
import cubesquare.cli  # noqa: F401  (imports every module the tracer names)

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
