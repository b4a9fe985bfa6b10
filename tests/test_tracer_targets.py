"""The benchmark's tracer wraps program functions by name; each must exist.

``perfbench/tracing.py`` is loaded from its file and only read: every
``SPANS`` and ``COUNTERS`` target is resolved on the package by the tracer's
own ``getattr`` walk, so a renamed or deleted traced function fails here
rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import cubesquare
import cubesquare.cli  # noqa: F401  (imports every module the tracer names)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
