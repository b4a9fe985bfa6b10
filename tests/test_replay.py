"""The benchmark's seed-1 requests give pinned reports, byte for byte.

Reports are pure functions of argv and the input documents, so a refactor
must leave every report of the workloads' inputs unchanged.  This replays, in
process through ``cli.main``, every warm-up and pool request of the seed-1
``lattice`` manifest and the warm-ups and blocks 0-9 of the other three
workloads, and compares one sha256 per workload over (command, exit code,
stdout) of each request with the digest pinned here.  Reports carry a digest
of the input documents, not their paths, so the work directory does not
matter.  ``perfbench/`` is only read.

The same replay of ``fibration-q`` counts the ``Fraction`` values each
request builds, a work metric counted from the work done: an exact algebra
on integer numerators builds at most one per coefficient it reads or
writes, while rational arithmetic builds one per product.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubesquare import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BLOCKS = 10

# workload -> (requests replayed, sha256 of their reports).
PINNED = {
    "fibration-fp": (52, "9ad76b3ff57dfe36daacd2c769ce32b266e9561cb51519f9d6109be54bfe79ef"),
    "fibration-q": (52, "7ddd205120ad55e4933d3d914eb3db16fb0ff52795b63e3e76857797452515bd"),
    "lattice": (1105, "724b8a191a8b57f8a6f1f7ad13ca6c4372739488fe22b1bba82fed21948aaaa7"),
    "zsearch": (202, "c58ae6e0fd6c641afd34862aee160194bf93e82c80d05f1c8ab8b5e73ce3c5ac"),
}


def _requests(workloads, name, workdir):
    manifest = workloads.build_manifest(name, 1, workdir)
    specs = list(manifest["warmup"])
    if name == "lattice":
        specs += [spec for cls in manifest["classes"] for item in cls["pool"] for spec in item]
    else:
        specs += [spec for k in range(BLOCKS) for spec in workloads.block(manifest, k)]
    return specs


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_1_reports_are_byte_identical(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    specs = _requests(workloads, workload, str(tmp_path))
    digest = hashlib.sha256()
    for spec in specs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(spec["argv"])
        for part in (spec["argv"][0], str(status), out.getvalue()):
            digest.update(part.encode())
            digest.update(b"\x00")
    assert (len(specs), digest.hexdigest()) == PINNED[workload]


def _coefficients(doc):
    """The number of form coefficients in a JSON document: the entries of
    its "coeffs" lists."""
    if isinstance(doc, dict):
        return sum(
            len(v) if k == "coeffs" and isinstance(v, list) else _coefficients(v)
            for k, v in doc.items()
        )
    if isinstance(doc, list):
        return sum(_coefficients(v) for v in doc)
    return 0


def _fraction_constructors():
    """The code objects that build a Fraction: ``__new__``, and from Python
    3.12 on the ``_from_coprime_ints`` that arithmetic results go through."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    return codes


def test_q_fibration_requests_build_a_fraction_per_coefficient_at_most(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    manifest = workloads.build_manifest("fibration-q", 1, str(tmp_path))
    specs = [spec for k in range(BLOCKS) for spec in workloads.block(manifest, k)]
    codes = _fraction_constructors()
    built = 0

    def hook(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in codes:
            built += 1

    over = []
    for spec in specs:
        built = 0
        out = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(spec["argv"])
        finally:
            sys.setprofile(None)
        assert status == 0, spec["argv"]
        with open(spec["argv"][-1], encoding="utf-8") as fh:
            read = _coefficients(json.load(fh))
        written = _coefficients(json.loads(out.getvalue()))
        assert read and written
        if built > read + written:
            over.append((spec["argv"][0], built, read, written))
    assert len(specs) == 50 and over == []
