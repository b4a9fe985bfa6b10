"""Per-layer tracing from outside the program.

``Tracer.install`` replaces module attributes and class methods of the
program with wrappers, so every ``module.function`` call the program makes
passes through them; ``uninstall`` puts the originals back.  A name another
module bound with ``from x import y`` would escape the wrapper, which is what
the coverage check in ``per_layer`` is for: a span assigned to a workload
that records no call there fails the traced run instead of reading zero.

Each span is recorded in memory as (name, start, end, parent, request id,
extra counts) and written out when the run ends.  A span's self time is its
duration minus that of its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

SETUP = -1  # request id of spans recorded during set-up

ALL = ("zsearch", "fibration-fp", "fibration-q", "lattice")
FIBRATION = ("fibration-fp", "fibration-q")


def _scan_counts(args, kwargs, result):
    q, _, d = args[:3]
    lo = args[3] if len(args) > 3 else kwargs.get("lo", 0)
    hi = args[4] if len(args) > 4 else kwargs.get("hi")
    candidates = (q ** (d + 1) if hi is None else hi) - lo
    # int64 words a candidate occupies in the digit (d + 1), square (2d + 1)
    # and residual (3d + 1) arrays of the vectorised scan.
    words = (d + 1) + (2 * d + 1) + (3 * d + 1)
    return {
        "kernels.candidates": candidates,
        "kernels.hits": len(result),
        "kernels.bytes_computed": 8 * words * candidates,
    }


def _solve_class_counts(args, kwargs, result):
    box = args[2] if len(args) > 2 else kwargs.get("box", 20)
    return {"picard.solve_class_candidates": (2 * box + 1) ** len(args[0])}


# (module, attribute or Class.method, span name, extra-count function,
# workloads on which the span must record at least one call).
SPANS = [
    ("_kernels", "decompose_scan", "kernels.scan", _scan_counts, ("zsearch",)),
    (
        "locusz",
        "_group_orbits",
        "locusz.group_orbits",
        lambda a, k, r: {"locusz.orbits": len(r)},
        ("zsearch",),
    ),
    ("binform", "is_squarefree", "binform.is_squarefree", None, ("zsearch",) + FIBRATION),
    ("binform", "gcd", "binform.gcd", None, FIBRATION),
    ("binform", "roots_fp", "binform.roots_fp", None, ("fibration-fp",)),
    ("families", "delta12_quartic", "families.delta12_quartic", None, FIBRATION),
    ("families", "to_b_point", "families.to_b_point", None, FIBRATION),
    ("fibration", "is_nodal_twelve", "fibration.is_nodal_twelve", None, FIBRATION),
    ("fibration", "verify_section", "fibration.verify_section", None, FIBRATION),
    ("fibration", "height_pairing", "fibration.height_pairing", None, FIBRATION),
    ("fibration", "halving_quartic", "fibration.halving_quartic", None, FIBRATION),
    ("fibration", "fibration_report", "fibration.fibration_report", None, FIBRATION),
    # Algebra the CLI calls directly, so that it is not counted as CLI time.
    ("poly", "distinct_root_count_fp", "poly.distinct_root_count_fp", None, ("fibration-fp",)),
    ("binform", "perfect_square_root", "binform.perfect_square_root", None, FIBRATION),
    ("binform", "BinForm.divexact", "binform.divexact", None, FIBRATION),
    ("fibration", "WModel.discriminant_locus", "fibration.discriminant_locus", None, FIBRATION),
    ("recillas", "rh_genus", "recillas.rh_genus", None, ("lattice",)),
    ("picard", "solve_halving_classes", "picard.report", None, ("lattice",)),
    ("picard", "reconstruct_e0", "picard.report", None, ()),
    ("picard", "lattice_height", "picard.report", None, ()),
    ("picard", "section_h_census", "picard.report", None, ()),
    ("picard", "intersection_examples", "picard.report", None, ()),
    ("picard", "verify_isometry", "picard.report", None, ()),
    ("picard", "mod2_section_classes", "picard.report", None, ()),
    ("recillas", "forward", "recillas.forward", None, ("lattice",)),
    ("recillas", "reverse", "recillas.reverse", None, ("lattice",)),
    ("picard", "solve_class", "picard.solve_class", _solve_class_counts, ("lattice",)),
    (
        "picard",
        "enumerate_minimal_sections",
        "picard.enumerate_minimal_sections",
        None,
        ("lattice",),
    ),
    ("e8", "census_report", "e8", None, ("lattice",)),
    ("e8", "enumerate_roots", "e8", None, ()),
    ("cli", "main", "cli.main", None, ALL),
    ("cli", "_load_json", "jsonio.decode", None, ALL),
    ("jsonio", "form_from_json", "jsonio.decode", None, ()),
    ("jsonio", "model_from_json", "jsonio.decode", None, ()),
    ("jsonio", "section_from_json", "jsonio.decode", None, ()),
    ("jsonio", "tuple_from_json", "jsonio.decode", None, ()),
    ("jsonio", "divclass_from_json", "jsonio.decode", None, ()),
    ("jsonio", "constraint_from_json", "jsonio.decode", None, ()),
    (
        "jsonio",
        "dump_report",
        "jsonio.encode",
        lambda a, k, r: {"jsonio.report_bytes": len(r)},
        ALL,
    ),
    ("jsonio", "make_report", "jsonio.encode", None, ()),
    ("jsonio", "form_to_json", "jsonio.encode", None, ()),
    ("jsonio", "family_to_json", "jsonio.encode", None, ()),
    ("jsonio", "bpoint_to_json", "jsonio.encode", None, ()),
    ("jsonio", "tuple_to_json", "jsonio.encode", None, ()),
    ("jsonio", "divclass_to_json", "jsonio.encode", None, ()),
]

# Call counters without spans, for methods called too often to time.
COUNTERS = [
    ("poly", "UniPoly.__mul__", "poly.mul_calls", FIBRATION),
    ("binform", "BinForm.__mul__", "binform.mul_calls", FIBRATION),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent, request id, extra]
        self.counts = Counter()  # (counter name, request id) -> calls
        self.request = SETUP
        self._open = []
        self._saved = []

    def _span(self, name, func, extra):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.request] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        for module, path, name, extra, _ in SPANS:
            owner, attr, func = self._target(module, path)
            self._replace(owner, attr, func, self._span(name, func, extra))
        for module, path, name, _ in COUNTERS:
            owner, attr, func = self._target(module, path)
            self._replace(owner, attr, func, self._counter(name, func))

    def _target(self, module, path):
        owner = getattr(self.package, module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        return owner, attr, getattr(owner, attr)

    def _replace(self, owner, attr, func, wrapper):
        self._saved.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def per_layer(tracer, commands, workload, cpu_s, untraced_s, traced_s):
    """Per-layer metrics of the traced requests, and the spans that missed
    their coverage.  ``commands[r]`` is the subcommand of request r.

    Counts and times are per traced request, so they compare across commits
    whatever number of requests a run completes.  A function's time includes
    its callees; the CLI's and the JSON codecs' times are self times."""
    n = len(commands)
    calls, seconds, self_s = Counter(), Counter(), Counter()
    by_command, extra = Counter(), Counter()
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, request, _ in spans:
        if parent is not None:
            child[parent] += end - start
    for i, (name, start, end, parent, request, counts) in enumerate(spans):
        if request == SETUP:
            continue
        calls[name] += 1
        by_command[name, commands[request]] += 1
        self_s[name] += end - start - child[i]
        outer = parent
        while outer is not None and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer is None:
            seconds[name] += end - start
        for key, value in (counts or {}).items():
            extra[key] += value
    for (name, request), value in tracer.counts.items():
        if request != SETUP:
            calls[name] += value
    first_e8 = next((s for s in spans if s[0] == "e8"), None)

    def per(x):
        return x / n

    def share(x, y):
        return x / y if y else 0.0

    infos = sum(1 for c in commands if c == "fibration-info")
    halvings = sum(1 for c in commands if c == "fibration-halving")
    metrics = {
        "kernels.scan_calls": (per(calls["kernels.scan"]), "count"),
        "kernels.scan_s": (per(seconds["kernels.scan"]), "s"),
        "kernels.candidates": (per(extra["kernels.candidates"]), "count"),
        "kernels.candidates_per_s": (
            share(extra["kernels.candidates"], seconds["kernels.scan"]),
            "1/s",
        ),
        "kernels.hits": (per(extra["kernels.hits"]), "count"),
        "kernels.hit_ratio": (
            share(extra["kernels.hits"], extra["kernels.candidates"]),
            "ratio",
        ),
        "kernels.bytes_computed": (per(extra["kernels.bytes_computed"]), "B"),
        "locusz.group_orbits_calls": (per(calls["locusz.group_orbits"]), "count"),
        "locusz.group_orbits_s": (per(seconds["locusz.group_orbits"]), "s"),
        "locusz.orbits": (per(extra["locusz.orbits"]), "count"),
        "binform.is_squarefree_calls": (per(calls["binform.is_squarefree"]), "count"),
        "binform.is_squarefree_s": (per(seconds["binform.is_squarefree"]), "s"),
        "binform.is_squarefree_per_info": (
            share(by_command["binform.is_squarefree", "fibration-info"], infos),
            "count",
        ),
        "binform.gcd_s": (per(seconds["binform.gcd"]), "s"),
        "binform.roots_fp_s": (per(seconds["binform.roots_fp"]), "s"),
        "binform.mul_calls": (per(calls["binform.mul_calls"]), "count"),
        "poly.mul_calls": (per(calls["poly.mul_calls"]), "count"),
        "families.delta12_quartic_s": (per(seconds["families.delta12_quartic"]), "s"),
        "families.to_b_point_s": (per(seconds["families.to_b_point"]), "s"),
        "fibration.is_nodal_twelve_calls": (
            per(calls["fibration.is_nodal_twelve"]),
            "count",
        ),
        "fibration.is_nodal_twelve_per_info": (
            share(by_command["fibration.is_nodal_twelve", "fibration-info"], infos),
            "count",
        ),
        "fibration.verify_section_calls": (per(calls["fibration.verify_section"]), "count"),
        "fibration.verify_section_per_halving": (
            share(by_command["fibration.verify_section", "fibration-halving"], halvings),
            "count",
        ),
        "fibration.height_pairing_s": (per(seconds["fibration.height_pairing"]), "s"),
        "fibration.halving_quartic_s": (per(seconds["fibration.halving_quartic"]), "s"),
        "fibration.fibration_report_s": (per(seconds["fibration.fibration_report"]), "s"),
        "recillas.forward_s": (per(seconds["recillas.forward"]), "s"),
        "recillas.reverse_s": (per(seconds["recillas.reverse"]), "s"),
        "picard.solve_class_s": (per(seconds["picard.solve_class"]), "s"),
        "picard.solve_class_candidates": (
            per(extra["picard.solve_class_candidates"]),
            "count",
        ),
        "picard.enumerate_minimal_sections_s": (
            per(seconds["picard.enumerate_minimal_sections"]),
            "s",
        ),
        "e8.first_call_s": (first_e8[2] - first_e8[1] if first_e8 else 0.0, "s"),
        "cli.requests": (n, "count"),
        "cli.self_s": (per(self_s["cli.main"]), "s"),
        "jsonio.decode_s": (per(self_s["jsonio.decode"]), "s"),
        "jsonio.encode_s": (per(self_s["jsonio.encode"]), "s"),
        "jsonio.report_bytes": (per(extra["jsonio.report_bytes"]), "B"),
        "process.cpu_s": (per(cpu_s), "s"),
        "process.cpu_util": (share(cpu_s, untraced_s), "ratio"),
        "tracing.overhead_ratio": (share(traced_s, untraced_s), "ratio"),
    }
    required = [(s[2], s[4]) for s in SPANS] + [(c[2], c[3]) for c in COUNTERS]
    missing = sorted({name for name, on in required if workload in on and not calls[name]})
    return metrics, missing
