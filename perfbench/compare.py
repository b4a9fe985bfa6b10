#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload and metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as run.py appends them to .perfbench/results.jsonl
(copy that file aside after running the parent commit).  For every workload
and metric the script prints both medians, the base quartile spread and the
change, after the median time of a fixed Python loop on each side: a host
that ran slower for one side shows there.  An end-to-end metric that is worse than the base median by more than
its bound in BENCHMARK.json is marked WORSE; one whose base spread exceeds its
bound is marked unresolved.  Runs made on different kernel backends (numba or
numpy) measure different code, so the script refuses to compare them and exits
with status 2.  It exits with status 1 when a metric is WORSE or a run was
incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs made on different backends: {sorted(backends)}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    values = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for r in records:
            for name, m in r["metrics"].items():
                values[r["workload"], name][side].append(m["value"])
    status = 0
    for r in base + new:
        if not r["correct"]:
            print(f"incorrect run: {r['workload']} seed {r['seed']}")
            status = 1
    for side, records in (("base", base), ("new", new)):
        loops = [statistics.fmean(r["provenance"]["host_loop_ms"]) for r in records]
        print(f"{side}: host loop median {statistics.median(loops):.2f} ms over {len(loops)} runs")
    print(f"{'workload':14s} {'metric':38s} {'base':>12s} {'new':>12s} {'change':>8s} {'spread':>7s}")
    for (workload, name), (b, n) in sorted(values.items()):
        if not b or not n:
            continue
        bq1, bmed, bq3 = quartiles(b)
        nmed = statistics.median(n)
        change = (nmed - bmed) / bmed if bmed else 0.0
        spread = (bq3 - bq1) / bmed if bmed else 0.0
        verdict = ""
        m = spec.get(name, {})
        if "bound" in m:
            worse = -change if m["better"] == "higher" else change
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "WORSE"
                status = 1
        print(
            f"{workload:14s} {name:38s} {bmed:12.6g} {nmed:12.6g} "
            f"{change:+8.1%} {spread:7.1%} {verdict}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
