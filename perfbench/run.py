#!/usr/bin/env python3
"""The repository benchmark: closed-loop traffic through the cubesquare CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One client sends one request at a time, each an in-process call of
``cubesquare.cli.main(argv)`` in a fresh interpreter per workload; inputs are
drawn from the seed and written to files before timing, and every report is
checked by the workload's own oracle (see workloads.py).  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; set-up is measured
in several fresh interpreters and reported as their median.  With
``--trace 1`` it reports the per-layer metrics of a traced replay (see
tracing.py).  Human-readable lines come first; the last line is one JSON
object.  Each run also appends a record with its provenance to
``.perfbench/results.jsonl``; compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import build_manifest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUPS = 3  # fresh interpreters whose set-up times give the median
WINDOW_REQUESTS = 20  # latency percentiles are taken per window of this many
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _start(mode, manifest_path, seconds, spans_path=None):
    """Run one worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, manifest_path, mode]
    cmd += [str(seconds)] + ([spans_path] if spans_path else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker did not finish in {CHILD_TIMEOUT_S} s")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
    return setup_s, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine():
    """CPU count, model and cache sizes, read from the running system."""
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or None,
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(base, index, "size")).strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
    }


def windows(blocks):
    """Consecutive whole blocks grouped into windows of at least
    WINDOW_REQUESTS latencies each (a short remainder joins the last one)."""
    out, current = [], []
    for latencies in blocks:
        current.extend(latencies)
        if len(current) >= WINDOW_REQUESTS:
            out.append(current)
            current = []
    if current:
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def windowed_percentile(blocks, n, i):
    """The i-th n-quantile of latency in each window, averaged over windows.

    The host's speed drifts between states lasting seconds to minutes.  A
    percentile over the whole run jumps to whichever state held most of it;
    averaged over short windows it moves in proportion to the time spent in
    each, as throughput does."""
    return statistics.fmean(
        statistics.quantiles(w, n=n, method="inclusive")[i] for w in windows(blocks)
    )


def host_loop_ms():
    """Median time of a fixed pure-Python loop: how fast the host ran when
    the run was made.  Recorded with the provenance, never in a metric."""

    def once():
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(15)) * 1e3


def run_one(workload, seed, seconds, trace, expected_metrics):
    host_before = host_loop_ms()
    rundir = os.path.join(WORKDIR, workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    manifest_path = os.path.join(rundir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(build_manifest(workload, seed, rundir), fh)
    if trace:
        spans_path = os.path.join(rundir, "spans.jsonl")
        _, out = _start("trace", manifest_path, seconds, spans_path)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["per_layer"].items()}
    else:
        setups = [_start("setup", manifest_path, seconds)[0] for _ in range(SETUPS - 1)]
        setup_s, out = _start("serve", manifest_path, seconds)
        setups.append(setup_s)
        blocks = out["block_latencies_s"]
        lat = [x for b in blocks for x in b]
        ok = (out["attempted"] - out["failed"]) / out["attempted"]
        values = {
            "throughput_rps": (len(lat) / out["busy_s"], "1/s"),
            "latency_p50_ms": (windowed_percentile(blocks, 2, 0) * 1e3, "ms"),
            "latency_p90_ms": (windowed_percentile(blocks, 10, 8) * 1e3, "ms"),
            "ok_ratio": (ok, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    if set(metrics) != expected_metrics:
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    missing = out.get("coverage_missing", [])
    correct = out["failed"] == 0 and out["oracle_rejects_corruption"] and not missing
    provenance = dict(
        machine(),
        backend=out["backend"],
        CUBESQUARE_NO_NUMBA=os.environ.get("CUBESQUARE_NO_NUMBA"),
        numpy=out["numpy"],
        numba=out["numba"],
        host_loop_ms=[host_before, host_loop_ms()],
    )
    for error in out["errors"]:
        print(f"  FAILED {error}")
    if not out["oracle_rejects_corruption"]:
        print("  FAILED the oracle accepted a deliberately corrupted report")
    for name in missing:
        print(f"  FAILED span {name} recorded no call on {workload}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timed_requests": None if trace else len(lat),
        "provenance": provenance,
        "correct": bool(correct),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def _print_run(record):
    if record["trace"]:
        mode = "traced replay"
    else:
        mode = f"closed loop, 1 client, {record['timed_requests']} timed requests"
    print(f"workload {record['workload']}  seed {record['seed']}  ({mode})")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  {'failed_ratio':40s} {failed / attempted:>16.6g} ({failed} of {attempted})")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cubesquare", "cli.py")):
        print(f"no program to benchmark: {ROOT}/src/cubesquare is missing", file=sys.stderr)
        return 2
    expected = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    records = []
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            records.append(run_one(workload, args.seed, args.seconds, args.trace, expected))
            _print_run(records[-1])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(WORKDIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
