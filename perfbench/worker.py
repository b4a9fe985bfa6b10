"""One fresh interpreter serving one workload (started by run.py).

Set-up is everything before the first timed request: importing the program,
then one warm-up request per class of the workload, which fills the
program's lazy caches (and compiles its JIT kernels when numba is present).
The worker then prints ``READY`` and, unless it only measures set-up, sends
closed-loop traffic from one client with one request outstanding: each
request is an in-process call of ``cubesquare.cli.main(argv)`` whose report
is captured in memory and checked by the workload's oracle.  The result is
one JSON line on standard output.

Usage: worker.py ROOT MANIFEST MODE SECONDS [SPANS]
    MODE is setup (set-up only), serve (timed traffic) or trace (every block
    of traffic sent twice, once with per-layer tracing; spans go to SPANS).
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io
import json
import os
import resource
import sys
import time

from workloads import block, check_report, corrupted

MIN_REQUESTS = 100  # so that ten samples lie beyond the 90th percentile
DEADLINE_S = 140.0  # stop early rather than overrun the run's time limit


class Client:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_report = {}  # kind -> (spec, text) of a correct report
        self.check_s = 0.0  # client time spent checking, left out of busy time
        self.cpu_s = 0.0  # process CPU time spent inside requests

    def request(self, spec):
        """Send one request; return its latency in seconds."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                status = self.cli.main(spec["argv"])
            except (Exception, SystemExit) as exc:
                status = repr(exc)
            latency = time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu
        checked = time.perf_counter()
        text = buf.getvalue()
        error = f"{spec['argv'][0]}: exit {status}" if status != 0 else check_report(spec, text)
        self.attempted += 1
        if error is None:
            self.first_report.setdefault(spec["kind"], (spec, text))
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        self.check_s += time.perf_counter() - checked
        return latency

    def oracle_rejects_corruption(self) -> bool:
        """A deliberately corrupted copy of each kind of report must fail."""
        return all(
            check_report(spec, corrupted(text, kind)) is not None
            for kind, (spec, text) in self.first_report.items()
        )


def serve(client, manifest, seconds, min_requests):
    """Whole blocks of traffic until ``seconds`` have passed and at least
    ``min_requests`` were sent.  Returns the latencies of each block and the
    busy seconds (time spent checking reports excluded)."""
    blocks = []
    busy = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        blocks.append([])
        busy += replay(client, block(manifest, k), latencies=blocks[-1])[0]
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= DEADLINE_S:
            break
        if elapsed >= seconds and sum(map(len, blocks)) >= min_requests:
            break
    return blocks, busy


def replay(client, specs, tracer=None, first_request=0, latencies=None):
    """Send ``specs``, traced when a tracer is given, appending each latency
    to ``latencies`` when given.  Returns (busy seconds, CPU seconds)."""
    if tracer:
        tracer.install()
    check0, cpu0 = client.check_s, client.cpu_s
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        if tracer:
            tracer.request = first_request + i
        latency = client.request(spec)
        if latencies is not None:
            latencies.append(latency)
    busy = time.perf_counter() - start - (client.check_s - check0)
    if tracer:
        tracer.uninstall()
    return busy, client.cpu_s - cpu0


def trace(client, tracer, manifest, seconds, spans_path):
    """Each whole block runs once untraced and once traced, alternating which
    goes first so that neither pass gains from running second.  Returns the
    per-layer metrics of the traced requests and the spans that missed their
    coverage."""
    from tracing import per_layer

    tracer.uninstall()
    sent = []
    untraced = traced = cpu_s = 0.0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < min(seconds, DEADLINE_S):
        specs = block(manifest, k)
        if k % 2:
            traced += replay(client, specs, tracer, len(sent))[0]
            busy, cpu = replay(client, specs)
        else:
            busy, cpu = replay(client, specs)
            traced += replay(client, specs, tracer, len(sent))[0]
        untraced += busy
        cpu_s += cpu
        sent.extend(specs)
        k += 1
    tracer.write(spans_path)
    commands = [spec["argv"][0] for spec in sent]
    return per_layer(tracer, commands, manifest["workload"], cpu_s, untraced, traced)


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv):
    root, manifest_path, mode, seconds = argv[:4]
    seconds = float(seconds)
    sys.path.insert(0, os.path.join(root, "src"))
    import cubesquare
    import cubesquare.cli as cli

    if not os.path.abspath(cubesquare.__file__).startswith(os.path.abspath(root)):
        raise SystemExit(f"imported {cubesquare.__file__}, not the checkout's program")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer(cubesquare)
        tracer.install()
    client = Client(cli)
    for spec in manifest["warmup"]:
        client.request(spec)
    print("READY", flush=True)
    if mode == "setup":
        return
    out = {}
    if mode == "serve":
        out["block_latencies_s"], out["busy_s"] = serve(client, manifest, seconds, MIN_REQUESTS)
    else:
        out["per_layer"], out["coverage_missing"] = trace(
            client, tracer, manifest, seconds, argv[4]
        )
    from cubesquare import _kernels

    out.update(
        attempted=client.attempted,
        failed=client.failed,
        errors=client.errors,
        oracle_rejects_corruption=client.oracle_rejects_corruption(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        backend=_kernels.backend_name(),
        numpy=_version("numpy"),
        numba=_version("numba"),
    )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
