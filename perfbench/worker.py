"""One workload run in a fresh process: set-up, timed passes, metrics.

``run.py`` starts this script with the environment it needs (single-threaded
BLAS, no PQDIST_THREADS, ``src`` on PYTHONPATH).  The last line of standard
output is a JSON object for ``run.py``; a full record of the run, including
report digests and, for a traced run, the spans of its last traced pass, is
written under the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import pqdist
from pqdist import fuzz

import spans
import workloads
from catalog import LAYER_UNITS


def machine_block() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "chunk_trials": getattr(fuzz, "CHUNK_TRIALS", None),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tail_percentile(samples: list) -> tuple:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it.

    Returns (percentile, value, samples beyond); with too few samples for
    any of them the maximum is returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99, 95, 90, 75, 50):
        idx = int(np.ceil(q / 100.0 * n)) - 1
        beyond = n - 1 - idx
        if idx >= 0 and beyond >= 10:
            return q, ordered[idx], beyond
    return 100, (ordered[-1] if ordered else 0.0), 0


def e2e_metrics(passes: list) -> dict:
    def rate(p, t):
        return p.items[t] / p.busy_s[t] if p.busy_s[t] > 0 else 0.0

    return {
        "suite_s": statistics.median(p.wall_s for p in passes),
        "trials_per_s.t1": statistics.median(rate(p, 1) for p in passes),
        "trials_per_s.t2": statistics.median(rate(p, 2) for p in passes),
        "peak_rss_mib": passes[0].rss_kib_t1 / 1024.0,
    }


def layer_values(result, pass_spans: list) -> dict:
    """Per-layer numbers for one traced pass."""
    agg = spans.aggregate(pass_spans)
    names, layers = agg["names"], agg["layers"]
    values = {}
    for layer, entry in layers.items():
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.busy.s"] = entry["busy_s"]
        values[f"{layer}.self.s"] = entry["self_s"]
    for metric in LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if span in names:
            values[metric] = names[span]["s" if kind == "s" else "calls"]
    values["fuzz.chunks"] = names["fuzz.chunk"]["calls"]
    chunk_s = sum(s[2] - s[1] for s in pass_spans
                  if s[0] == "fuzz.chunk" and result.op_threads.get(s[4]) == 2)
    campaign_s = sum(s[2] - s[1] for s in pass_spans
                     if s[0] == "fuzz.campaign" and result.op_threads.get(s[4]) == 2)
    values["fuzz.overlap"] = chunk_s / campaign_s if campaign_s else 0.0
    values["fileio.report_bytes"] = result.report_bytes
    values["trace.spans"] = len(pass_spans)
    return values


def optimize_values(passes: list) -> tuple[dict, dict]:
    solve_ms = [ms for p in passes for ms in p.solve_ms]
    iters = passes[0].iterations
    q, tail, beyond = tail_percentile(solve_ms)
    per_iter = [sum(p.solve_ms) * 1e-3 / sum(p.iterations) for p in passes if p.iterations]
    return {
        "optimize.iterations.sum": sum(iters),
        "optimize.iterations.p50": statistics.median(iters) if iters else 0,
        "optimize.capped": passes[0].capped,
        "optimize.s_per_iteration": statistics.median(per_iter) if per_iter else 0.0,
        "optimize.solve_ms.p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "optimize.solve_ms.tail": tail,
    }, {"tail_percentile": q, "tail_samples_beyond": beyond, "solve_samples": len(solve_ms)}


def run(args) -> dict:
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
        wl.warmup()
        ready = time.monotonic()
        if args.setup_only:
            return {"ready": ready}
        return measure(args, wl, workdir, out_dir) | {"ready": ready}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: str, out_dir: str) -> dict:
    untraced, traced, traced_layers = [], [], []
    last_tracer = None
    start = time.perf_counter()
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        tracer = spans.Tracer() if want_trace else None
        ctx = workloads.Context(workdir, tracer)
        if tracer is not None:
            tracer.install()
            try:
                result = wl.run_pass(ctx, len(untraced) + len(traced))
            finally:
                tracer.remove()
            traced.append(result)
            traced_layers.append(layer_values(result, tracer.spans))
            last_tracer = tracer
        else:
            result = wl.run_pass(ctx, len(untraced) + len(traced))
            untraced.append(result)
        elapsed = time.perf_counter() - start
        need_more = args.trace and not traced
        if not need_more and elapsed + result.wall_s > args.seconds:
            break

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_block(),
        "passes": {"untraced": [p.wall_s for p in untraced], "traced": [p.wall_s for p in traced]},
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures[:50],
        "report_sha256": {k: v for p in passes for k, v in p.digests.items()},
        "witness_gap_max": max(p.witness_gap for p in passes),
        "iterations": untraced[0].iterations,
        "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = e2e_metrics(untraced)
    if args.trace:
        layer = {k: statistics.median(v[k] for v in traced_layers) for k in traced_layers[0]}
        opt, opt_info = optimize_values(untraced)
        layer.update(opt)
        layer["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - metrics["suite_s"]
        )
        metrics = {name: layer.get(name, 0) for name in LAYER_UNITS}
        record["optimize"] = opt_info
        record["absent"] = last_tracer.absent
        span_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json")
        with open(span_path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "thread", "id"],
                       "spans": last_tracer.spans}, fh)
        record["spans_file"] = os.path.basename(span_path)
    record["metrics"] = metrics
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--src", required=True, help="directory pqdist must be imported from")
    args = parser.parse_args(argv)
    here = os.path.realpath(pqdist.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: pqdist imported from {here}, not from {args.src}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
