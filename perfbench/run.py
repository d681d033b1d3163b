"""pqdist benchmark: workload runs, metrics on the last line of standard output.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz-batched --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, default seed, untraced

Workloads: fuzz-batched, fuzz-wide, fuzz-reduction, minimize-n3 (see
perfbench/README.md for why each exists and what it measures).  With
``--workload all`` they run one after another and the final JSON line names
each metric ``<workload>.<metric>``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a run that alternates untraced and traced passes.

Each run happens in a fresh worker process with single-threaded BLAS and
PQDIST_THREADS unset.  Set-up (process start, imports, seeded input
generation, one warm-up operation) is measured in several fresh processes and
reported as their median.  The program is imported from ``src/`` of the
checkout this script lives in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from catalog import E2E_UNITS, LAYER_UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PQDIST_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def start_worker(args, workload: str, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and the set-up time."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR, "--src", SRC,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def run_workload(args, workload: str) -> tuple[int, int, dict]:
    """One workload run: prints its human-readable lines, returns
    (attempted, failed, {metric: {"value", "unit"}})."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [start_worker(args, workload, True, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    record, setup = start_worker(args, workload, False, deadline)
    setups.append(setup)

    if args.trace:
        units = LAYER_UNITS
        metrics = dict(record["metrics"])
    else:
        units = E2E_UNITS
        metrics = {"setup_s": statistics.median(setups), **record["metrics"]}

    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {workload} seed {args.seed} machine {json.dumps(record['machine'])}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if args.trace and record.get("absent"):
        print("absent: " + ", ".join(record["absent"]))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return attempted, failed, {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pqdist", "__init__.py")):
        print(f"error: no pqdist package under {SRC}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in chosen:
            a, f, m = run_workload(args, workload)
            attempted, failed = attempted + a, failed + f
            prefix = f"{workload}." if len(chosen) > 1 else ""
            metrics.update({prefix + name: value for name, value in m.items()})
    except (RuntimeError, OSError, ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
