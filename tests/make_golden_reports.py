"""Regenerate ``tests/golden_reports.json``, the fixed-seed report corpus.

    PYTHONPATH=src python3 tests/make_golden_reports.py
    PYTHONPATH=src python3 tests/make_golden_reports.py --check

``--check`` recomputes the corpus in memory and writes nothing: it prints the
property and config of every entry whose digest changed, added or removed,
with the digest keys that moved, and exits 1 if any did.

Every campaign runs on one thread (thread invariance has its own tests).  An
entry keeps the campaign's inputs and, of its report, the sha256 of the body
without ``elapsed_ms``, the violation count, the witness's trial index and the
worst defect.  The file records the numpy version and the machine type, so
``test_golden_reports.py`` compares digests only where both match and values
elsewhere.  Regenerate only for a declared report change, and commit the diff
with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from pqdist.fuzz import TrialConfig, run_fuzz
from pqdist.metric import DistanceMatrix
from pqdist.sampling import _symmetric_from_pairs, distance_matrices_batch, trial_rng

CORPUS = Path(__file__).with_name("golden_reports.json")

_MODES = ("euclidean-points", "repaired-random", "zero-one", "user-supplied")


def _matrix(n: int) -> list:
    """A fixed distance matrix for user-supplied campaigns: a seeded shortest-path-closed draw."""
    pairs = distance_matrices_batch(trial_rng(1000 + n, 0), 1, n, "repaired-random")
    return _symmetric_from_pairs(pairs, n)[0].tolist()


def _graded_matrix() -> list:
    """A fixed n = 6 distance matrix with entries from 1e-3 to 1: sqrt |s_i - s_j| over points s on
    a line, the square root of a metric, so every triangle inequality holds strictly."""
    s = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-2, 1.0])
    return np.sqrt(np.abs(s[:, None] - s)).tolist()


def campaigns() -> list[dict]:
    """About sixty campaigns: every property, n from 2 to 32 (screened triangle chunks from
    n = 9), the four matrix modes and p in {1.5, 2, 2.5, 10, 20}, with trial counts that end
    in a partial chunk.  Each campaign names its own seed, so adding one reseeds no other."""
    out = []

    def add(prop, n, p, trials, mode, seed, matrix=None):
        cfg = TrialConfig(n=n, p=p, trials=trials, seed=seed, matrix_mode=mode)
        if mode == "user-supplied" and matrix is None:
            matrix = _matrix(n)
        out.append({"property": prop, "config": cfg.to_dict(), "matrix": matrix})

    for i, n in enumerate((2, 3, 4, 6, 9, 16)):
        for j, p in enumerate((1.5, 2.0, 2.5, 10.0)):
            add("triangle", n, p, 2100, _MODES[(i + j) % 4], seed=1 + 4 * i + j)
    reduction = [(3, 1.5), (3, 2.0), (3, 10.0), (4, 2.5), (4, 10.0), (6, 1.5), (6, 2.0), (9, 2.5), (9, 10.0), (16, 2.0)]
    for i, (n, p) in enumerate(reduction):
        add("reduction", n, p, 200, _MODES[i % 4], seed=25 + i)
    others = (("minorial", (2.0,)), ("convexity", (2.0, 2.5, 10.0)), ("w1", (2.0,)), ("projector", (2.0,)))
    for k, (prop, ps) in enumerate(others):
        for i, n in enumerate((3, 4, 5, 6, 9, 16)):
            trials = 700 if n < 9 else 520
            add(prop, n, ps[i % len(ps)], trials, _MODES[i % 3], seed=35 + 6 * k + i)
    # two full chunks and a partial one, whose trial 1069 (chunk 2, row 45) is the witness
    add("reduction", 4, 3.0, 1200, "repaired-random", seed=59)
    # reduction campaigns at n = 32, and on graded entries whose 20th powers span 60 decades
    add("reduction", 32, 2.0, 200, "euclidean-points", seed=60)
    add("reduction", 32, 3.0, 200, "repaired-random", seed=61)
    add("reduction", 6, 20.0, 600, "user-supplied", seed=62, matrix=_graded_matrix())
    seeds = [e["config"]["seed"] for e in out]
    assert len(set(seeds)) == len(seeds), "every campaign needs its own seed"
    return out


def run(entry: dict):
    """The entry's report, run on one thread."""
    cfg = TrialConfig.from_dict(entry["config"])
    matrix = DistanceMatrix.from_array(entry["matrix"]) if entry["matrix"] is not None else None
    return run_fuzz(entry["property"], cfg, matrix=matrix, threads=1)


_DIGEST_KEYS = ("sha256", "violations", "trial", "worst_defect")


def digest(report) -> dict:
    """What the corpus keeps of a report: its body's sha256 (without ``elapsed_ms``) and its verdict values."""
    body = report.to_dict()
    body.pop("elapsed_ms")
    return {
        "sha256": hashlib.sha256(json.dumps(body, allow_nan=False).encode()).hexdigest(),
        "violations": body["violations"],
        "trial": body["witness"]["trial"],
        "worst_defect": body["worst_defect"],  # None where it is not finite
    }


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def check(entries: list[dict]) -> int:
    """Print each campaign whose digest differs from the stored corpus's, or that only one side
    holds, with the digest keys that moved; 1 if any does, else 0."""

    def key(e):
        return json.dumps([e["property"], e["config"], e["matrix"]])

    stored = {key(e): e for e in json.loads(CORPUS.read_text())["campaigns"]}
    fresh = {key(e): e for e in entries}
    changed = 0
    for k in dict.fromkeys([*stored, *fresh]):
        want, got = stored.get(k), fresh.get(k)
        moved = [d for d in _DIGEST_KEYS if want is None or got is None or want[d] != got[d]]
        if moved:
            changed += 1
            state = "added" if want is None else "removed" if got is None else "changed"
            print(f"{state} {(got or want)['property']} {json.dumps((got or want)['config'])}: {', '.join(moved)}")
    print(f"{CORPUS}: {changed} of {len(fresh)} campaigns differ from the stored corpus")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored corpus; write nothing")
    args = parser.parse_args(argv)
    entries = [{**entry, **digest(run(entry))} for entry in campaigns()]
    if args.check:
        return check(entries)
    doc = {**environment(), "campaigns": entries}
    CORPUS.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"{CORPUS}: {len(entries)} campaigns, {sum(e['violations'] > 0 for e in entries)} with violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
