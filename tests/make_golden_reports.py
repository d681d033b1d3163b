"""Regenerate ``tests/golden_reports.json``, the fixed-seed report corpus.

    PYTHONPATH=src python3 tests/make_golden_reports.py

Every campaign runs on one thread (thread invariance has its own tests).  An
entry keeps the campaign's inputs and, of its report, the sha256 of the body
without ``elapsed_ms``, the violation count, the witness's trial index and the
worst defect.  The file records the numpy version and the machine type, so
``test_golden_reports.py`` compares digests only where both match and values
elsewhere.  Regenerate only for a declared report change, and commit the diff
with it.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from pqdist.fuzz import TrialConfig, run_fuzz
from pqdist.metric import DistanceMatrix
from pqdist.sampling import distance_matrices_batch, trial_rng

CORPUS = Path(__file__).with_name("golden_reports.json")

_MODES = ("euclidean-points", "repaired-random", "zero-one", "user-supplied")


def _matrix(n: int) -> list:
    """A fixed distance matrix for user-supplied campaigns: a seeded shortest-path-closed draw."""
    return distance_matrices_batch(trial_rng(1000 + n, 0), 1, n, "repaired-random")[0].tolist()


def campaigns() -> list[dict]:
    """About sixty campaigns: every property, n from 2 to 16 (screened triangle chunks from
    n = 9), the four matrix modes and p in {1.5, 2, 2.5, 10}, with trial counts that end
    in a partial chunk."""
    out = []

    def add(prop, n, p, trials, mode):
        cfg = TrialConfig(n=n, p=p, trials=trials, seed=len(out) + 1, matrix_mode=mode)
        matrix = _matrix(n) if mode == "user-supplied" else None
        out.append({"property": prop, "config": cfg.to_dict(), "matrix": matrix})

    for i, n in enumerate((2, 3, 4, 6, 9, 16)):
        for j, p in enumerate((1.5, 2.0, 2.5, 10.0)):
            add("triangle", n, p, 2100, _MODES[(i + j) % 4])
    reduction = [(3, 1.5), (3, 2.0), (3, 10.0), (4, 2.5), (4, 10.0), (6, 1.5), (6, 2.0), (9, 2.5), (9, 10.0), (16, 2.0)]
    for i, (n, p) in enumerate(reduction):
        add("reduction", n, p, 200, _MODES[i % 4])
    for prop, ps in (("minorial", (2.0,)), ("convexity", (2.0, 2.5, 10.0)), ("w1", (2.0,)), ("projector", (2.0,))):
        for i, n in enumerate((3, 4, 5, 6, 9, 16)):
            trials = 700 if n < 9 else 520
            add(prop, n, ps[i % len(ps)], trials, _MODES[i % 3])
    return out


def run(entry: dict):
    """The entry's report, run on one thread."""
    cfg = TrialConfig.from_dict(entry["config"])
    matrix = DistanceMatrix.from_array(entry["matrix"]) if entry["matrix"] is not None else None
    return run_fuzz(entry["property"], cfg, matrix=matrix, threads=1)


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


def main() -> None:
    entries = [{**entry, **digest(run(entry))} for entry in campaigns()]
    doc = {**environment(), "campaigns": entries}
    CORPUS.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"{CORPUS}: {len(entries)} campaigns, {sum(e['violations'] > 0 for e in entries)} with violations")


if __name__ == "__main__":
    main()
