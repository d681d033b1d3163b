"""The four benchmark workloads: seeded operation lists and their correctness gates.

Every input is derived from one workload seed; pqdist receives only the
generated inputs (campaign configs, matrix files, weight triples).  The
untraced path calls public entry points only: ``fuzz.run_fuzz``,
``fuzz.reevaluate_witness``, ``optimize.minimize_defect_n3``, ``cli.main`` and
``fileio.*``, each looked up as a module attribute at call time so that a
tracer can wrap them.

Why each workload exists:

* fuzz-batched    small n, cache-resident: per-chunk Python overhead and the
                  sampling draws dominate, and a second thread barely helps.
* fuzz-wide       large n: per-chunk temporaries of tens to hundreds of MiB,
                  memory-bound work, the CLI fuzz/validate path and JSON I/O.
* fuzz-reduction  the only campaign on the scalar per-trial path
                  checks -> metric -> exterior.
* minimize-n3     the only workload for optimize; its iteration counts repeat
                  exactly for a seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from pqdist import cli, fileio, fuzz, optimize

from catalog import WORKLOADS
THREADS = (1, 2)
WITNESS_GAP = 1e-12
SATISFYING_FLOOR = -1e-7
VIOLATING_CEILING = -1e-3
MINIMIZER_RESTARTS = 64
MINIMIZER_ITERATIONS = 2000
MINIMIZER_PS = (2.0, 2.5, 3.0, 5.0)


def report_body(doc: dict) -> bytes:
    """Report bytes with the run-time field removed; identical across threads."""
    body = {k: v for k, v in doc.items() if k != "elapsed_ms"}
    return json.dumps(body, sort_keys=True).encode()


@dataclass
class PassResult:
    wall_s: float = 0.0
    items: dict = field(default_factory=lambda: {t: 0 for t in THREADS})
    busy_s: dict = field(default_factory=lambda: {t: 0.0 for t in THREADS})
    rss_kib_t1: int = 0  # ru_maxrss when the threads=1 half of the pass ended
    attempted: int = 0
    failures: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)  # label -> {threads: comparable result}
    digests: dict = field(default_factory=dict)
    witness_gap: float = 0.0
    report_bytes: int = 0
    solve_ms: list = field(default_factory=list)  # threads=1 minimizer calls
    iterations: list = field(default_factory=list)
    capped: int = 0
    op_threads: dict = field(default_factory=dict)  # op id -> thread count

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def compare_threads(self) -> None:
        """Fail every operation whose result depends on the thread count."""
        for label, by_threads in self.outcomes.items():
            if len(by_threads) != len(THREADS):
                continue  # a failure at one thread count is already counted
            first = by_threads[THREADS[0]]
            if isinstance(first, bytes):
                self.digests[label] = hashlib.sha256(first).hexdigest()
            if any(by_threads[t] != first for t in THREADS[1:]):
                self.fail(label, "result differs between thread counts")


class Context:
    """What an operation needs while it runs: scratch directory and tracer."""

    def __init__(self, workdir: str, tracer=None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self._next_op = 0

    def begin_op(self, result: PassResult, threads: int) -> None:
        op_id = self._next_op
        self._next_op += 1
        result.op_threads[op_id] = threads
        result.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = op_id


def _check_report(doc: dict, prop: str, expect_violation: bool, result: PassResult, label: str):
    """Gates shared by library and CLI campaigns; ``doc`` has been through JSON."""
    worst = doc["worst_defect"]
    if not math.isfinite(worst):
        result.fail(label, f"worst_defect {worst!r} is not finite")
        return False
    found = doc["violations"]
    if expect_violation and found == 0:
        result.fail(label, "expected violations, found none")
        return False
    if not expect_violation and found != 0:
        result.fail(label, f"{found} unexpected violations")
        return False
    again = fuzz.reevaluate_witness(prop, doc["witness"])
    gap = abs(again - worst)
    result.witness_gap = max(result.witness_gap, gap)
    if not gap <= WITNESS_GAP:
        result.fail(label, f"witness re-evaluates to {again!r}, report says {worst!r}")
        return False
    return True


@dataclass
class FuzzOp:
    """One ``run_fuzz`` campaign."""

    prop: str
    cfg: dict
    expect_violation: bool = False

    @property
    def label(self) -> str:
        c = self.cfg
        return f"{self.prop}-n{c['n']}-p{c['p']:g}-{c['matrix_mode']}"

    def run(self, ctx: Context, result: PassResult, threads: int) -> None:
        label = f"{self.label}-t{threads}"
        ctx.begin_op(result, threads)
        try:
            start = time.perf_counter()
            rep = fuzz.run_fuzz(self.prop, fuzz.TrialConfig(**self.cfg), threads=threads)
            result.busy_s[threads] += time.perf_counter() - start
            result.items[threads] += rep.trials
            path = os.path.join(ctx.workdir, label + ".json")
            fileio.write_report(path, rep.to_dict())
            result.report_bytes += os.path.getsize(path)
            doc = fileio.load_report(path)
            if _check_report(doc, self.prop, self.expect_violation, result, label):
                result.outcomes.setdefault(self.label, {})[threads] = report_body(doc)
        except Exception as ex:  # a raising operation counts as failed
            result.fail(label, f"raised {ex!r}")


@dataclass
class CliFuzzOp:
    """``pqdist fuzz --matrix FILE --out REPORT``."""

    matrix_path: str
    prop: str
    p: float
    trials: int
    seed: int

    @property
    def label(self) -> str:
        return f"cli-fuzz-{self.prop}-{os.path.basename(self.matrix_path)}"

    def run(self, ctx: Context, result: PassResult, threads: int) -> None:
        label = f"{self.label}-t{threads}"
        out = os.path.join(ctx.workdir, label + ".json")
        argv = [
            "fuzz", "--property", self.prop, "--matrix", self.matrix_path,
            "--p", repr(self.p), "--trials", str(self.trials), "--seed", str(self.seed),
            "--threads", str(threads), "--out", out,
        ]
        ctx.begin_op(result, threads)
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            result.busy_s[threads] += time.perf_counter() - start
            if code != 0:
                result.fail(label, f"exit code {code}")
                return
            result.items[threads] += self.trials
            result.report_bytes += os.path.getsize(out)
            doc = fileio.load_report(out)
            if _check_report(doc, self.prop, False, result, label):
                result.outcomes.setdefault(self.label, {})[threads] = report_body(doc)
        except Exception as ex:
            result.fail(label, f"raised {ex!r}")


@dataclass
class CliValidateOp:
    """``pqdist validate FILE`` on a valid matrix; it takes no thread count,
    so it runs in the threads=1 half of a pass only."""

    matrix_path: str

    def run(self, ctx: Context, result: PassResult, threads: int) -> None:
        if threads != 1:
            return
        label = f"cli-validate-{os.path.basename(self.matrix_path)}"
        ctx.begin_op(result, 1)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["validate", self.matrix_path])
            if code != 0 or not out.getvalue().startswith("valid distance matrix"):
                result.fail(label, f"exit code {code}: {out.getvalue().strip()!r}")
        except Exception as ex:
            result.fail(label, f"raised {ex!r}")


@dataclass
class SolveBatch:
    """``minimize_defect_n3`` over a list of weight triples.

    At threads=1 the list runs back to back on the calling thread; at
    threads=2 it is split over two caller threads.  Both must give the same
    results, and each result must pass the 3-dimensional criterion's gate.
    """

    cases: list  # (lambdas, p, seed, satisfying)

    def _solve(self, case):
        lam, p, seed, _ = case
        start = time.perf_counter()
        res = optimize.minimize_defect_n3(
            lam, p, restarts=MINIMIZER_RESTARTS, iterations=MINIMIZER_ITERATIONS, seed=seed
        )
        return res, time.perf_counter() - start

    def _accept(self, k: int, res, threads: int, result: PassResult) -> None:
        label = f"solve-{k}-t{threads}"
        satisfying = self.cases[k][3]
        if satisfying and not res.min_defect >= SATISFYING_FLOOR:
            result.fail(label, f"satisfying weights gave {res.min_defect!r}")
        elif not satisfying and not res.min_defect < VIOLATING_CEILING:
            result.fail(label, f"violating weights gave {res.min_defect!r}")
        else:
            triple = tuple(np.asarray(v).tobytes() for v in res.triple)
            result.outcomes.setdefault(f"solve-{k}", {})[threads] = (
                res.min_defect, res.iterations, triple,
            )

    def run(self, ctx: Context, result: PassResult, threads: int) -> None:
        if threads == 1:
            for k, case in enumerate(self.cases):
                ctx.begin_op(result, 1)
                try:
                    res, elapsed = self._solve(case)
                except Exception as ex:
                    result.fail(f"solve-{k}-t1", f"raised {ex!r}")
                    continue
                result.busy_s[1] += elapsed
                result.items[1] += 1
                result.solve_ms.append(elapsed * 1e3)
                result.iterations.append(res.iterations)
                result.capped += res.iterations >= MINIMIZER_ITERATIONS
                self._accept(k, res, 1, result)
            return

        for _ in self.cases:
            ctx.begin_op(result, threads)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(self._solve, case) for case in self.cases]
            outcomes = []
            for fut in futures:
                try:
                    outcomes.append(fut.result()[0])
                except Exception as ex:
                    outcomes.append(ex)
        result.busy_s[threads] += time.perf_counter() - start
        for k, res in enumerate(outcomes):
            if isinstance(res, Exception):
                result.fail(f"solve-{k}-t{threads}", f"raised {res!r}")
                continue
            result.items[threads] += 1
            self._accept(k, res, threads, result)


@dataclass
class Workload:
    """Operation lists run back to back by one caller.

    Pass k runs ``rotation[k % len(rotation)]``, first every operation at
    threads=1, then every operation at threads=2.  Every list in a rotation
    does the same amount of work, so passes are interchangeable samples.
    """

    name: str
    rotation: list
    warmup: object  # zero-argument callable, run once untimed during set-up

    def run_pass(self, ctx: Context, index: int) -> PassResult:
        result = PassResult()
        ops = self.rotation[index % len(self.rotation)]
        start = time.perf_counter()
        for threads in THREADS:
            for op in ops:
                op.run(ctx, result, threads)
            if threads == 1:
                result.rss_kib_t1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.wall_s = time.perf_counter() - start
        result.compare_threads()
        return result


def _euclidean_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    pts = rng.random((n, 3))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


def _weight_cases(rng: np.random.Generator, count: int) -> list:
    """Weight triples drawn as in the 3-dimensional criterion's acceptance test.

    Half violate 2 max <= sum (one weight pushed past the sum of the others by
    a factor 1.1-2), half satisfy it (uniform draws kept by rejection).  Each
    class is stratified: a pool of candidates is sorted by 2 max / sum, cut
    into ``count`` equal blocks, and one candidate is drawn from each block,
    so every seed gets the same mix of triples near and far from the
    boundary without changing the distribution sampled.  p cycles through
    MINIMIZER_PS.
    """
    pool = 64 * count
    violating = []
    for _ in range(pool):
        lam = rng.uniform(0.2, 2.0, 3)
        k = int(rng.integers(3))
        lam[k] = (lam.sum() - lam[k]) * (1.0 + rng.uniform(0.1, 1.0))
        violating.append(lam)
    satisfying = []
    while len(satisfying) < pool:
        lam = rng.uniform(0.2, 2.0, 3)
        if 2 * lam.max() <= lam.sum():
            satisfying.append(lam)

    def stratified(cands):
        cands = sorted(cands, key=lambda lam: 2 * lam.max() / lam.sum())
        block = len(cands) // count
        return [cands[i * block + int(rng.integers(block))] for i in range(count)]

    cases = []
    for cls, chosen in ((False, stratified(violating)), (True, stratified(satisfying))):
        for i, lam in enumerate(chosen):
            p = MINIMIZER_PS[i % len(MINIMIZER_PS)]
            cases.append((tuple(float(x) for x in lam), p, int(rng.integers(1 << 31)), cls))
    # Interleave the classes so every prefix of the list mixes both.
    half = len(cases) // 2
    return [c for pair in zip(cases[:half], cases[half:]) for c in pair]


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Generate a workload's inputs from its seed; writes its matrix files."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def campaign(n, p, trials, mode="euclidean-points"):
        return {
            "n": n, "p": p, "trials": trials, "seed": int(rng.integers(1 << 31)),
            "matrix_mode": mode,
        }

    def fuzz_warmup(prop, n, p, trials):
        cfg = fuzz.TrialConfig(**campaign(n, p, trials))
        return lambda: fuzz.run_fuzz(prop, cfg, threads=1)

    if name == "fuzz-batched":
        t = 1024 if tiny else 16384
        ops = [FuzzOp("triangle", campaign(6, 2.5, t, mode)) for mode in
               ("euclidean-points", "repaired-random", "zero-one")]
        # Violations are rare at p=1.5, n=4 (about 3 in 10^4 trials, so a
        # 16384-trial campaign finds none on about 1 seed in 100).  At 65536
        # trials about 19 are expected and none is found with probability
        # about 6e-9, so the gate does not depend on the seed.  The campaign
        # keeps its full size even in the smoke run.
        ops.append(FuzzOp("triangle", campaign(4, 1.5, 65536), expect_violation=True))
        ops += [
            FuzzOp("minorial", campaign(6, 2.0, t)),
            FuzzOp("convexity", campaign(6, 2.0, t)),
            FuzzOp("convexity", campaign(6, 3.0, t)),
            FuzzOp("projector", campaign(5, 2.0, t)),
            FuzzOp("w1", campaign(6, 2.0, t)),
        ]
        return Workload(name, [ops], fuzz_warmup("triangle", 6, 2.5, 512))

    if name == "fuzz-wide":
        m64 = os.path.join(workdir, "euclidean-64.json")
        m200 = os.path.join(workdir, "euclidean-200.json")
        fileio.save_matrix(m64, _euclidean_matrix(rng, 64))
        fileio.save_matrix(m200, _euclidean_matrix(rng, 120 if tiny else 200))
        s = 8 if tiny else 1
        ops = [
            FuzzOp("triangle", campaign(32, 2.5, 2048 // s, "repaired-random")),
            FuzzOp("minorial", campaign(24, 2.0, 1024 // s)),
            FuzzOp("convexity", campaign(16, 2.0, 2048 // s)),
            CliFuzzOp(m64, "triangle", 2.5, 1024 // s, int(rng.integers(1 << 31))),
            CliValidateOp(m200),
        ]
        return Workload(name, [ops], fuzz_warmup("minorial", 24, 2.0, 64))

    if name == "fuzz-reduction":
        # One campaign per pass: a 1024-trial campaign (two chunks, so the
        # second thread has work) takes seconds on this path.  The four
        # configurations cost the same per trial.
        t = 64 if tiny else 1024
        rotation = [
            [FuzzOp("reduction", campaign(6, p, t, mode))]
            for p in (2.0, 3.0)
            for mode in ("euclidean-points", "repaired-random")
        ]
        return Workload(name, rotation, fuzz_warmup("reduction", 6, 2.0, 8))

    cases = _weight_cases(rng, 1 if tiny else 4)
    warm = (1.0, 1.0, 1.0)
    return Workload(
        name,
        [[SolveBatch(cases)]],
        lambda: optimize.minimize_defect_n3(warm, 2.0, restarts=MINIMIZER_RESTARTS, iterations=20),
    )
