"""Seeded fuzz campaigns over the metric and minor inequalities.

Trials are processed in fixed-size chunks; chunk c draws all its randomness
from an independent Philox stream keyed (seed, c), so campaigns are
bit-reproducible for a fixed seed regardless of how many worker threads run
the chunks.  Aggregation keeps the violation count and the worst defect with
the smallest trial index, both of which are order-independent reductions.

Each chunk runs sample -> kernel -> reduce and witness.  The kernels are the
batched ones in ``checks`` that the scalar verifiers also run, so
``reevaluate_witness`` re-checks a witness with the code that found it.

Defect conventions per property (nonnegative means the property held):

* triangle   (sum of the three distances - twice the largest) / max(1, largest)
* minorial   min(middle - lower bound, upper bound - middle)
* projector  min of the two masked-wedge gaps
* convexity  min of the signed defects for f = max, min, powersum(p)
* w1         minus the relative residual of the exact generator identity
* reduction  min of the normalized spectral margin and rescaled residual gates
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .checks import (
    HODGE_RESIDUAL_TOL,
    MU_CONSISTENCY_TOL,
    SUBSPACE_SAMPLES,
    _convexity_rows,
    _minorial_rows,
    _projector_rows,
    _reduction_report,
    _reduction_rows,
    _subspace_draws,
    _triangle_rows,
    _w1_rows,
    check_convexity,
    check_generator_identity_w1,
    check_minorial,
    check_orthonormal_reduction,
    check_projector_inequality,
    triangle_defect,
)
from .exterior import Bivector, pair_indices
from .metric import DistanceMatrix, pair_weights
from .sampling import (
    MATRIX_MODES,
    _orthonormalize_triples,
    _symmetric_from_pairs,
    distance_matrices_batch,
    pair_weights_batch,
    states_batch,
    trial_rng,
)

__all__ = [
    "CHUNK_TRIALS",
    "PROPERTIES",
    "TrialConfig",
    "VerificationReport",
    "run_fuzz",
    "reevaluate_witness",
    "thread_count",
]

CHUNK_TRIALS = 512
PROPERTIES = ("triangle", "minorial", "convexity", "projector", "reduction", "w1")

# Streams below this base index belong to chunk sampling; the reduction
# property derives one extra inner stream per trial above it.
_REDUCTION_STREAM_BASE = 1 << 32


@dataclass(frozen=True)
class TrialConfig:
    n: int
    p: float
    trials: int
    seed: int
    matrix_mode: str = "euclidean-points"
    tolerance: float = 1e-9

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "p": float(self.p),
            "trials": int(self.trials),
            "seed": int(self.seed),
            "matrix_mode": self.matrix_mode,
            "tolerance": float(self.tolerance),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialConfig":
        return cls(
            n=int(d["n"]),
            p=float(d["p"]),
            trials=int(d["trials"]),
            seed=int(d["seed"]),
            matrix_mode=d.get("matrix_mode", "euclidean-points"),
            tolerance=float(d.get("tolerance", 1e-9)),
        )


@dataclass
class VerificationReport:
    property: str
    config: TrialConfig
    trials: int
    violations: int
    worst_defect: float
    witness: dict
    seed: int
    elapsed_ms: float
    version: str = __version__
    matrix: list | None = None  # echoed entries in user-supplied mode

    def to_dict(self) -> dict:
        cfg = self.config.to_dict()
        if self.matrix is not None:
            cfg["matrix"] = self.matrix
        return _finite_or_none({
            "property": self.property,
            "config": cfg,
            "trials": int(self.trials),
            "violations": int(self.violations),
            "worst_defect": float(self.worst_defect),
            "witness": self.witness,
            "seed": int(self.seed),
            "elapsed_ms": float(self.elapsed_ms),
            "version": self.version,
        })


def _finite_or_none(obj):
    """Copy of a report body with every non-finite float, at any depth, as None
    (JSON null): NaN and Infinity are not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(v) for v in obj]
    return obj


def thread_count(explicit: int | None = None) -> int:
    """Worker threads for chunk execution; PQDIST_THREADS caps the default."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("PQDIST_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _validate(prop: str, cfg: TrialConfig, matrix) -> None:
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.n < 2:
        raise ValueError("dimension must be >= 2")
    if not (cfg.tolerance > 0):
        raise ValueError("tolerance must be positive")
    if not (cfg.p > 0):
        raise ValueError("exponent p must be positive")
    if prop in ("minorial", "convexity", "projector", "reduction", "w1") and cfg.n < 3:
        raise ValueError(f"property {prop!r} needs dimension >= 3")
    if prop == "convexity" and cfg.p < 2:
        raise ValueError("convexity fuzzing uses powersum in its concave regime, p >= 2")
    if matrix is not None:
        if cfg.matrix_mode != "user-supplied":
            raise ValueError("a fixed matrix requires matrix_mode='user-supplied'")
        if matrix.n != cfg.n:
            raise ValueError(f"matrix size {matrix.n} does not match n={cfg.n}")
    elif cfg.matrix_mode == "user-supplied":
        raise ValueError("matrix_mode='user-supplied' needs a matrix")
    elif prop in ("triangle", "reduction") and cfg.matrix_mode not in MATRIX_MODES:
        raise ValueError(f"unknown matrix mode {cfg.matrix_mode!r}")


def _c2l(v: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=complex)]


def _l2c(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _m2l(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


@dataclass
class _ChunkOutcome:
    violations: int
    worst: float
    trial: int
    witness: dict = field(default_factory=dict)


def _worst(cfg: TrialConfig, chunk: int, defects: np.ndarray) -> tuple[int, int, float, int]:
    """(violations, local index, defect, trial index) of the chunk's worst row."""
    violations = int(np.count_nonzero(~(defects >= -cfg.tolerance)))  # NaN counts
    local = int(np.argmin(defects))
    return violations, local, float(defects[local]), chunk * CHUNK_TRIALS + local


def _matrix_triple_batch(cfg: TrialConfig, entries, chunk: int, count: int):
    """Distance matrices (drawn, or the user's broadcast) and three state rows."""
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    if entries is None:
        mats = distance_matrices_batch(rng, count, n, cfg.matrix_mode)
    else:
        mats = np.broadcast_to(entries, (count, n, n))
    x, y, z = (states_batch(rng, count, n) for _ in range(3))
    return mats, x, y, z


def _chunk_triangle(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    n, p = cfg.n, cfg.p
    mats, x, y, z = _matrix_triple_batch(cfg, entries, chunk, count)
    wts = pair_weights(mats, p)

    def norm_defect(a, b, c):
        slack, dmax, d = _triangle_rows(wts, p, a, b, c)
        return slack / np.maximum(1.0, dmax), d

    defect, raw_d = norm_defect(x, y, z)
    variant_ortho = np.zeros(count, dtype=bool)
    if n >= 3:
        u, v, w, ok = _orthonormalize_triples(x, y, z)
        defect_o, ortho_d = norm_defect(u, v, w)
        defect_o = np.where(ok, defect_o, np.inf)
        variant_ortho = defect_o < defect
        defect = np.minimum(defect, defect_o)

    violations, local, worst, trial = _worst(cfg, chunk, defect)
    if variant_ortho[local]:
        rows, dists, variant = (u, v, w), ortho_d, "orthonormal"
    else:
        rows, dists, variant = (x, y, z), raw_d, "raw"
    witness = {
        "trial": trial,
        "variant": variant,
        "n": n,
        "p": float(p),
        "matrix": _m2l(mats[local]),
        "x": _c2l(rows[0][local]),
        "y": _c2l(rows[1][local]),
        "z": _c2l(rows[2][local]),
        "distances": [float(d) for d in dists[:, local]],
        "defect": worst,
    }
    return _ChunkOutcome(violations, worst, trial, witness)


def _ortho_weight_batch(cfg: TrialConfig, chunk: int, count: int):
    rng = trial_rng(cfg.seed, chunk)
    u, v, w, ok = _orthonormalize_triples(*(states_batch(rng, count, cfg.n) for _ in range(3)))
    mode = "zero-one" if cfg.matrix_mode == "zero-one" else "uniform"
    a = pair_weights_batch(rng, count, cfg.n, mode)
    return u, v, w, ok, a


def _witness_triple(cfg, a, u, v, w, local, trial, extra) -> dict:
    return {
        "trial": trial,
        "n": cfg.n,
        "weights": _m2l(_symmetric_from_pairs(a[local], cfg.n)),
        "x": _c2l(u[local]),
        "y": _c2l(v[local]),
        "z": _c2l(w[local]),
        **extra,
    }


def _chunk_minorial(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    u, v, w, ok, a = _ortho_weight_batch(cfg, chunk, count)
    lower, upper = _minorial_rows(a, u, v, w)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, np.minimum(lower, upper), np.inf))
    extra = {"lower": float(lower[local]), "upper": float(upper[local]), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


# Shapes fuzzed by the convexity campaign; "sum" is the w1 identity.
_FUZZ_SHAPES = ("max", "min", "powersum")


def _chunk_convexity(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    u, v, w, ok, a = _ortho_weight_batch(cfg, chunk, count)
    stacked = _convexity_rows(_FUZZ_SHAPES, a, u, v, w, cfg.p)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, stacked.min(axis=0), np.inf))
    fname = _FUZZ_SHAPES[int(stacked[:, local].argmin())]
    extra = {"fname": fname, "p": float(cfg.p), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


def _chunk_w1(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    u, v, w, ok, a = _ortho_weight_batch(cfg, chunk, count)
    lhs, rhs, residual = _w1_rows(a, u, v, w)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, -residual, np.inf))
    extra = {"lhs": float(lhs[local]), "rhs": float(rhs[local]), "residual": float(residual[local]), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


def _chunk_projector(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    npairs = n * (n - 1) // 2
    b = states_batch(rng, count, npairs)  # unit bivectors: unit vectors over the pairs
    v = states_batch(rng, count, n)
    mask = rng.random((count, npairs)) < 0.5
    outer, inner = _projector_rows(b, v, mask)
    violations, local, worst, trial = _worst(cfg, chunk, np.minimum(outer, inner))
    pi, pj = pair_indices(n)
    witness = {
        "trial": trial,
        "n": n,
        "pairs": [[int(i), int(j)] for i, j in zip(pi[mask[local]], pj[mask[local]])],
        "bivector": _c2l(b[local]),
        "v": _c2l(v[local]),
        "outer": float(outer[local]),
        "inner": float(inner[local]),
        "defect": worst,
    }
    return _ChunkOutcome(violations, worst, trial, witness)


def _reduction_defect(hodge_residual, mu_residual, spectral_margin, fuzz_ok, tol: float):
    residual = np.maximum(hodge_residual / HODGE_RESIDUAL_TOL, mu_residual / MU_CONSISTENCY_TOL)
    d = np.minimum(spectral_margin, -tol * residual)
    return np.where((spectral_margin >= -tol) != fuzz_ok, np.minimum(d, -2.0 * tol), d)


def _chunk_reduction(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    mats, x, y, z = _matrix_triple_batch(cfg, entries, chunk, count)
    streams = _REDUCTION_STREAM_BASE + chunk * CHUNK_TRIALS + np.arange(count)
    draws = _subspace_draws(cfg.seed, streams, SUBSPACE_SAMPLES)
    rows = _reduction_rows(pair_weights(mats, cfg.p), cfg.p, x, y, z, draws, cfg.tolerance)
    violations, local, worst, trial = _worst(cfg, chunk, _reduction_defect(*rows[1:], cfg.tolerance))
    rep = _reduction_report(rows, local, cfg.tolerance)
    witness = {
        "trial": trial,
        "n": cfg.n,
        "p": float(cfg.p),
        "matrix": _m2l(mats[local]),
        "x": _c2l(x[local]),
        "y": _c2l(y[local]),
        "z": _c2l(z[local]),
        "inner_seed": int(cfg.seed),
        "inner_stream": _REDUCTION_STREAM_BASE + trial,
        "tolerance": float(cfg.tolerance),
        "hodge_residual": rep.hodge_residual,
        "mu_residual": rep.mu_residual,
        "spectral_margin": rep.spectral_margin,
        "verdict": bool(rep.verdict),
        "defect": worst,
    }
    return _ChunkOutcome(violations, worst, trial, witness)


_KERNELS = {
    "triangle": _chunk_triangle,
    "minorial": _chunk_minorial,
    "convexity": _chunk_convexity,
    "projector": _chunk_projector,
    "reduction": _chunk_reduction,
    "w1": _chunk_w1,
}


def run_fuzz(
    prop: str,
    cfg: TrialConfig,
    *,
    matrix: DistanceMatrix | None = None,
    threads: int | None = None,
) -> VerificationReport:
    """Run a fuzz campaign; identical (property, config) pairs give identical
    reports apart from the elapsed-time field."""
    _validate(prop, cfg, matrix)
    entries = matrix.entries if matrix is not None else None
    kernel = _KERNELS[prop]
    nchunks = (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    counts = [min(CHUNK_TRIALS, cfg.trials - c * CHUNK_TRIALS) for c in range(nchunks)]

    start = time.perf_counter()
    workers = min(thread_count(threads), nchunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda c: kernel(cfg, entries, c, counts[c]), range(nchunks)))
    else:
        outcomes = [kernel(cfg, entries, c, counts[c]) for c in range(nchunks)]

    violations = sum(o.violations for o in outcomes)
    best = min(outcomes, key=lambda o: (o.worst, o.trial))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return VerificationReport(
        property=prop,
        config=cfg,
        trials=cfg.trials,
        violations=violations,
        worst_defect=best.worst,
        witness=best.witness,
        seed=cfg.seed,
        elapsed_ms=elapsed_ms,
        matrix=_m2l(entries) if entries is not None else None,
    )


def reevaluate_witness(prop: str, witness: dict) -> float:
    """Recompute a witness defect from its serialized inputs alone."""
    if prop == "projector":
        b = Bivector(int(witness["n"]), _l2c(witness["bivector"]))
        d = check_projector_inequality([tuple(pr) for pr in witness["pairs"]], b, _l2c(witness["v"]))
        return min(d.outer, d.inner)
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    x, y, z = (_l2c(witness[k]) for k in ("x", "y", "z"))
    if prop == "triangle":
        d, dmax = triangle_defect(np.asarray(witness["matrix"], dtype=float), float(witness["p"]), x, y, z)
        return d / max(1.0, dmax)
    if prop == "reduction":
        tol = float(witness["tolerance"])
        rep = check_orthonormal_reduction(
            np.asarray(witness["matrix"], dtype=float),
            float(witness["p"]),
            x,
            y,
            z,
            inner_seed=int(witness["inner_seed"]),
            inner_stream=int(witness["inner_stream"]),
            tol=tol,
        )
        return float(
            _reduction_defect(rep.hodge_residual, rep.mu_residual, rep.spectral_margin, rep.subspace_fuzz_ok, tol)
        )
    a = np.asarray(witness["weights"], dtype=float)
    if prop == "minorial":
        d = check_minorial(a, x, y, z)
        return min(d.lower, d.upper)
    if prop == "convexity":
        return check_convexity(witness["fname"], a, x, y, z, p=float(witness["p"]))
    return -check_generator_identity_w1(a, x, y, z)
