"""Seeded fuzz campaigns over the metric and minor inequalities.

A 512-trial draw block (``CHUNK_TRIALS``) is the stream key: block c draws
all its randomness from an independent Philox stream keyed (seed, c), and is
the unit handed to a worker thread, so campaigns are bit-reproducible for a
fixed seed regardless of how many threads run the blocks.  Aggregation keeps
the violation count and the worst defect with the smallest trial index, both
of which are order-independent reductions.

Each block runs sample -> kernel -> reduce and witness.  The kernels are the
batched ones in ``checks`` that the scalar verifiers also run, so
``reevaluate_witness`` re-checks a witness with the code that found it.  A
kernel slice is the unit of compute: a block's kernel runs over consecutive
row slices of ``metric._slice_rows(width)`` rows, ``width`` being the
kernel's elements per row (C(n,2) for the triangle and reduction kernels,
C(n,3) for the others), so its temporaries stay near ``metric._BUDGET``
elements whatever n is.  The slice size depends on n alone, and a kernel
row's bits do not depend on how many rows share the call, so slicing leaves
every report unchanged.

A triangle chunk from ``_SCREEN_MIN_PAIRS`` = 36 pairs (n >= 9) on first
screens its rows.  Every row gets a certified interval around the defect the
exact kernel would give it, from two quadratic forms per distance that take
one BLAS product for a fixed matrix (``metric._minor_sum_bounds``) and
interval arithmetic through the p-th root, sum - 2 max and the normalization
(``checks._triangle_bounds``).  Only rows that could hold the chunk's worst
defect or whose verdict the interval leaves open (and rows with a non-finite
end) go to the exact kernel, which stays the only evaluator of every number
in a report; the rows whose interval lies below -tolerance count as
violations without it.  So reports keep their bytes, and a random chunk
leaves about one row to the kernel instead of 512.

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
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from ._version import __version__
from .checks import (
    HODGE_RESIDUAL_TOL,
    MU_CONSISTENCY_TOL,
    SUBSPACE_SAMPLES,
    _check_shape,
    _convexity_rows,
    _minorial_rows,
    _projector_rows,
    _reduction_report,
    _reduction_rows,
    _subspace_draws,
    _triangle_bounds,
    _triangle_rows,
    _w1_rows,
    _weighted_rows,
    check_orthonormal_reduction,
    check_projector_inequality,
    triangle_defect,
)
from .exterior import Bivector, pair_indices
from .fileio import _c2l, _complex_rows, _m2l, _number_rows, _object, get_field
from .metric import DistanceMatrix, _check_exponent, _in_slices, _minor_sum_bounds, pair_weights
from .sampling import (
    MATRIX_MODES,
    _orthonormalize_triples,
    _symmetric_from_pairs,
    distance_matrices_batch,
    orthonormal_triples_batch,
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
    def from_dict(cls, d: dict, where: str = "trial config") -> "TrialConfig":
        """Config from a JSON object; a missing, mistyped or unknown field raises ValueError naming ``where``."""
        unknown = sorted(set(_object(d, where)) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
        return cls(
            n=get_field(d, "n", int, where),
            p=get_field(d, "p", float, where),
            trials=get_field(d, "trials", int, where),
            seed=get_field(d, "seed", int, where),
            matrix_mode=get_field(d, "matrix_mode", str, where, cls.matrix_mode),
            tolerance=get_field(d, "tolerance", float, where, cls.tolerance),
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
    if not (0 < cfg.tolerance < math.inf):
        raise ValueError("tolerance must be positive and finite")
    _check_exponent(cfg.p)
    if prop in ("minorial", "convexity", "projector", "reduction", "w1") and cfg.n < 3:
        raise ValueError(f"property {prop!r} needs dimension >= 3")
    if prop == "convexity" and cfg.p < 2:
        raise ValueError("convexity fuzzing uses powersum in its concave regime, p >= 2")
    if matrix is not None:
        if prop not in ("triangle", "reduction"):
            raise ValueError(f"property {prop!r} reads no distance matrix, so a fixed one would be ignored")
        if cfg.matrix_mode != "user-supplied":
            raise ValueError("a fixed matrix requires matrix_mode='user-supplied'")
        if matrix.n != cfg.n:
            raise ValueError(f"matrix size {matrix.n} does not match n={cfg.n}")
    elif cfg.matrix_mode == "user-supplied":
        raise ValueError("matrix_mode='user-supplied' needs a matrix")
    elif cfg.matrix_mode not in MATRIX_MODES:
        raise ValueError(f"unknown matrix mode {cfg.matrix_mode!r}")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _triples(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


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


# Pair count C(n,2) from which a triangle chunk screens its rows before the
# exact kernel (``_triangle_candidates``).  Whole 512-row chunks, screened
# time over the time with the exact kernel on every row, over the drawn and
# a fixed matrix, one thread of a 2-core AVX-512 host: 1.0-1.7 at n = 6 (15 pairs), 0.7-1.5 at n = 7,
# 0.6-1.1 at n = 8, 0.5-0.7 at n = 9 (36 pairs), 0.3-0.5 at n = 16 and
# 0.1-0.9 at n = 64, where a drawn matrix's closure dominates the chunk.
_SCREEN_MIN_PAIRS = 36


def _triangle_candidates(cfg: TrialConfig, entries, mats, variants, ok):
    """(rows, violations): the rows the exact kernel must evaluate, and the violations decided without it.

    Every row gets a certified interval around the defect the exact kernel
    would give it (``metric._minor_sum_bounds``, ``checks._triangle_bounds``),
    the smaller of its raw and orthonormal variants.  A row can hold the
    chunk's worst defect only if its lower end is at most the smallest upper
    end, and its verdict is open only if its interval straddles -tolerance;
    those rows and every row with a non-finite end are candidates.  Of the
    others, the rows whose upper end is below -tolerance are violations.
    """
    n, p, tol = cfg.n, cfg.p, cfg.tolerance
    count, width = len(mats), 9 * len(variants) * n  # (a, Re c, Im c) rows per pair

    def bounds(w, *rows):  # the pairs (x, y), (x, z), (y, z) of every variant
        triples = [rows[i : i + 3] for i in range(0, len(rows), 3)]
        left = np.stack([s for a, b, _ in triples for s in (a, a, b)], axis=1)
        right = np.stack([s for _, b, c in triples for s in (b, c, c)], axis=1)
        return _minor_sum_bounds(w, left, right)

    states = [s for triple in variants for s in triple]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite end makes a candidate
        if entries is None:
            lo, hi = _in_slices(lambda m, *rows: bounds(m**p, *rows), n * n + width, mats, *states)
        else:
            lo, hi = _in_slices(partial(bounds, entries**p), width, *states)
        lo, hi = _triangle_bounds(lo.reshape(count, -1, 3), hi.reshape(count, -1, 3), p)
    finite = np.isfinite(lo) & np.isfinite(hi)
    if ok is not None:  # a degenerate orthonormal variant has defect +inf
        lo[:, 1] = np.where(ok, lo[:, 1], np.inf)
        hi[:, 1] = np.where(ok, hi[:, 1], np.inf)
        finite[:, 1] |= ~ok
    finite = finite.all(axis=1)
    lo, hi = lo.min(axis=1), hi.min(axis=1)
    top = np.min(np.where(finite, hi, np.inf))
    open_ = ~finite | (lo <= top) | ((lo < -tol) & (hi >= -tol))
    return np.flatnonzero(open_), int(np.count_nonzero(~open_ & (hi < -tol)))


def _chunk_triangle(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    n, p = cfg.n, cfg.p
    mats, x, y, z = _matrix_triple_batch(cfg, entries, chunk, count)
    variants, ok = [(x, y, z)], None
    if n >= 3:
        u, v, w, ok = _orthonormalize_triples(x, y, z)
        variants.append((u, v, w))
    rows, screened = slice(None), 0
    if _pairs(n) >= _SCREEN_MIN_PAIRS:
        rows, screened = _triangle_candidates(cfg, entries, mats, variants, ok)
    wts = pair_weights(mats[rows], p)

    def kernel(wt, a, b, c):
        return _triangle_rows(wt, p, a, b, c)

    def norm_defect(a, b, c):
        slack, dmax, d = _in_slices(kernel, _pairs(n), wts, a[rows], b[rows], c[rows])
        return slack / np.maximum(1.0, dmax), d

    defect, raw_d = norm_defect(x, y, z)
    variant_ortho = np.zeros(len(defect), dtype=bool)
    if ok is not None:
        defect_o, ortho_d = norm_defect(u, v, w)
        defect_o = np.where(ok[rows], defect_o, np.inf)
        variant_ortho = defect_o < defect
        defect = np.minimum(defect, defect_o)

    violations, sub, worst, _ = _worst(cfg, chunk, defect)
    local = int(np.arange(count)[rows][sub])
    trial = chunk * CHUNK_TRIALS + local
    if variant_ortho[sub]:
        states, dists, variant = (u, v, w), ortho_d, "orthonormal"
    else:
        states, dists, variant = (x, y, z), raw_d, "raw"
    witness = {
        "trial": trial,
        "variant": variant,
        "n": n,
        "p": float(p),
        "matrix": _m2l(mats[local]),
        "x": _c2l(states[0][local]),
        "y": _c2l(states[1][local]),
        "z": _c2l(states[2][local]),
        "distances": [float(d) for d in dists[sub]],
        "defect": worst,
    }
    return _ChunkOutcome(screened + violations, worst, trial, witness)


def _ortho_weight_batch(cfg: TrialConfig, chunk: int, count: int):
    rng = trial_rng(cfg.seed, chunk)
    u, v, w, ok = orthonormal_triples_batch(rng, count, cfg.n)
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
    lower, upper = _in_slices(_minorial_rows, _triples(cfg.n), a, u, v, w)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, np.minimum(lower, upper), np.inf))
    extra = {"lower": float(lower[local]), "upper": float(upper[local]), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


# Shapes fuzzed by the convexity campaign; "sum" is the w1 identity.
_FUZZ_SHAPES = ("max", "min", "powersum")


def _chunk_convexity(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    u, v, w, ok, a = _ortho_weight_batch(cfg, chunk, count)
    stacked = _in_slices(partial(_convexity_rows, _FUZZ_SHAPES, p=cfg.p), _triples(cfg.n), a, u, v, w)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, stacked.min(axis=-1), np.inf))
    fname = _FUZZ_SHAPES[int(stacked[local].argmin())]
    extra = {"fname": fname, "p": float(cfg.p), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


def _chunk_w1(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    u, v, w, ok, a = _ortho_weight_batch(cfg, chunk, count)
    lhs, rhs, residual = _in_slices(_w1_rows, _triples(cfg.n), a, u, v, w)
    violations, local, worst, trial = _worst(cfg, chunk, np.where(ok, -residual, np.inf))
    extra = {"lhs": float(lhs[local]), "rhs": float(rhs[local]), "residual": float(residual[local]), "defect": worst}
    return _ChunkOutcome(violations, worst, trial, _witness_triple(cfg, a, u, v, w, local, trial, extra))


def _chunk_projector(cfg: TrialConfig, entries, chunk: int, count: int) -> _ChunkOutcome:
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    npairs = _pairs(n)
    b = states_batch(rng, count, npairs)  # unit bivectors: unit vectors over the pairs
    v = states_batch(rng, count, n)
    mask = rng.random((count, npairs)) < 0.5
    outer, inner = _in_slices(_projector_rows, _triples(n), b, v, mask)
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

    def kernel(wts, x, y, z, draws):
        return _reduction_rows(wts, cfg.p, x, y, z, draws, cfg.tolerance)

    rows = _in_slices(kernel, _pairs(cfg.n), pair_weights(mats, cfg.p), x, y, z, draws)
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
    """Recompute a witness defect, bit for bit, from its serialized inputs alone.

    A missing or mistyped field raises ValueError; inputs are checked, never repaired."""
    where = f"{prop} witness"
    w = _object(witness, where)
    if prop == "projector":
        b = Bivector(get_field(w, "n", int, where), _complex_rows(w, "bivector", where))
        _number_rows(w, "pairs", where)  # a list of lists; the verifier checks each pair
        d = check_projector_inequality(w["pairs"], b, _complex_rows(w, "v", where))
        return min(d.outer, d.inner)
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    x, y, z = (_complex_rows(w, k, where) for k in ("x", "y", "z"))
    if prop in ("triangle", "reduction"):
        e, p = _number_rows(w, "matrix", where), get_field(w, "p", float, where)
    if prop == "triangle":
        d, dmax = triangle_defect(e, p, x, y, z)
        return d / max(1.0, dmax)
    if prop == "reduction":
        tol = get_field(w, "tolerance", float, where)
        stream = {k: get_field(w, k, int, where) for k in ("inner_seed", "inner_stream")}
        r = check_orthonormal_reduction(e, p, x, y, z, **stream, tol=tol)
        return float(_reduction_defect(r.hodge_residual, r.mu_residual, r.spectral_margin, r.subspace_fuzz_ok, tol))
    rows = _weighted_rows(_number_rows(w, "weights", where), x, y, z)
    if prop == "minorial":
        return float(np.minimum(*_minorial_rows(*rows))[0])
    if prop == "convexity":
        fname, p = get_field(w, "fname", str, where), get_field(w, "p", float, where)
        _check_shape(fname, p)
        return float(_convexity_rows((fname,), *rows, p)[0, 0])
    return -float(_w1_rows(*rows)[2][0])
