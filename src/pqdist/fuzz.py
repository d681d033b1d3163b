"""Seeded fuzz campaigns over the metric and minor inequalities.

A 512-trial draw block (``CHUNK_TRIALS``) is the stream key: block c draws
all its randomness from independent Philox streams keyed (seed, c) and, for
the reduction's subspace samples, (seed, 2^32 + c).  It is the unit handed
to a worker thread, so campaigns are bit-reproducible for a fixed seed
regardless of how many threads run the blocks.  A block's result is one
(violations, witness) pair from ``_outcome``, the one rule that counts
violations and picks the worst row, and ``run_fuzz`` folds the pairs with
``_merge`` in block order as they arrive, two blocks per worker in flight, so
a campaign's memory does not grow with its trial count.

Each block runs sample -> kernel -> reduce and witness; its distance matrices
are C(n,2) pair values, expanded to n x n only where one is read.  The kernels are the
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
in a report.  Its defects overwrite those rows' upper ends, and ``_outcome``
reduces that column like any other: an upper end below -tolerance is a
violation, and an upper end left in place is never the worst.  So reports
keep their bytes, and a random chunk leaves about one row to the kernel
instead of 512.  A reduction chunk screens its 16 subspace samples per row
the same way, in the 3-space of each triple (``checks._reduction_rows``):
only a row that some sample's interval leaves open goes to the judge, the
C^n product and triangle kernel that decided every sample before.

Each property is one row of ``_TABLE``: its chunk, its witness replay, its
smallest n and whether it reads a distance matrix.  Its defect (nonnegative
means the property held) is one function that the chunk and the replay both
call: ``_triangle_defect``, ``_minorial_defect``, ``_convexity_defect``,
``_w1_defect``, ``np.minimum`` of the two projector gaps, ``_reduction_defect``.
"""

from __future__ import annotations

import ctypes
import math
import os
import time
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial, reduce

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
from .metric import DistanceMatrix, _check_exponent, _in_slices, _minor_sum_bounds, _symmetric_from_pairs
from .sampling import (
    CHUNK_TRIALS,
    MATRIX_MODES,
    _orthonormalize_triples,
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

# Streams below this base index belong to chunk sampling; a reduction chunk c
# draws all its trials' subspace samples in one call from stream base + c.
_REDUCTION_STREAM_BASE = 1 << 32


def _pin_malloc_thresholds() -> None:
    """Keep freed chunk memory in the process; a no-op where glibc's ``mallopt`` is missing.

    glibc hands the free top of its heap back after a chunk, so the next one
    faults the same pages in again.  Fixing the mmap and trim thresholds at
    the ceilings of glibc's own dynamic rule on 64-bit turns that rule off.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


_KINDS = {"int": int, "float": float, "str": str}  # a field's kind by its annotation, a string here


def _as_dict(obj) -> dict:
    """Dataclass ``obj``'s fields in order, each number or string cast to its annotated kind."""
    return {f.name: _KINDS.get(f.type, lambda v: v)(getattr(obj, f.name)) for f in fields(obj)}


@dataclass(frozen=True)
class TrialConfig:
    n: int
    p: float
    trials: int
    seed: int
    matrix_mode: str = "euclidean-points"
    tolerance: float = 1e-9

    to_dict = _as_dict

    @classmethod
    def from_dict(cls, d: dict, where: str = "trial config") -> "TrialConfig":
        """Config from a JSON object; a missing, mistyped or unknown field raises ValueError naming ``where``."""
        unknown = sorted(set(_object(d, where)) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
        return cls(**{f.name: get_field(d, f.name, _KINDS[f.type], where, f.default) for f in fields(cls)})


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
        doc = {**_as_dict(self), "config": self.config.to_dict()}
        if (matrix := doc.pop("matrix")) is not None:
            doc["config"]["matrix"] = matrix
        return _finite_or_none(doc)


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
    """Chunk worker threads; PQDIST_THREADS caps the default.  Anything but an integer >= 1 raises ValueError."""
    env = os.environ.get("PQDIST_THREADS")
    if explicit is None and not env:
        return os.cpu_count() or 1
    value, name = (explicit, "--threads/threads") if explicit is not None else (env, "PQDIST_THREADS")
    try:
        count = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def _validate(prop: str, cfg: TrialConfig, matrix) -> None:
    if prop not in _TABLE:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 < cfg.tolerance < math.inf):
        raise ValueError("tolerance must be positive and finite")
    _check_exponent(cfg.p)
    if cfg.n < _TABLE[prop].min_n:
        raise ValueError(f"property {prop!r} needs dimension >= {_TABLE[prop].min_n}")
    if prop == "convexity":  # its shapes include powersum, which needs p >= 2
        _check_shape("powersum", cfg.p)
    if matrix is not None:
        if not _TABLE[prop].reads_matrix:
            raise ValueError(f"property {prop!r} reads no distance matrix, so a fixed one would be ignored")
        if cfg.matrix_mode != "user-supplied":
            raise ValueError("a fixed matrix requires matrix_mode='user-supplied'")
        if matrix.n != cfg.n:
            raise ValueError(f"matrix size {matrix.n} does not match n={cfg.n}")
    elif cfg.matrix_mode == "user-supplied":
        raise ValueError("matrix_mode='user-supplied' needs a matrix")
    elif cfg.matrix_mode not in MATRIX_MODES:
        raise ValueError(f"unknown matrix mode {cfg.matrix_mode!r}")


# A property's chunk (cfg, entries, chunk index, row count) -> (violations, witness), its witness
# replay (witness object, where) -> defect, its smallest n and whether it reads a distance matrix.
_Property = namedtuple("_Property", "chunk replay min_n reads_matrix", defaults=(3, False))


def _outcome(cfg: TrialConfig, chunk: int, defects: np.ndarray, fields) -> tuple[int, dict]:
    """(violations, witness) of a chunk: a NaN defect counts, and the witness of the first
    smallest row holds its trial index, ``fields(row)`` and its defect."""
    local = int(np.argmin(defects))
    witness = {"trial": chunk * CHUNK_TRIALS + local, **fields(local), "defect": float(defects[local])}
    return int(np.count_nonzero(~(defects >= -cfg.tolerance))), witness


def _merge(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    """Two chunk results as one: the summed violations and the witness ``min`` keeps by
    (defect, trial), so the earlier one on a NaN."""
    (va, wa), (vb, wb) = a, b
    return va + vb, wb if (wb["defect"], wb["trial"]) < (wa["defect"], wa["trial"]) else wa


def _xyz(states, local: int) -> dict:
    return {"x": _c2l(states[0][local]), "y": _c2l(states[1][local]), "z": _c2l(states[2][local])}


def _matrix_triple_batch(cfg: TrialConfig, entries, chunk: int, count: int):
    """Distance matrices as (count, C(n,2)) pair values (drawn, or the user's broadcast) and three state rows."""
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    if entries is None:
        pairs = distance_matrices_batch(rng, count, n, cfg.matrix_mode)
    else:
        pairs = np.broadcast_to(entries[pair_indices(n)], (count, math.comb(n, 2)))
    x, y, z = (states_batch(rng, count, n) for _ in range(3))
    return pairs, x, y, z


# Pair count C(n,2) from which a triangle chunk screens its rows before the
# exact kernel (``_triangle_candidates``).  Whole 512-row chunks, screened
# time over the time with the exact kernel on every row, over the drawn and
# a fixed matrix, one thread of a 2-core AVX-512 host: 1.0-1.7 at n = 6 (15 pairs), 0.7-1.5 at n = 7,
# 0.6-1.1 at n = 8, 0.5-0.7 at n = 9 (36 pairs), 0.3-0.5 at n = 16, and at n = 64
# 0.12 with a fixed matrix and 0.49-0.56 with drawn ones, whose draw is 15-41% of an exact chunk.
_SCREEN_MIN_PAIRS = 36


def _triangle_candidates(cfg: TrialConfig, entries, pairs, variants):
    """(rows, hi): the rows the exact kernel must evaluate, and every row's upper bound on its defect.

    Every row gets a certified interval around the defect the exact kernel
    would give it (``metric._minor_sum_bounds``, ``checks._triangle_bounds``),
    the smallest over its ``variants`` (``_triangle_variants``).  A row can
    hold the chunk's worst defect only if its lower end is at most the
    smallest upper end, and its verdict is open only if its interval straddles
    -tolerance; those rows and every row with a non-finite end are candidates.
    Any other row's finite upper end lies above the smallest exact defect and
    on the same side of -tolerance as its exact defect.
    """
    n, p, tol = cfg.n, cfg.p, cfg.tolerance
    count, width = len(pairs), 9 * len(variants) * n  # (a, Re c, Im c) rows per pair

    def bounds(w, *rows):  # the pairs (x, y), (x, z), (y, z) of every variant
        triples = [rows[i : i + 3] for i in range(0, len(rows), 3)]
        left = np.stack([s for a, b, _ in triples for s in (a, a, b)], axis=1)
        right = np.stack([s for _, b, c in triples for s in (b, c, c)], axis=1)
        return _minor_sum_bounds(w, left, right)

    states = [s for triple in variants for s in triple]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite end makes a candidate
        if entries is None:  # a slice's pair values raised to p, then expanded
            lo, hi = _in_slices(
                lambda w, *s: bounds(_symmetric_from_pairs(w**p, n), *s), n * n + width, pairs, *states
            )
        else:
            lo, hi = _in_slices(partial(bounds, entries**p), width, *states)
        lo, hi = _triangle_bounds(lo.reshape(count, -1, 3), hi.reshape(count, -1, 3), p)
    finite = (np.isfinite(lo) & np.isfinite(hi)).all(axis=1)
    lo, hi = lo.min(axis=1), hi.min(axis=1)
    top = np.min(np.where(finite, hi, np.inf))
    open_ = ~finite | (lo <= top) | ((lo < -tol) & (hi >= -tol))
    return np.flatnonzero(open_), hi


def _triangle_defect(slack, dmax):
    return slack / np.maximum(1.0, dmax)


def _triangle_variants(x, y, z) -> list:
    """The raw triples and, from n = 3 on, their Gram-Schmidt orthonormalization.  On a degenerate
    row (a residual below 1e-8) the orthonormal variant is the raw triple, so the raw one decides it."""
    if x.shape[1] < 3:
        return [(x, y, z)]
    u, v, w, ok = _orthonormalize_triples(x, y, z)
    bad = np.flatnonzero(~ok)  # almost always empty; a masked copy of all rows slowed n >= 32 by 3-5%
    u[bad], v[bad], w[bad] = x[bad], y[bad], z[bad]
    return [(x, y, z), (u, v, w)]


def _chunk_triangle(cfg: TrialConfig, entries, chunk: int, count: int) -> tuple[int, dict]:
    n, p = cfg.n, cfg.p
    pairs, x, y, z = _matrix_triple_batch(cfg, entries, chunk, count)
    variants = _triangle_variants(x, y, z)
    rows, hi = slice(None), np.empty(count)
    if math.comb(n, 2) >= _SCREEN_MIN_PAIRS:
        rows, hi = _triangle_candidates(cfg, entries, pairs, variants)
    wts = pairs[rows] ** p

    def kernel(wt, a, b, c):
        slack, dmax, d = _triangle_rows(wt, p, a, b, c)
        return _triangle_defect(slack, dmax), d

    defects, dists = zip(*[_in_slices(kernel, math.comb(n, 2), wts, *(s[rows] for s in v)) for v in variants])
    hi[rows] = np.minimum.reduce(defects)

    def fields(local):
        sub = int(np.searchsorted(np.arange(count)[rows], local))  # the row among the candidates
        k = min(range(len(variants)), key=lambda i: defects[i][sub])  # raw on a tie or a NaN
        return {
            "variant": ("raw", "orthonormal")[k],
            "n": n,
            "p": float(p),
            "matrix": _m2l(_symmetric_from_pairs(pairs[local], n)),
            **_xyz(variants[k], local),
            "distances": [float(d) for d in dists[k][sub]],
        }

    return _outcome(cfg, chunk, hi, fields)


def _replay_triangle(w: dict, where: str):
    x, y, z = (_complex_rows(w, k, where) for k in ("x", "y", "z"))
    e, p = _number_rows(w, "matrix", where), get_field(w, "p", float, where)
    return _triangle_defect(*triangle_defect(e, p, x, y, z))


def _chunk_weighted(kernel, defect, cfg: TrialConfig, entries, chunk: int, count: int) -> tuple[int, dict]:
    """Chunk of orthonormal triples under random pair weights.  ``kernel(p)`` is the row kernel, and
    ``defect(p, *its outputs)`` gives every row's defect and a function from a row to its witness fields."""
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    u, v, w, ok = _orthonormalize_triples(*(states_batch(rng, count, n) for _ in range(3)))
    a = pair_weights_batch(rng, count, n, "zero-one" if cfg.matrix_mode == "zero-one" else "uniform")
    defects, fields = defect(cfg.p, *_in_slices(kernel(cfg.p), math.comb(n, 3), a, u, v, w))
    return _outcome(cfg, chunk, np.where(ok, defects, np.inf), lambda local: {
        "n": n,
        "weights": _m2l(_symmetric_from_pairs(a[local], n)),
        **_xyz((u, v, w), local),
        **fields(local),
    })


def _replay_weighted(kernel, defect, w: dict, where: str, p=None):
    x, y, z = (_complex_rows(w, k, where) for k in ("x", "y", "z"))
    return defect(p, *kernel(p)(*_weighted_rows(_number_rows(w, "weights", where), x, y, z)))[0][0]


def _weighted(kernel, defect, replay=None) -> _Property:
    """Table row of a property of orthonormal triples under random pair weights."""
    return _Property(partial(_chunk_weighted, kernel, defect), replay or partial(_replay_weighted, kernel, defect))


def _minorial_defect(p, lower, upper):
    return np.minimum(lower, upper), lambda i: {"lower": float(lower[i]), "upper": float(upper[i])}


# Shapes fuzzed by the convexity campaign; "sum" is the w1 identity.
_FUZZ_SHAPES = ("max", "min", "powersum")


def _convexity_kernel(p, shapes=_FUZZ_SHAPES):
    return lambda a, x, y, z: (_convexity_rows(shapes, a, x, y, z, p),)  # one output: (count, len(shapes))


def _convexity_defect(p, stacked):
    return stacked.min(axis=-1), lambda i: {"fname": _FUZZ_SHAPES[int(stacked[i].argmin())], "p": float(p)}


def _replay_convexity(w: dict, where: str):
    fname, p = get_field(w, "fname", str, where), get_field(w, "p", float, where)
    _check_shape(fname, p)
    return _replay_weighted(partial(_convexity_kernel, shapes=(fname,)), _convexity_defect, w, where, p)


def _w1_defect(p, lhs, rhs, residual):
    return -residual, lambda i: {"lhs": float(lhs[i]), "rhs": float(rhs[i]), "residual": float(residual[i])}


def _chunk_projector(cfg: TrialConfig, entries, chunk: int, count: int) -> tuple[int, dict]:
    rng = trial_rng(cfg.seed, chunk)
    n = cfg.n
    npairs = math.comb(n, 2)
    b = states_batch(rng, count, npairs)  # unit bivectors: unit vectors over the pairs
    v = states_batch(rng, count, n)
    mask = rng.random((count, npairs)) < 0.5
    outer, inner = _in_slices(_projector_rows, math.comb(n, 3), b, v, mask)
    pi, pj = pair_indices(n)
    return _outcome(cfg, chunk, np.minimum(outer, inner), lambda local: {
        "n": n,
        "pairs": [[int(i), int(j)] for i, j in zip(pi[mask[local]], pj[mask[local]])],
        "bivector": _c2l(b[local]),
        "v": _c2l(v[local]),
        "outer": float(outer[local]),
        "inner": float(inner[local]),
    })


def _replay_projector(w: dict, where: str):
    b = Bivector(get_field(w, "n", int, where), _complex_rows(w, "bivector", where))
    _number_rows(w, "pairs", where)  # a list of lists; the verifier checks each pair
    return np.minimum(*check_projector_inequality(w["pairs"], b, _complex_rows(w, "v", where)))


def _reduction_defect(hodge_residual, mu_residual, spectral_margin, fuzz_ok, tol: float):
    residual = np.maximum(hodge_residual / HODGE_RESIDUAL_TOL, mu_residual / MU_CONSISTENCY_TOL)
    d = np.minimum(spectral_margin, -tol * residual)
    return np.where((spectral_margin >= -tol) != fuzz_ok, np.minimum(d, -2.0 * tol), d)


def _chunk_reduction(cfg: TrialConfig, entries, chunk: int, count: int) -> tuple[int, dict]:
    pairs, x, y, z = _matrix_triple_batch(cfg, entries, chunk, count)
    stream = _REDUCTION_STREAM_BASE + chunk
    draws = trial_rng(cfg.seed, stream).standard_normal((count, SUBSPACE_SAMPLES, 2, 3, 3))

    def kernel(wts, x, y, z, draws):
        return _reduction_rows(wts, cfg.p, x, y, z, draws, cfg.tolerance)

    rows = _in_slices(kernel, math.comb(cfg.n, 2), pairs**cfg.p, x, y, z, draws)

    def fields(local):
        rep = _reduction_report(rows, local, cfg.tolerance)
        return {
            "n": cfg.n,
            "p": float(cfg.p),
            "matrix": _m2l(_symmetric_from_pairs(pairs[local], cfg.n)),
            **_xyz((x, y, z), local),
            "inner_seed": int(cfg.seed),
            "inner_stream": stream,
            "inner_row": local,
            "tolerance": float(cfg.tolerance),
            "hodge_residual": rep.hodge_residual,
            "mu_residual": rep.mu_residual,
            "spectral_margin": rep.spectral_margin,
            "verdict": bool(rep.verdict),
        }

    return _outcome(cfg, chunk, _reduction_defect(*rows[1:], cfg.tolerance), fields)


def _replay_reduction(w: dict, where: str):
    x, y, z = (_complex_rows(w, k, where) for k in ("x", "y", "z"))
    e, p = _number_rows(w, "matrix", where), get_field(w, "p", float, where)
    tol = get_field(w, "tolerance", float, where)
    stream = {k: get_field(w, k, int, where) for k in ("inner_seed", "inner_stream")}
    row = get_field(w, "inner_row", int, where, 0)  # absent in witnesses drawn one stream per trial
    r = check_orthonormal_reduction(e, p, x, y, z, **stream, inner_row=row, tol=tol)
    return _reduction_defect(r.hodge_residual, r.mu_residual, r.spectral_margin, r.subspace_fuzz_ok, tol)


_TABLE = {
    "triangle": _Property(_chunk_triangle, _replay_triangle, min_n=2, reads_matrix=True),
    "minorial": _weighted(lambda p: _minorial_rows, _minorial_defect),
    "convexity": _weighted(_convexity_kernel, _convexity_defect, _replay_convexity),
    "projector": _Property(_chunk_projector, _replay_projector),
    "reduction": _Property(_chunk_reduction, _replay_reduction, reads_matrix=True),
    "w1": _weighted(lambda p: _w1_rows, _w1_defect),
}
PROPERTIES = tuple(_TABLE)
# Chunk callables by property, looked up on every campaign so a caller may wrap them.
_KERNELS = {prop: row.chunk for prop, row in _TABLE.items()}


def _in_window(pool, run, counts, window: int):
    """``run(c, count)`` for the c-th ``count`` of the iterable ``counts`` on ``pool`` in chunk order,
    with at most ``window`` chunks submitted and not yet taken."""
    pending = deque()
    for c, count in enumerate(counts):
        pending.append(pool.submit(run, c, count))
        if len(pending) == window:
            yield pending.popleft().result()
    yield from (future.result() for future in pending)


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
    run = partial(_KERNELS[prop], cfg, entries)  # (chunk index, row count) -> (violations, witness)
    counts = (min(CHUNK_TRIALS, cfg.trials - first) for first in range(0, cfg.trials, CHUNK_TRIALS))

    start = time.perf_counter()
    workers = min(thread_count(threads), -(-cfg.trials // CHUNK_TRIALS))
    # chunk results are merged in chunk order as they arrive, each dropped once merged; two
    # chunks per worker in flight keep the workers busy and memory flat in the trial count
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            violations, witness = reduce(_merge, _in_window(pool, run, counts, 2 * workers))
    else:
        violations, witness = reduce(_merge, (run(c, count) for c, count in enumerate(counts)))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return VerificationReport(
        property=prop,
        config=cfg,
        trials=cfg.trials,
        violations=violations,
        worst_defect=witness["defect"],
        witness=witness,
        seed=cfg.seed,
        elapsed_ms=elapsed_ms,
        matrix=_m2l(entries) if entries is not None else None,
    )


def reevaluate_witness(prop: str, witness: dict) -> float:
    """Recompute a witness defect, bit for bit, from its serialized inputs alone.

    A missing or mistyped field raises ValueError; inputs are checked, never repaired."""
    where = f"{prop} witness"
    w = _object(witness, where)
    if prop not in _TABLE:
        raise ValueError(f"unknown property {prop!r}")
    return float(_TABLE[prop].replay(w, where))
