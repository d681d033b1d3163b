"""Names and units of the benchmark's workloads and metrics.

Kept free of numpy and pqdist imports so the launcher can use it before any
worker process has started.
"""

WORKLOADS = ("fuzz-batched", "fuzz-wide", "fuzz-reduction", "minimize-n3")

LAYERS = ("sampling", "exterior", "metric", "checks", "fuzz", "optimize", "fileio", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "trials_per_s.t1": "trials/s",
    "trials_per_s.t2": "trials/s",
    "peak_rss_mib": "MiB",
}

_LAYER_EXTRAS = {
    "sampling": [(f"sampling.{f}.s", "s") for f in ("states", "orthonormalize", "pair_weights", "matrices")],
    "exterior": [("exterior.gram_schmidt.s", "s"), ("exterior.hodge_basis.s", "s")],
    "metric": [
        ("metric.dp_from_weights.s", "s"),
        ("metric.dp_from_weights.calls", "count"),
        ("metric.restricted_form_eigen.s", "s"),
        ("metric.hermitian_eig3.s", "s"),
        ("metric.validate.s", "s"),
    ],
    "checks": [
        ("checks.reduction.s", "s"),
        ("checks.reduction.calls", "count"),
        ("checks.triangle_defect.s", "s"),
        ("checks.triangle_defect.calls", "count"),
        ("checks.reevaluate.s", "s"),
    ],
    "fuzz": [("fuzz.campaign.s", "s"), ("fuzz.chunks", "count"), ("fuzz.overlap", "ratio")],
    "optimize": [
        ("optimize.iterations.sum", "count"),
        ("optimize.iterations.p50", "count"),
        ("optimize.capped", "count"),
        ("optimize.s_per_iteration", "s"),
        ("optimize.solve_ms.p50", "ms"),
        ("optimize.solve_ms.tail", "ms"),
    ],
    "fileio": [("fileio.write.s", "s"), ("fileio.read.s", "s"), ("fileio.report_bytes", "bytes")],
    "cli": [("cli.main.s", "s")],
}

LAYER_UNITS = {}
for _layer in LAYERS:
    LAYER_UNITS[f"{_layer}.calls"] = "count"
    LAYER_UNITS[f"{_layer}.busy.s"] = "s"
    LAYER_UNITS[f"{_layer}.self.s"] = "s"
    LAYER_UNITS.update(_LAYER_EXTRAS[_layer])
LAYER_UNITS["trace.overhead_s"] = "s"
LAYER_UNITS["trace.spans"] = "count"
