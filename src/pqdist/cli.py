"""Command-line interface.

Exit codes are a stable contract across subcommands:
  0  success / expected outcome
  1  a property-level failure (metric axiom violated, guarantee not met)
  2  malformed input or usage error
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from . import fileio
from .checks import counterexample_p_lt_2
from .fuzz import PROPERTIES, TrialConfig, run_fuzz
from .metric import DistanceMatrix, DpMetric, _check_exponent, d_hs, d_p, embed, validate_distance_matrix
from .sampling import MATRIX_MODES

USAGE_ERROR = 2
PROPERTY_FAILURE = 1


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_validate(args) -> int:
    result = validate_distance_matrix(fileio.load_matrix(args.matrix))
    if result.ok:
        print(f"valid distance matrix (n={result.matrix.n})")
        return 0
    print(f"invalid distance matrix: {len(result.violations)} violation(s)")
    for v in result.violations:
        print(f"  {v.kind} at {v.indices}: {v.detail}")
    return PROPERTY_FAILURE


def cmd_dist(args) -> int:
    metric = DpMetric(DistanceMatrix.from_array(fileio.load_matrix(args.matrix)), args.p)
    x = fileio.load_state(args.x)
    y = fileio.load_state(args.y)
    dist, hs = d_p(metric, x, y), d_hs(x, y)
    if args.p < 2:
        print(f"warning: p={args.p:g} < 2 is not guaranteed to be a metric", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({"n": metric.E.n, "p": args.p, "distance": dist, "hs_distance": hs}))
    elif args.format == "csv":
        print("n,p,distance,hs_distance")
        print(f"{metric.E.n},{args.p:.15g},{dist:.15g},{hs:.15g}")
    else:
        print(f"{dist:.15g}")
    return 0


def _config_from_args(args, base: dict) -> TrialConfig:
    """TrialConfig from the config file's fields (``property`` aside), overridden by the flags given."""
    flags = {"n": args.n, "p": args.p, "trials": args.trials, "seed": args.seed,
             "matrix_mode": args.mode, "tolerance": args.tolerance}
    merged = {"p": 2.0, "trials": 1000, "seed": 0, **base}
    merged.pop("property", None)
    merged.update((k, v) for k, v in flags.items() if v is not None)
    if merged.get("n") is None:
        raise ValueError("the dimension --n is required (flag or config file)")
    return TrialConfig.from_dict(merged, args.config or "trial config")


def cmd_fuzz(args) -> int:
    base = fileio.load_object(args.config) if args.config else {}
    matrix = None
    if args.matrix:
        matrix = DistanceMatrix.from_array(fileio.load_matrix(args.matrix))
        if args.n is None:
            args.n = matrix.n
        args.mode = "user-supplied"
    cfg = _config_from_args(args, base)
    prop = args.property or fileio.get_field(base, "property", str, args.config, None)
    if prop is None:
        return _fail(USAGE_ERROR, "--property is required")
    report = run_fuzz(prop, cfg, matrix=matrix, threads=args.threads)
    doc = report.to_dict()
    if args.out:
        fileio.write_report(args.out, doc)
        print(
            f"property={report.property} trials={report.trials} "
            f"violations={report.violations} worst_defect={report.worst_defect:.6g} "
            f"-> {args.out}"
        )
    else:
        print(json.dumps(doc, indent=2, allow_nan=False))
    found = report.violations > 0
    if args.expect_violation:
        return 0 if found else PROPERTY_FAILURE
    return PROPERTY_FAILURE if found else 0


def cmd_counterexample(args) -> int:
    if args.p >= 2:
        return _fail(
            PROPERTY_FAILURE,
            f"p={args.p:g} >= 2 is guaranteed to give a metric (triangle inequality holds); "
            "no counterexample exists",
        )
    ce = counterexample_p_lt_2(args.p, args.e12, theta=args.theta)
    print(f"p = {ce.p:.15g}, E12 = {ce.e12:.15g}, theta = {ce.theta:.15g}")
    print(f"x = cos(theta) e1 + sin(theta) e2 = {_fmt_state(ce.x)}")
    print(f"y = cos(theta) e1 - sin(theta) e2 = {_fmt_state(ce.y)}")
    print(f"z = e1 = {_fmt_state(ce.z)}")
    print(f"d(x,y) = {ce.d_xy:.15g}")
    print(f"d(x,z) = {ce.d_xz:.15g}")
    print(f"d(y,z) = {ce.d_yz:.15g}")
    print(f"violation margin d(x,y) - d(x,z) - d(y,z) = {ce.margin:.15g}")
    return 0


def _fmt_state(v) -> str:
    return "[" + ", ".join(f"{c.real:.15g}{c.imag:+.15g}j" for c in v) + "]"


def cmd_embed(args) -> int:
    _check_exponent(args.p)
    result = validate_distance_matrix(fileio.load_matrix(args.matrix))
    if not result.ok:
        print("invalid distance matrix:", file=sys.stderr)
        for v in result.violations[:10]:
            print(f"  {v.kind} at {v.indices}: {v.detail}", file=sys.stderr)
        return PROPERTY_FAILURE
    try:
        states, metric = embed(result.matrix, args.p)
    except (ValueError, ArithmeticError) as ex:
        return _fail(PROPERTY_FAILURE, str(ex))
    os.makedirs(args.out, exist_ok=True)
    names = []
    for i, s in enumerate(states):
        name = f"state_{i}.json"
        fileio.save_state(os.path.join(args.out, name), s)
        names.append(name)
    manifest = {
        "n": result.matrix.n,
        "p": args.p,
        "matrix": fileio.matrix_to_dict(result.matrix.entries),
        "states": names,
        "verified": True,
        "version": __version__,
    }
    fileio._write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"wrote {len(names)} basis states and manifest to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqdist",
        description="Distance-matrix-induced metrics on pure quantum states, "
        "with fuzz verification of the inequalities behind them.",
    )
    parser.add_argument("--version", action="version", version=f"pqdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the metric axioms of a matrix file")
    p_val.add_argument("matrix", help="matrix JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_dist = sub.add_parser("dist", help="evaluate the induced distance between two states")
    p_dist.add_argument("matrix", help="matrix JSON file")
    p_dist.add_argument("x", help="first state JSON file")
    p_dist.add_argument("y", help="second state JSON file")
    p_dist.add_argument("--p", type=float, default=2.0, help="exponent (default 2)")
    p_dist.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_dist.set_defaults(func=cmd_dist)

    p_fuzz = sub.add_parser("fuzz", help="run a randomized verification campaign")
    p_fuzz.add_argument("--property", choices=PROPERTIES)
    p_fuzz.add_argument("--n", type=int)
    p_fuzz.add_argument("--p", type=float)
    p_fuzz.add_argument("--trials", type=int)
    p_fuzz.add_argument("--seed", type=int)
    p_fuzz.add_argument("--mode", choices=MATRIX_MODES + ("user-supplied",))
    p_fuzz.add_argument("--tolerance", type=float)
    p_fuzz.add_argument("--matrix", help="fixed matrix file (sets mode=user-supplied)")
    p_fuzz.add_argument("--config", help="JSON file with TrialConfig fields")
    p_fuzz.add_argument("--out", help="write the report JSON here instead of stdout")
    p_fuzz.add_argument("--threads", type=int, help="override PQDIST_THREADS")
    p_fuzz.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert the exit convention: succeed when violations are found",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_ce = sub.add_parser(
        "counterexample", help="construct a triangle-inequality violation for p < 2"
    )
    p_ce.add_argument("--p", type=float, required=True)
    p_ce.add_argument("--e12", type=float, default=1.0)
    p_ce.add_argument(
        "--theta",
        type=float,
        default=None,
        help="override the mixing angle (radians); must satisfy cos(theta) > 2^(p/2-1)",
    )
    p_ce.set_defaults(func=cmd_counterexample)

    p_emb = sub.add_parser("embed", help="embed a finite metric space as basis states")
    p_emb.add_argument("matrix", help="matrix JSON file")
    p_emb.add_argument("--p", type=float, default=2.0)
    p_emb.add_argument("--out", required=True, help="output directory for the state bundle")
    p_emb.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as ex:
        return _fail(USAGE_ERROR, str(ex))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
