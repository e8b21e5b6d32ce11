"""Command-line surface.

Subcommands: ``analyze``, ``canonical-dual``, ``optimal-dual``,
``pair-bounds``, ``search``, ``verify-example``.  Input files use the frame
JSON format from :mod:`framekit.io`.  Every JSON document carries
``"schema": "framekit/1"``; reals are printed with 12 significant digits
(tables round to 6) and erasure/vector indices are 1-based in all
human-facing output.

Exit codes: 0 success, 2 parse error, 3 domain-precondition failure,
4 internal numerical failure, 1 failed verification assertions.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fixtures
from .duals import (
    Measure,
    Verdict,
    _canonical_certificate,
    _connected_decomposition,
    _family,
    _min_r1,
    _weight_partition,
)
from .erasures import build_report, report_to_dict
from .errors import FrameKitError, NotParsevalError, NumericalError
from .frames import (
    OperatorSpec,
    build_dual_system,
    canonical_k_dual,
    dual_parameterization,
    is_parseval_k_frame,
    k_frame_bounds,
)
from .io import ParseError, dumps_rounded, load_frame_file, load_operator_file
from .pairs import _r1_optimal, _r2_optimal, is_o1_optimal_pair, pair_bounds
from .search import (
    SearchConfig,
    _minimize_measure,
    _minimize_r2_within_uniform,
)

SCHEMA = "framekit/1"


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit_json(doc: dict) -> None:
    doc = {"schema": SCHEMA, **doc}
    print(dumps_rounded(doc))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _emit_table(doc: dict, indent: str = "") -> None:
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_table(value, indent + "  ")
        elif (
            isinstance(value, list)
            and value
            and isinstance(value[0], (list, tuple))
        ):
            print(f"{indent}{key}:")
            for i, row in enumerate(value, start=1):
                cells = "  ".join(f"{_fmt(x):>12}" for x in row)
                print(f"{indent}  [{i}] {cells}")
        else:
            if isinstance(value, list):
                value = "[" + ", ".join(_fmt(v) for v in value) + "]"
            else:
                value = _fmt(value)
            print(f"{indent}{key}: {value}")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(doc)
    else:
        _emit_table(doc)


def _pair_bounds_dict(op: OperatorSpec, n_vectors: int) -> dict:
    b = pair_bounds(op, n_vectors)
    return {
        "o1_min": b.o1_min,
        "r1_min": b.r1_min,
        "mu": b.mu,
        "r2_min": b.r2_min,
        "branch": b.branch.value if b.branch else None,
        "r2_min_statement_variant": b.r2_min_statement_variant,
    }


def _load_system(path, tol_override=None):
    frame, op, tol = load_frame_file(path, tol_override)
    bounds = k_frame_bounds(frame, op)
    if not is_parseval_k_frame(frame, op):
        raise NotParsevalError(
            "input is a K-frame but not Parseval; canonical-dual analysis "
            "requires the Parseval property"
        )
    return frame, op, bounds


def cmd_analyze(args) -> int:
    frame, op, (A, B) = _load_system(args.frame, args.tol)
    canonical = canonical_k_dual(frame, op)
    ds = build_dual_system(frame, canonical, op)
    report = build_report(ds, ms=tuple(args.rm or ()))
    doc = {
        "dim": frame.dim,
        "n_vectors": frame.n_vectors,
        "k_frame_bounds": {"A": A, "B": B},
        "parseval": True,
        "canonical_dual_report": report_to_dict(report),
    }
    if op.psd_flag:
        doc["pair_bounds"] = _pair_bounds_dict(op, frame.n_vectors)
        doc["optimal_pair_flags"] = {
            "o1_optimal": is_o1_optimal_pair(ds),
            "r1_optimal": _r1_optimal(report.uniform1),
            "r2_optimal": _r2_optimal(ds, report.uniform2),
        }
    else:
        doc["pair_bounds"] = None
        doc["optimal_pair_flags"] = None
    _emit(doc, args.format)
    return 0


def cmd_canonical_dual(args) -> int:
    frame, op, _ = _load_system(args.frame, args.tol)
    canonical = canonical_k_dual(frame, op)
    _emit(
        {
            "dim": frame.dim,
            "n_vectors": frame.n_vectors,
            "vectors": canonical.vectors.tolist(),
        },
        args.format,
    )
    return 0


def _certificate_dict(cert) -> dict:
    evidence = {}
    for key, value in cert.evidence.items():
        if isinstance(value, np.ndarray):
            evidence[key] = value.tolist()
        else:
            evidence[key] = value
    return {"verdict": cert.verdict.value, "evidence": evidence}


def cmd_optimal_dual(args) -> int:
    frame, op, _ = _load_system(args.frame, args.tol)
    kind = Measure.OP_NORM if args.measure == "opnorm" else Measure.SPECTRAL
    param = dual_parameterization(frame, op)  # the one chart of this call
    cert = _canonical_certificate(param, kind)
    decomp = _connected_decomposition(frame, op, param.components)
    search = _minimize_measure(param, kind)

    # The spectral search returns the component-mean dual, the construction.
    minimal = _min_r1(param) if kind is Measure.SPECTRAL else search.value
    canonical_optimal = kind is Measure.OP_NORM and cert.verdict is not Verdict.NOT_OPTIMAL
    constructed = param.base if canonical_optimal else search.frame
    family = _family(param, _weight_partition(param, kind), kind)
    doc = {
        "measure": args.measure,
        "certificate": _certificate_dict(cert),
        "minimal_value": minimal,
        "search_value": search.value,
        "optimal_dual": constructed.vectors.tolist(),
        "decomposition": {
            "blocks": [[i + 1 for i in block] for block in decomp.blocks],
            "deltas": list(decomp.deltas),
            "k_invariant": list(decomp.k_invariant),
        },
        "perturbation_family": {
            "exists": family.exists,
            "dimension": family.dimension,
            "radius": family.radius,
        },
    }
    _emit(doc, args.format)
    return 0


def cmd_pair_bounds(args) -> int:
    op, _ = load_operator_file(args.k)
    _emit(_pair_bounds_dict(op, args.n_vectors), args.format)
    return 0


def cmd_search(args) -> int:
    frame, op, _ = _load_system(args.frame, args.tol)
    cfg = SearchConfig(
        max_iters=args.max_iters, restarts=args.restarts, seed=args.seed
    )
    param = dual_parameterization(frame, op)  # the one chart of this call
    comparisons = {}
    if args.measure in ("o1", "r1"):
        kind = Measure.OP_NORM if args.measure == "o1" else Measure.SPECTRAL
        result = _minimize_measure(param, kind)
        if op.psd_flag:
            comparisons["pair_bound"] = op.trace / frame.n_vectors
        if args.measure == "r1":
            comparisons["fixed_frame_minimum"] = _min_r1(param)
        else:
            bound = result.comparison["fixed_frame_lower_bound"]
            comparisons["fixed_frame_lower_bound"] = bound
    else:
        result = _minimize_r2_within_uniform(param, cfg)
        if result.comparison:
            comparisons["pair_bound"] = result.comparison["pair_r2_min"]
    doc = {
        "measure": args.measure,
        "value": result.value,
        "seed": cfg.seed,
        "best_dual": result.frame.vectors.tolist(),
        "comparisons": {
            name: {"bound": bound, "gap": result.value - bound}
            for name, bound in comparisons.items()
        },
    }
    _emit(doc, args.format)
    return 0


def cmd_verify_example(args) -> int:
    try:
        checks = fixtures.verify_example(args.name)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    failed = 0
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} assertions passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Erasure-robust K-frame analysis toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, frame=True):
        if frame:
            p.add_argument("--frame", required=True, help="frame JSON file")
            p.add_argument(
                "--tol",
                type=float,
                default=None,
                help="override the rank/PSD tolerance from the input file",
            )
        p.add_argument(
            "--format", choices=("json", "table"), default="json"
        )

    p = sub.add_parser("analyze", help="full erasure report for a frame")
    add_common(p)
    p.add_argument(
        "--rm",
        type=int,
        action="append",
        help="also brute-force the m-erasure worst case (repeatable)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("canonical-dual", help="emit the canonical K-dual")
    add_common(p)
    p.set_defaults(func=cmd_canonical_dual)

    p = sub.add_parser(
        "optimal-dual", help="optimality certificate and optimal dual"
    )
    add_common(p)
    p.add_argument("--measure", choices=("opnorm", "spectral"), required=True)
    p.add_argument(
        "--seed", type=_nonneg_int, default=20240,
        help="not read: optimal-dual runs one exact solve; kept so its "
        "flags match search",
    )
    p.add_argument(
        "--max-iters", type=_pos_int, default=200,
        help="not read: the spectral minimum is closed-form and the opnorm "
        "Lawson solve takes no iteration cap; kept so existing command "
        "lines still parse",
    )
    p.add_argument(
        "--restarts", type=_pos_int, default=4,
        help="not read: optimal-dual runs one exact solve; kept so its "
        "flags match search",
    )
    p.set_defaults(func=cmd_optimal_dual)

    p = sub.add_parser("pair-bounds", help="lower bounds over all dual pairs")
    p.add_argument("--k", required=True, help="JSON file with a K field")
    p.add_argument("--n-vectors", type=_pos_int, required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_pair_bounds)

    p = sub.add_parser("search", help="numerical minimization oracle")
    add_common(p)
    p.add_argument("--measure", choices=("o1", "r1", "r2u"), required=True)
    p.add_argument(
        "--seed", type=_nonneg_int, default=20240,
        help="seed of the r2u Nelder-Mead starts; o1 and r1 are one exact "
        "solve and read no seed",
    )
    p.add_argument(
        "--max-iters", type=_pos_int, default=200,
        help="not read: r1 is closed-form, and the o1 Lawson solve and r2u "
        "take no iteration cap; kept so existing command lines still parse",
    )
    p.add_argument(
        "--restarts", type=_pos_int, default=4,
        help="Nelder-Mead starts of r2u; o1 and r1 are one exact solve and "
        "read no restarts",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify-example", help="machine-check a bundled worked example"
    )
    p.add_argument("name", choices=fixtures.EXAMPLE_NAMES)
    p.set_defaults(func=cmd_verify_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: built on the first call, not
    at import.  ``parse_args`` keeps no state between calls (each gets a
    fresh namespace, and ``--rm`` appends to a fresh list)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except FrameKitError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
