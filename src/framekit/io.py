"""Frame/operator file format and JSON helpers.

A frame file is JSON: ``{"dim": n, "vectors": [[...], ...], "K": [[...], ...],
"tol": optional}`` with vectors and K row-major.  Frame files are written at
full precision (shortest round-trip float representation), so
parse -> serialize -> parse reproduces the matrices bit for bit.  Report
output on the CLI instead rounds every real to 12 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .frames import Frame, OperatorSpec, build_frame, build_operator, RANK_TOL


class ParseError(Exception):
    """Malformed input file or schema violation (CLI exit code 2)."""


def _parse_tol(value) -> float | None:
    """None, or a number strictly between 0 and 1 (NaN and inf fail)."""
    if value is None:
        return None
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not 0.0 < tol < 1.0:
        raise ParseError(f"tol must be a number in (0, 1), got {value!r}")
    return tol


def frame_from_data(
    data: dict, tol_override: float | None = None
) -> tuple[Frame, OperatorSpec, float | None]:
    """Validate a parsed frame file and build the domain objects.

    ``tol_override`` (e.g. a CLI flag) takes precedence over the file's
    optional ``tol`` field.
    """
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        dim = data["dim"]
        vectors = data["vectors"]
        K = data["K"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if type(dim) is not int:  # a JSON integer; bool and float do not count
        raise ParseError(f"dim must be an integer, got {dim!r}")
    tol = _parse_tol(data.get("tol"))
    if tol_override is not None:
        tol = _parse_tol(tol_override)
    try:
        frame = build_frame(vectors)
    except ValueError as exc:
        raise ParseError(f"bad vectors: {exc}") from exc
    if frame.dim != dim:
        raise ParseError(
            f"declared dim {dim} does not match vector length {frame.dim}"
        )
    op = build_operator(_check_K(K, dim), tol if tol is not None else RANK_TOL)
    return frame, op, tol


def _check_K(K, dim: int | None = None) -> np.ndarray:
    """K as a float array: dim x dim when dim is given, else square, and
    finite."""
    try:
        K = np.asarray(K, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"K is not a numeric matrix: {exc}") from exc
    if dim is not None and K.shape != (dim, dim):
        raise ParseError(f"K must be {dim}x{dim}, got {K.shape}")
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ParseError(f"K must be square, got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ParseError("K has a non-finite entry")
    return K


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_frame_file(
    path, tol_override: float | None = None
) -> tuple[Frame, OperatorSpec, float | None]:
    return frame_from_data(_read_json(path), tol_override)


def load_operator_file(path) -> tuple[OperatorSpec, float | None]:
    """Read just the operator from a frame file or a bare ``{"K": ...}``."""
    data = _read_json(path)
    if not isinstance(data, dict) or "K" not in data:
        raise ParseError("expected an object with a \"K\" field")
    K = _check_K(data["K"])
    tol = _parse_tol(data.get("tol"))
    return build_operator(K, tol if tol is not None else RANK_TOL), tol


def frame_file_dict(
    frame: Frame, op: OperatorSpec, file_tol: float | None = None
) -> dict:
    data = {
        "dim": frame.dim,
        "vectors": frame.vectors.tolist(),
        "K": op.matrix.tolist(),
    }
    if file_tol is not None:
        data["tol"] = file_tol
    return data


def save_frame_file(
    path, frame: Frame, op: OperatorSpec, file_tol: float | None = None
):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_file_dict(frame, op, file_tol), fh, indent=2)
        fh.write("\n")


def round_sig(x: float, sig: int = 12) -> float:
    """Round to ``sig`` significant digits (non-finite passes through)."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.{sig}g}")


def round_floats(obj, sig: int = 12):
    """Recursively round every float in a JSON-ready structure."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round_sig(obj, sig)
    if isinstance(obj, (np.floating,)):
        return round_sig(float(obj), sig)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist(), sig)
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj
