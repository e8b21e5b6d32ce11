"""Frame/operator file format and JSON helpers.

A frame file is JSON: ``{"dim": n, "vectors": [[...], ...], "K": [[...], ...],
"tol": optional}`` with vectors and K row-major.  Frame files are written at
full precision (shortest round-trip float representation), so
parse -> serialize -> parse reproduces the matrices bit for bit.  A number
no float holds (an integer literal past the float range, or past the
interpreter's digit limit for integers) is a :class:`ParseError` that names
its field, like any other malformed value.

Report output on the CLI instead rounds every real to 12 significant
digits and prints the bytes of ``json.dumps(round_floats(doc), indent=2)``.
:func:`dumps_rounded` writes those bytes in one pass, formatting each float
once and joining a list of floats in one call; :func:`round_floats` stays
the definition of the rounding.
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
    except (TypeError, ValueError, OverflowError):
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
    except (TypeError, ValueError, OverflowError) as exc:
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"K is not a numeric matrix: {exc}") from exc
    if dim is not None and K.shape != (dim, dim):
        raise ParseError(f"K must be {dim}x{dim}, got {K.shape}")
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ParseError(f"K must be square, got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ParseError("K has a non-finite entry")
    return K


def _json_int(text: str):
    """An integer literal as an int, or, past the interpreter's digit limit
    (where ``int`` raises ValueError), as the float ±inf: the field checks
    then reject it as non-finite and name the field."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:  # nesting past the interpreter's limit
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from exc


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


def dumps_rounded(obj) -> str:
    """``json.dumps(round_floats(obj), indent=2)``, byte for byte.

    One pass over ``obj`` with no rounded copy: each float is formatted once
    with ``.12g``, and a list of floats is joined in one call.  Types that
    ``json.dumps`` rejects (``np.bool_``, sets, ...) raise TypeError.
    """
    out = []
    _encode(obj, "\n", out)
    return "".join(out)


def _float_text(x: float) -> str:
    """JSON text of ``round_sig(x)``.

    The ``.12g`` text is already the repr of the rounded float except for
    whole numbers (no point), exponents e+12 to e+15 (repr is positional
    below 1e16), subnormals (e-3xx, where 12 digits need not round-trip) and
    the non-finite values, which JSON spells NaN and Infinity.
    """
    text = format(x, ".12g")
    if "n" in text:
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if "e+1" in text or "e-3" in text or not ("." in text or "e" in text):
        return float.__repr__(float(text))
    return text


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it: str, or int, float, bool and
    None spelled as JSON and quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                "keys must be str, int, float, bool or None, "
                f"not {type(key).__name__}"
            )
        key = json.dumps(key)
    return json.encoder.encode_basestring_ascii(key)


def _encode(obj, nl: str, out: list) -> None:
    """Append the text of ``obj`` at the indent whose newline is ``nl``."""
    if isinstance(obj, str):
        out.append(json.encoder.encode_basestring_ascii(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key, value in obj.items():
            out.append(lead + _key_text(key) + ": ")
            _encode(value, inner, out)
            lead = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        try:
            texts = [float.__format__(x, ".12g") for x in obj]
        except TypeError:  # not all floats
            lead = "[" + inner
            for value in obj:
                out.append(lead)
                _encode(value, inner, out)
                lead = sep
            out.append(nl + "]")
            return
        body = sep.join(texts)
        # every text needs exactly one point and none of _float_text's cases
        if body.count(".") != len(texts) or "n" in body or "e+1" in body or "e-3" in body:
            body = sep.join(map(_float_text, obj))
        out.append("[" + inner + body + nl + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, np.floating):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(str(int(obj)))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), nl, out)
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )
