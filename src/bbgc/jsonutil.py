"""Canonical JSON emission.

Reports and calibration artifacts must be byte-stable across runs and
worker counts, so this module renders JSON itself: floats go through a
single fixed ``%.9g`` format (round-trips everything the toolkit emits
at far above its numeric tolerances), objects keep insertion order, and
indentation is fixed at two spaces.  The stdlib encoder is not used for
output because it hard-binds ``float.__repr__``; parsing still uses
``json.loads``.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from .errors import InvalidConfigError


def format_float(f: float, style: str = "report") -> str:
    """Fixed rendering: 9 significant digits for reports, shortest
    round-trip (repr) for model files that must reload bit-identically."""
    if not np.isfinite(f):
        raise ValueError(f"non-finite value in report: {f}")
    if style == "exact":
        return repr(float(f))
    return format(float(f), ".9g")


def _emit(value: Any, indent: int, style: str) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 2, style)}"
            for k, v in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = (f"{inner}{_emit(v, indent + 2, style)}" for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist(), indent, style)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value), style)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unserializable type {type(value)!r}")


def dumps(obj: Any, float_style: str = "report") -> str:
    """Serialize with fixed float formatting and stable key order."""
    return _emit(obj, 0, float_style)


def write_json(path: str, obj: Any, float_style: str = "report") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, float_style))
        fh.write("\n")


def read_json(path: str) -> Any:
    """The document at ``path``; bytes that are not UTF-8 JSON, or nest too
    deeply for the parser to recurse through, raise ``InvalidConfigError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:   # JSONDecodeError, UnicodeDecodeError
            raise InvalidConfigError(f"{path}: not a JSON document: {exc}") from exc


# What a loader's one ``try`` reports as ``InvalidConfigError``: bad content's errors.
CONTENT_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def json_field(doc: Any, key: str, default: Any = ..., integer: bool = False,
               ndim: int = 0) -> Any:
    """``doc[key]``, else ``default`` if given: a JSON integer as an int, a finite
    JSON number as a float, or with ``ndim`` lists of them nested that deep as a
    float64 array.  Anything else (a bool, a numeric string, NaN, a ragged list)
    raises TypeError, and a number past the float range OverflowError."""
    value = doc[key] if default is ... else doc.get(key, default)
    items = np.array(value, dtype=object)
    kinds = (int,) if integer else (int, float)
    if items.ndim != ndim or not all(type(x) in kinds and abs(x) < np.inf for x in items.flat):
        what = ("a JSON integer" if integer else "a JSON number" if not ndim
                else f"{ndim}-d lists of finite JSON numbers")
        raise TypeError(f"{key} must be {what}" + ("" if ndim else f", got {value!r}"))
    return value if integer else items.astype(np.float64) if ndim else float(value)


def encode_matrix(m: np.ndarray) -> dict[str, Any]:
    """Base64 payload for a float matrix: little-endian float32, row-major."""
    m = np.ascontiguousarray(m, dtype="<f4")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "dtype": "f4",
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def decode_matrix(payload: dict[str, Any]) -> np.ndarray:
    """The float64 matrix of an :func:`encode_matrix` payload, else ``InvalidConfigError``."""
    if payload.get("dtype") != "f4":
        raise InvalidConfigError(f"unsupported matrix dtype {payload.get('dtype')!r}")
    rows, cols = (json_field(payload, key, integer=True) for key in ("rows", "cols"))
    raw = base64.b64decode(payload["data"])
    if min(rows, cols) < 1 or len(raw) != rows * cols * 4:
        raise InvalidConfigError(f"matrix payload of {len(raw)} bytes does not fill {rows}x{cols}")
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)
