"""Deterministic serialization for machine-readable output files.

The stdlib json encoder ties float formatting to float.__repr__ and key
order to dict iteration, both of which are easy to perturb accidentally.
Output files are promised byte-identical across runs, so this module owns
one fixed convention: floats at 17 significant digits (lossless for IEEE
doubles), keys in the order the caller built them, two-space indentation.

A flat numeric sequence (a list or tuple whose items are all float or all
int; an ndarray is first turned into one with .tolist()) is written in one
pass by format_numbers rather than item by item: one finiteness check over
the whole sequence, then a single "%.17g" template applied to every float at
once. That is byte-equal to format_float, because printf-style "%.17g" and
format(x, ".17g") both render through CPython's PyOS_double_to_string with
the same mode and precision. Bools, numpy scalars and mixed sequences keep
the item-by-item path.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["format_float", "format_numbers", "dumps"]


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def format_numbers(values, sep: str = ", ") -> str:
    """Items of a flat float or int sequence, formatted and joined by sep.

    values is a 1-d array, or a list or tuple, whose items are all float or
    all int; anything else raises TypeError. Each float reads as
    format_float gives it; a NaN or infinity raises format_float's
    ValueError.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= {int}:
        return sep.join(map(str, values))
    if kinds != {float}:
        raise TypeError("format_numbers takes items that are all float or all int")
    if not all(map(math.isfinite, values)):
        for v in values:
            format_float(v)
    return sep.join(["%.17g"] * len(values)) % tuple(values)


# JSON string escapes: quote, backslash, \n, \t and \r by name, every other
# control character below 0x20 as \u00XX
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({ord("\""): "\\\"", ord("\\"): "\\\\",
                 ord("\n"): "\\n", ord("\t"): "\\t", ord("\r"): "\\r"})


def _escape(s: str) -> str:
    return "\"" + s.translate(_ESCAPES) + "\""


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, pieces)
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        inner = "  " * (indent + 1)
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            pieces.append(inner)
            pieces.append(_escape(key))
            pieces.append(": ")
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if k + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        try:
            pieces.append("[" + format_numbers(obj) + "]")
            return
        except TypeError:
            pass
        flat = all(
            isinstance(v, (int, float, np.integer, np.floating, str, bool))
            or v is None
            for v in obj
        )
        if flat:
            pieces.append("[")
            for k, v in enumerate(obj):
                _emit(v, indent, pieces)
                if k + 1 < len(obj):
                    pieces.append(", ")
            pieces.append("]")
            return
        pieces.append("[\n")
        inner = "  " * (indent + 1)
        for k, v in enumerate(obj):
            pieces.append(inner)
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if k + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic JSON text (trailing newline included)."""
    pieces: list = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)
