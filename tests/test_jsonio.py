"""Deterministic JSON: the one-pass numeric path against item-by-item output."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefolio import cli, jsonio
from sparsefolio.path_constrained import solve_constrained_path, solve_path

from conftest import random_instance

finite_floats = st.lists(st.floats(allow_nan=False, allow_infinity=False))
int64s = st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1))


def per_item(values) -> str:
    """The item-by-item form every flat numeric list was written in."""
    return "[" + ", ".join(jsonio.format_float(v) for v in values) + "]\n"


@settings(deadline=None, derandomize=True)
@given(finite_floats)
def test_float_sequences_match_per_item(values):
    expected = per_item(values)
    assert jsonio.dumps(values) == expected
    assert jsonio.dumps(tuple(values)) == expected
    assert jsonio.dumps(np.array(values, dtype=float)) == expected
    top = float(np.finfo(np.float32).max)
    single = np.array([v for v in values if abs(v) <= top], dtype=np.float32)
    assert jsonio.dumps(single) == per_item(single)


@settings(deadline=None, derandomize=True)
@given(int64s)
def test_int_sequences_match_per_item(values):
    expected = "[" + ", ".join(str(v) for v in values) + "]\n"
    assert jsonio.dumps(values) == expected
    assert jsonio.dumps(np.array(values, dtype=np.int64)) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_non_finite_raises(bad, where):
    values = [0.5, -1.0, 2.0]
    values[where] = float(bad)
    for obj in (values, np.array(values), np.array(values, dtype=np.float32)):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(obj)
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps({"weights": obj})


@pytest.mark.parametrize("obj, text", [
    ([], "[]\n"),
    (np.array([], dtype=float), "[]\n"),
    (np.array([], dtype=np.int64), "[]\n"),
    (np.zeros((0, 2)), "[]\n"),
    (np.array([[1.5, -0.0], [1e-300, 2.0]]), "[\n  [1.5, -0],\n  [1e-300, 2]\n]\n"),
    ([True, False, True], "[true, false, true]\n"),
    (np.array([True, False]), "[true, false]\n"),
    ([1, 2.5, None, "a", True, np.float64(0.1), np.int64(-3)],
     '[1, 2.5, null, "a", true, 0.10000000000000001, -3]\n'),
    ({"a": [np.float32(0.1), 2]}, '{\n  "a": [0.10000000149011612, 2]\n}\n'),
])
def test_edge_cases_keep_their_bytes(obj, text):
    assert jsonio.dumps(obj) == text


def test_string_escapes():
    # stdlib json writes \b and \f by name; the output files keep \u00XX
    assert jsonio.dumps({"\b": "\f"}) == '{\n  "\\u0008": "\\u000c"\n}\n'
    text = "".join(chr(c) for c in range(0x300) if chr(c) not in "\b\f")
    assert jsonio.dumps([text]) == f"[{json.dumps(text, ensure_ascii=False)}]\n"


@pytest.mark.parametrize("obj", [{1: 2.0}, {"a": object()}, [1.0, object()]])
def test_unsupported_input_raises_type_error(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


@pytest.mark.parametrize("values", [
    [1, 0.1], [0.1, 1], [True, 1], [np.float64(0.1)], np.zeros((2, 2))])
def test_format_numbers_rejects_mixed_items(values):
    with pytest.raises(TypeError):
        jsonio.format_numbers(values)


def list_built_doc(path) -> dict:
    """path.json's document with every array as a list of Python scalars."""
    rows = []
    for bp in path.breakpoints:
        row = {"tau": float(bp.tau), "weights": [float(v) for v in bp.weights]}
        if len(bp.multipliers):
            row["multipliers"] = [float(v) for v in bp.multipliers]
        row["active_set"] = [int(i) for i in bp.active_set]
        row["event"] = {
            "kind": bp.event.kind,
            "entered": [int(i) for i in bp.event.entered],
            "left": [int(i) for i in bp.event.left],
        }
        rows.append(row)
    return {"tau_0": float(path.breakpoints[0].tau), "breakpoints": rows}


def per_cell_csv(path) -> str:
    """path.csv with every float cell formatted on its own."""
    bp0 = path.breakpoints[0]
    m = len(bp0.multipliers)
    header = ["tau", "event", "active_set"]
    header += [f"w{i}" for i in range(len(bp0.weights))]
    header += [f"lambda{j}" for j in range(m)]
    lines = [",".join(header)]
    for bp in path.breakpoints:
        cells = [jsonio.format_float(bp.tau), bp.event.kind,
                 ";".join(str(i) for i in bp.active_set)]
        cells += [jsonio.format_float(v) for v in bp.weights]
        if m:
            cells += [jsonio.format_float(v) for v in bp.multipliers]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("constrained", [True, False])
def test_path_outputs_byte_identical_to_per_item(constrained):
    problem, constraints = random_instance(3, n_min=6, m_choices=(2,))
    if constrained:
        path = solve_constrained_path(problem, constraints)
    else:
        path = solve_path(problem)
    assert len(path.breakpoints) > 2
    text = jsonio.dumps(cli._path_to_dict(path))
    assert text == jsonio.dumps(list_built_doc(path))
    assert cli._path_to_csv(path) == per_cell_csv(path)
