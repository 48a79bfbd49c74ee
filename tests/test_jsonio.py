"""The one complex encoder of the file formats and its one decoder:
scalars, vectors and matrices become [re, im] pairs nested like the input
and read back bit for bit as one array, and anything else in their place is
a ParseError naming the field. Integer fields of the files are ints, never
booleans or floats."""

import json
import re

import numpy as np
import pytest

from opmor.errors import ParseError
from opmor.funcspace import Patch, QuadratureGrid
from opmor.jsonio import (complex_to_pair, dump_json, family_from_json, family_to_json,
                          pair_to_complex, patch_from_json)

# -0.0 in either part, and parts whose shortest repr needs 17 digits
VALUES = [
    complex(-0.0, 1.0),
    complex(1.0, -0.0),
    complex(-0.0, -0.0),
    complex(0.1 + 0.2, -(1.0 + 2.0 ** -52)),
    complex(2.0 / 3.0, 5e-324),
    complex(-1.7976931348623157e308, 1e-300),
]


def _reference(z):
    """Per-element [z.real, z.imag] pairs in the input's nesting."""
    if np.ndim(z) == 0:
        z = complex(z)
        return [z.real, z.imag]
    return [_reference(row) for row in z]


@pytest.mark.parametrize("z", [
    VALUES[3],
    np.complex128(VALUES[0]),
    -0.0,
    np.array(VALUES),
    np.array(VALUES).reshape(2, 3),
    np.array([[0.1 + 0.2, -0.0], [1.0, 2.0 / 3.0]]),
], ids=["scalar", "numpy-scalar", "real-scalar", "vector", "matrix", "real-matrix"])
def test_complex_to_pair_matches_per_element_pairs(z):
    got = complex_to_pair(z)
    want = _reference(z)
    assert np.shape(got) == np.shape(want)
    # float repr is unique per double, keeps the sign of zero and tells 0.0
    # from 0, so equal texts mean bitwise-equal float parts
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("z", [
    np.array(VALUES[0]), np.array(VALUES), np.array(VALUES).reshape(3, 2),
    np.array(VALUES).reshape(1, 6), np.array(VALUES).reshape(6, 1),
], ids=["scalar", "vector", "matrix", "row", "column"])
def test_pair_to_complex_inverts_complex_to_pair_bitwise(z):
    got = pair_to_complex(json.loads(json.dumps(complex_to_pair(z))), "z", z.ndim)
    assert np.shape(got) == z.shape
    assert np.asarray(got, dtype=np.complex128).tobytes() == z.tobytes()


def test_pair_to_complex_reads_integers_as_floats():
    assert pair_to_complex([[1, -2]], "z", 1).tobytes() == np.array([1 - 2j]).tobytes()


NAN, INF = float("nan"), float("inf")
MALFORMED = {
    0: [True, [True, 0.0], ["1.0", 0.0], [None, 0.0], [1.0], [1.0, 2.0, 3.0], [[1.0, 0.0]],
        {"re": 1.0}, "1+2j", None, [NAN, 0.0], [0.0, -INF], [10 ** 400, 0]],
    1: [[], [1.0, 0.0], [[1.0, 0.0], [1.0]], [[1.0, 0.0], [False, 1.0]],
        [[1.0, 0.0], [1.0, None]], [[1.0, 0.0], ["2", 0.0]], [[1.0, 0.0], [INF, 0.0]],
        [[1.0, 0.0], [0, 10 ** 309]], [[[1.0, 0.0]], [[1.0, 0.0]]]],
    2: [[], [[]], [[1.0, 0.0]], [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
        [[[1.0, 0.0], [2.0]]], [[[1.0, 0.0]], [[True, 0.0]]], [[[1.0, 0.0]], [[0.0, NAN]]]],
}


@pytest.mark.parametrize("ndim, obj", [(ndim, obj) for ndim, objs in MALFORMED.items()
                                       for obj in objs])
def test_pair_to_complex_rejects_malformed_data(ndim, obj):
    with pytest.raises(ParseError, match=r"^field\[?"):
        pair_to_complex(obj, "field", ndim)


@pytest.mark.parametrize("ndim, obj, where", [
    (0, [NAN, 0.0], "hermites[0].value"),
    (1, [[1.0, 0.0], [2.0, INF]], "rights[1].sigma"),
    (2, [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [-INF, 0.0]]], "b_rows[1].values[1]"),
])
def test_non_finite_entry_is_named(ndim, obj, where):
    field = {0: "hermites[0].value", 1: "rights[*].sigma", 2: "b_rows[*].values"}[ndim]
    with pytest.raises(ParseError, match=re.escape(where) + " must be a finite point"):
        pair_to_complex(obj, field, ndim)


GRID = QuadratureGrid(Patch(0.1, 0.3, 0.2, 0.4), 2)


def test_family_round_trip_is_bitwise():
    rows = np.array(VALUES[:4] + VALUES[:4]).reshape(2, 4)
    got, grid = family_from_json(json.loads(json.dumps(family_to_json(rows, GRID))), "f")
    assert grid == GRID
    assert got.tobytes() == rows.tobytes()


def test_node_count_is_checked_before_the_grid_is_built(leggauss_calls):
    # 784 values (order 28) under a declared order 29: refused before any
    # order-29 rule, a dense eigensolve of the declared size, is built
    objs = [{"p": f} for f in family_to_json(np.ones((2, 784)), GRID)]
    for o in objs:
        o["p"]["quad_order"] = 29
    with pytest.raises(ParseError, match=re.escape("rights[*].p.values hold 784 nodes, not 841")):
        family_from_json(objs, "rights", "p")
    assert leggauss_calls == []


@pytest.mark.parametrize("order", [True, 1.0, 0])
def test_quad_order_must_be_a_positive_integer(order):
    objs = family_to_json(np.ones((2, GRID.size)), GRID)
    objs[0]["quad_order"] = order
    with pytest.raises(ParseError, match=r"b_rows\[0\].quad_order must be a positive integer"):
        family_from_json(objs, "b_rows")


@pytest.mark.parametrize("bounds", [[False, 0.3], ["0.1", 0.3], [None, 0.3], [0.1, NAN],
                                    [0.1, 10 ** 400], [0.1]])
def test_patch_bounds_must_be_numbers(bounds):
    with pytest.raises(ParseError, match="bad patch spec at model.con_patch"):
        patch_from_json({"x": bounds, "y": [0.1, 0.3]}, "model.con_patch")


def test_patch_integer_bounds_are_read_as_floats():
    assert patch_from_json({"x": [0, 1], "y": [0.5, 1]}) == Patch(0.0, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_dump_json_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        dump_json({"h2_error": value}, path)
    assert not path.exists()
