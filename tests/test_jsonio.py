"""The one complex encoder of the file formats: scalars, vectors and
matrices become [re, im] pairs nested like the input. Integer fields of
the files are ints, never booleans or floats."""

import json

import numpy as np
import pytest

from opmor.errors import ParseError
from opmor.jsonio import complex_to_pair, fv_from_json

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


@pytest.mark.parametrize("order", [True, 1.0, 0])
def test_quad_order_must_be_a_positive_integer(order):
    obj = {"patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]}, "quad_order": order,
           "values": [[1.0, 0.0]]}
    with pytest.raises(ParseError, match=r"b_rows\[0\].quad_order must be a positive integer"):
        fv_from_json(obj, "b_rows[0]", {})
