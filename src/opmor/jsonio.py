"""JSON helpers shared by dataset, model and report files.

Complex data are stored exclusively as [re, im] pairs: a scalar is one
pair, a vector a list of pairs, a matrix a list of such rows. One encoder,
``complex_to_pair``, writes all three shapes. Function vectors carry their
own grid metadata (patch and per-axis order) so files are self-describing.
Python's float repr round-trips through JSON exactly, which makes save/load
bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .funcspace import FunctionVector, Patch, QuadratureGrid


def complex_to_pair(z):
    """Complex data of any shape as nested lists ending in [re, im] pairs."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def pair_to_complex(obj, where=""):
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ParseError(f"expected a [re, im] pair at {where or 'value'}, got {obj!r}")
    return complex(obj[0], obj[1])


def cvector_from_json(obj, where=""):
    if not isinstance(obj, list):
        raise ParseError(f"expected a list of [re, im] pairs at {where}")
    return np.array(
        [pair_to_complex(v, f"{where}[{k}]") for k, v in enumerate(obj)],
        dtype=np.complex128,
    )


def cmatrix_from_json(obj, where=""):
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"expected a nonempty list of rows at {where}")
    rows = [cvector_from_json(row, f"{where}[{k}]") for k, row in enumerate(obj)]
    if len({r.size for r in rows}) != 1:
        raise ParseError(f"ragged matrix at {where}")
    return np.array(rows)


def patch_to_json(patch: Patch):
    return {"x": [patch.x_lo, patch.x_hi], "y": [patch.y_lo, patch.y_hi]}

def patch_from_json(obj, where="patch"):
    try:
        (x_lo, x_hi), (y_lo, y_hi) = obj["x"], obj["y"]
        return Patch(float(x_lo), float(x_hi), float(y_lo), float(y_hi))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad patch spec at {where}: {e}") from e


def fv_to_json(f: FunctionVector):
    return {
        "patch": patch_to_json(f.grid.patch),
        "quad_order": f.grid.order,
        "values": complex_to_pair(f.values),
    }

def fv_from_json(obj, where, grid_cache):
    if not isinstance(obj, dict) or not {"patch", "quad_order", "values"} <= set(obj):
        raise ParseError(f"expected a function vector object at {where}")
    patch = patch_from_json(obj["patch"], f"{where}.patch")
    order = obj["quad_order"]
    if not isinstance(order, int) or order < 1:
        raise ParseError(f"bad quad_order at {where}: {order!r}")
    if (patch, order) not in grid_cache:
        grid_cache[patch, order] = QuadratureGrid(patch, order)
    grid = grid_cache[patch, order]
    values = cvector_from_json(obj["values"], f"{where}.values")
    if values.size != grid.size:
        raise ParseError(
            f"value count {values.size} does not match grid size {grid.size} at {where}"
        )
    return FunctionVector(grid, values)


def family_to_json(rows, grid: QuadratureGrid):
    """Serialized function vectors, one per row of node values on ``grid``."""
    return [fv_to_json(FunctionVector(grid, row)) for row in rows]

def family_from_json(objs, where, grid_cache, key=None):
    """(rows, grid): the node values of a serialized function family stacked
    into one array, and the single grid they all live on, from ``grid_cache``
    when built before. With ``key``, the vectors are the ``key`` fields of the
    objects in ``objs``."""
    suffix = f".{key}" if key else ""
    fvs = [fv_from_json(o[key] if key else o, f"{where}[{k}]{suffix}", grid_cache)
           for k, o in enumerate(objs)]
    grids = {f.grid for f in fvs}
    if len(grids) != 1:
        raise ParseError(f"expected function vectors on one grid at {where}[*]{suffix}, "
                         f"found {len(grids)} grids")
    return np.array([f.values for f in fvs]), grids.pop()


def load_json(path):
    """Read a JSON file, turning syntax errors into ParseError with location."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def dump_json(obj, path):
    """Write deterministic JSON: sorted keys, fixed layout, trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
