"""JSON helpers and field checks shared by config, dataset, model and report files.

Complex data are stored exclusively as [re, im] pairs: a scalar is one
pair, a vector a list of pairs, a matrix a list of such rows. One encoder,
``complex_to_pair``, writes all shapes; one decoder, ``pair_to_complex``,
reads them back as one array and holds every number rule. Function vectors
carry their own grid metadata (patch and per-axis order) so files are
self-describing. Python's float repr round-trips through JSON exactly,
which makes save/load bit-exact; no file holds NaN or Infinity.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ParseError
from .funcspace import Patch, QuadratureGrid


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def complex_to_pair(z):
    """Complex data of any shape as nested lists ending in [re, im] pairs."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def pair_to_complex(obj, where: str, ndim: int):
    """The complex array of ``ndim`` dimensions (0 gives a scalar) that
    complex_to_pair wrote as obj, bit for bit. Raises a ParseError naming
    the field unless obj nests [re, im] pairs of JSON numbers ndim lists
    deep, with no ragged or empty level and every part finite as a float."""
    pairs = np.array(obj, dtype=object)
    if (pairs.ndim != ndim + 1 or pairs.shape[-1] != 2
            or not {type(v) for v in pairs.ravel().tolist()} <= {int, float}):
        nesting = ("an [re, im] pair", "a list of [re, im] pairs", "a list of rows of pairs")[ndim]
        raise ParseError(f"{where} must be {nesting} of JSON numbers")
    try:
        parts = pairs.astype(np.float64)
    except OverflowError as e:
        raise ParseError(f"{where} holds an integer too large for a float") from e
    bad = ~np.isfinite(parts).all(axis=-1)
    if bad.any():
        index = [f"[{i}]" for i in np.argwhere(bad)[0]]
        if "[*]" in where:  # the first index names the row: rights[*].sigma -> rights[1].sigma
            where = where.replace("[*]", index.pop(0), 1)
        raise ParseError(f"{where}{''.join(index)} must be a finite point")
    z = parts.view(np.complex128)[..., 0]
    return z if ndim else z.item()


def integer(value, where: str, allow_zero: bool = False) -> int:
    """value, or a ParseError naming the field unless it is a positive int
    (zero too with ``allow_zero``); a bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < (0 if allow_zero else 1):
        kind = "nonnegative" if allow_zero else "positive"
        raise ParseError(f"{where} must be a {kind} integer, got {value!r}")
    return value


def positive_float(value, where: str) -> float:
    """float(value), or a ParseError naming the field unless value is an int
    or float in (0, largest float]; a bool or a string is not a number here."""
    if not (_is_number(value) and 0 < value <= sys.float_info.max):
        raise ParseError(f"{where} must be positive and finite, got {value!r}")
    return float(value)


def patch_from_json(obj, where="patch"):
    """The Patch of {"x": [lo, hi], "y": [lo, hi]}, whose bounds are JSON
    numbers, or a ParseError naming the field."""
    try:
        (x_lo, x_hi), (y_lo, y_hi) = obj["x"], obj["y"]
        if not all(map(_is_number, (x_lo, x_hi, y_lo, y_hi))):
            raise ValueError("bounds must be JSON numbers")
        return Patch(float(x_lo), float(x_hi), float(y_lo), float(y_hi))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad patch spec at {where}: {e}") from e


def family_to_json(rows, grid: QuadratureGrid):
    """Serialized function vectors, one per row of node values on ``grid``."""
    patch = {"x": [grid.patch.x_lo, grid.patch.x_hi], "y": [grid.patch.y_lo, grid.patch.y_hi]}
    return [{"patch": patch, "quad_order": grid.order, "values": values}
            for values in complex_to_pair(rows)]


def family_from_json(objs, where, key=None):
    """(rows, grid): the node values of a serialized function family as one
    r x nodes array, and the single grid they all live on. With ``key``, the
    vectors are the ``key`` fields of the objects in ``objs``."""
    suffix = f".{key}" if key else ""
    fvs = [o[key] if key else o for o in objs]
    grids = {(patch_from_json(f["patch"], f"{where}[{k}]{suffix}.patch"),
              integer(f["quad_order"], f"{where}[{k}]{suffix}.quad_order"))
             for k, f in enumerate(fvs)}
    if len(grids) != 1:
        raise ParseError(f"expected function vectors on one grid at {where}[*]{suffix}, "
                         f"found {len(grids)} grids")
    grid = QuadratureGrid(*grids.pop())
    rows = pair_to_complex([f["values"] for f in fvs], f"{where}[*]{suffix}.values", 2)
    if rows.shape[1] != grid.size:
        raise ParseError(f"{where}[*]{suffix}.values hold {rows.shape[1]} nodes, not {grid.size}")
    return rows, grid


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
    """Write deterministic JSON: sorted keys, fixed layout, trailing newline.
    A NaN or infinite float raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
