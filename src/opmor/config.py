"""Run configuration: the JSON surface shared by the command line tools.

A config file always carries a "model" block

    {"model": {"con_patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]},
               "obs_patch": {"x": [0.6, 0.8], "y": [0.6, 0.8]},
               "n_modes": 12, "quad_order": 28}}

plus optional task blocks: "sample" (sigmas, rhos, right_dirs, left_dirs,
conjugate_close), "validate" (tol) and "irka" (order, init_points,
init_right_dirs, init_left_dirs, seed, max_iter, point_tol). Other keys are
ignored. Reports embed the sha256 of the raw config bytes so a result can
always be traced to the exact file that produced it.
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass

import json

from .errors import ParseError
from .funcspace import QuadratureGrid
from .heat2d import FullModel, default_quad_order
from .jsonio import pair_to_complex, patch_from_json


def finite_point(z: complex, where: str) -> complex:
    """z, or a ParseError naming the field when a part is NaN or infinite."""
    if not cmath.isfinite(z):
        raise ParseError(f"{where} must be a finite point, got {z}")
    return z


def parse_point(obj, where=""):
    """Interpolation points appear as plain reals or [re, im] pairs, both
    finite."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        obj = [obj, 0.0]
    return finite_point(pair_to_complex(obj, where), where)


def integer(value, where: str, allow_zero: bool = False) -> int:
    """value, or a ParseError naming the field unless it is a positive int
    (zero too with ``allow_zero``); a bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < (0 if allow_zero else 1):
        kind = "nonnegative" if allow_zero else "positive"
        raise ParseError(f"{where} must be a {kind} integer, got {value!r}")
    return value


def positive_float(value, where: str) -> float:
    """float(value), or a ParseError naming the field unless value is a
    finite positive int or float; a bool or a string is not a number here."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value < float("inf")):
        raise ParseError(f"{where} must be positive and finite, got {value!r}")
    return float(value)


def build_model(block, where="model") -> FullModel:
    """Heat benchmark model from its config block."""
    if not isinstance(block, dict):
        raise ParseError(f"expected an object at {where}")
    try:
        con_patch = patch_from_json(block["con_patch"], f"{where}.con_patch")
        obs_patch = patch_from_json(block["obs_patch"], f"{where}.obs_patch")
        n_modes = integer(block["n_modes"], f"{where}.n_modes")
    except KeyError as e:
        raise ParseError(f"{where} is missing required key {e}") from e
    order = integer(block.get("quad_order", default_quad_order(n_modes)), f"{where}.quad_order")
    return FullModel(
        QuadratureGrid(con_patch, order),
        QuadratureGrid(obs_patch, order),
        n_modes,
    )


@dataclass
class RunConfig:
    raw: dict
    sha256: str
    path: str

    @property
    def model_block(self) -> dict:
        return self.raw["model"]

    def task(self, name: str) -> dict:
        block = self.raw.get(name, {})
        if not isinstance(block, dict):
            raise ParseError(f"config block {name!r} must be an object")
        return block


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict) or "model" not in raw:
        raise ParseError(f"config {path} must be an object with a 'model' block")
    return RunConfig(raw=raw, sha256=hashlib.sha256(data).hexdigest(), path=str(path))
