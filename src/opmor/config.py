"""Run configuration: the JSON surface shared by the command line tools.

A config file always carries a "model" block

    {"model": {"con_patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]},
               "obs_patch": {"x": [0.6, 0.8], "y": [0.6, 0.8]},
               "n_modes": 12, "quad_order": 28}}

plus optional task blocks: "sample" (sigmas, rhos, right_dirs, left_dirs),
"validate" (tol) and "irka" (order, init_points, init_right_dirs,
init_left_dirs, seed, max_iter, point_tol). Other keys are ignored, but a
sample.conjugate_close other than false is refused. Reports embed the
sha256 of the raw config bytes, tracing a result to the file it came from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import json

from .errors import ParseError
from .funcspace import QuadratureGrid
from .heat2d import FullModel, default_quad_order
from .jsonio import integer, pair_to_complex, patch_from_json


def parse_point(obj, where=""):
    """Interpolation points appear as plain reals or [re, im] pairs, both
    finite."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        obj = [obj, 0.0]
    return pair_to_complex(obj, where, 0)


def build_model(block) -> FullModel:
    """Heat benchmark model from its config block."""
    if not isinstance(block, dict):
        raise ParseError("expected an object at model")
    try:
        con_patch = patch_from_json(block["con_patch"], "model.con_patch")
        obs_patch = patch_from_json(block["obs_patch"], "model.obs_patch")
        n_modes = integer(block["n_modes"], "model.n_modes")
    except KeyError as e:
        raise ParseError(f"model is missing required key {e}") from e
    order = integer(block.get("quad_order", default_quad_order(n_modes)), "model.quad_order")
    return FullModel(
        QuadratureGrid(con_patch, order),
        QuadratureGrid(obs_patch, order),
        n_modes,
    )


@dataclass
class RunConfig:
    raw: dict
    sha256: str

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
    return RunConfig(raw=raw, sha256=hashlib.sha256(data).hexdigest())
