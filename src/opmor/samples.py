"""Tangential interpolation data: acquisition, validation, persistence.

A dataset of order r holds r right samples (sigma_j, p_j, G(sigma_j)[p_j]),
r left samples (rho_i, q_i, G(rho_i)^+[q_i]) and, for every pair with
sigma_j = rho_i (within the coincidence tolerance), the Hermite scalar
<dG/ds(sigma_j)[p_j], q_i>. Downstream assembly consumes nothing but this
object, so anything the reduction needs must be sampled here, and
``collect`` samples exactly the points and directions it is given. It checks
itself when built; ``load`` reads back bit-exactly what ``save`` writes.
"""

from __future__ import annotations

import types
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, ParseError
from .funcspace import QuadratureGrid, inner_product, restrict_mode, row_norms
from .jsonio import (
    complex_to_pair,
    dump_json,
    family_from_json,
    family_to_json,
    integer,
    load_json,
    pair_to_complex,
    positive_float,
)

DEFAULT_COINCIDENCE_TOL = 1e-10
NEAR_COINCIDENCE_WARN = 1e-6


def coincident_pairs(sigmas, rhos, tol):
    """All (i, j) with |sigma_j - rho_i| < tol, ordered by i, then j."""
    gaps = np.abs(np.asarray(sigmas, dtype=np.complex128)[None, :]
                  - np.asarray(rhos, dtype=np.complex128)[:, None])
    return [(int(i), int(j)) for i, j in np.argwhere(gaps < tol)]


@dataclass(frozen=True)
class TangentialDataset:
    """Tangential data of order r as stacked node-value arrays.

    Row j of ``P`` is p_j on ``u_grid`` and row j of ``right_values`` is
    G(sigma_j)[p_j] on ``y_grid``; row i of ``Q`` is q_i on ``y_grid`` and
    row i of ``left_values`` is G(rho_i)^+[q_i] on ``u_grid``. ``hermites``
    maps each coincident pair (i, j) to its Hermite scalar, in (i, j) order.
    Construction raises DatasetError for no samples, unequal counts, a wrong
    shape or a missing or spurious Hermite entry, then keeps read-only views
    of the six arrays and a read-only mapping of the Hermite entries, so the
    checked data cannot change; ``directions`` checks rows for zero on entry.
    """

    sigmas: np.ndarray
    rhos: np.ndarray
    P: np.ndarray
    right_values: np.ndarray
    Q: np.ndarray
    left_values: np.ndarray
    u_grid: QuadratureGrid
    y_grid: QuadratureGrid
    hermites: dict = field(default_factory=dict)
    coincidence_tol: float = DEFAULT_COINCIDENCE_TOL

    @property
    def r(self) -> int:
        return self.sigmas.size

    def __post_init__(self):
        r, n_left = self.sigmas.size, self.rhos.size
        if r == 0:
            raise DatasetError("dataset has no samples")
        if r != n_left:
            side = "left" if n_left < r else "right"
            raise DatasetError(
                f"sample count mismatch: {r} right vs {n_left} left; "
                f"{side} sample {min(r, n_left)} is missing"
            )
        for name, rows, grid in (("P", self.P, self.u_grid),
                                 ("right_values", self.right_values, self.y_grid),
                                 ("Q", self.Q, self.y_grid),
                                 ("left_values", self.left_values, self.u_grid)):
            if rows.shape != (r, grid.size):
                raise DatasetError(f"{name} has shape {rows.shape}, expected {(r, grid.size)}")
        need = set(coincident_pairs(self.sigmas, self.rhos, self.coincidence_tol))
        missing = sorted(need - set(self.hermites))
        if missing:
            i, j = missing[0]
            raise DatasetError(
                f"coincident pair (left {i}, right {j}) has no hermite sample"
            )
        spurious = sorted(set(self.hermites) - need)
        if spurious:
            i, j = spurious[0]
            raise DatasetError(
                f"hermite sample at (left {i}, right {j}) does not match any coincident pair"
            )
        for name in ("sigmas", "rhos", "P", "right_values", "Q", "left_values"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        object.__setattr__(self, "hermites",
                           types.MappingProxyType(dict(sorted(self.hermites.items()))))


def make_direction(spec, grid: QuadratureGrid):
    """Node values on grid of a direction given by a config string.

    Supported forms: ``mode:n,m`` (restricted sine mode, unnormalized),
    ``const`` (constant, unit norm), ``random:seed`` (complex Gaussian node
    values from the fixed seed, unit norm).
    """
    if not isinstance(spec, str):
        raise ValueError(f"direction spec must be a string, got {type(spec).__name__}")
    if spec.startswith("mode:"):
        try:
            n, m = (int(v) for v in spec[len("mode:"):].split(","))
        except ValueError as e:
            raise ValueError(f"bad mode direction spec {spec!r}") from e
        return restrict_mode(n, m, grid)
    if spec == "const":
        vals = np.ones(grid.size, dtype=np.complex128)
    elif spec.startswith("random:"):
        try:
            seed = int(spec[len("random:"):])
        except ValueError as e:
            raise ValueError(f"bad random direction spec {spec!r}") from e
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    else:
        raise ValueError(f"unknown direction spec {spec!r}")
    return vals * (1.0 / row_norms(vals, grid))


def directions(specs, grid: QuadratureGrid, side: str) -> np.ndarray:
    """Stacked node-value rows (r x nodes) of tangential directions on grid:
    an r x nodes array passes through, other entries are spec strings (see
    make_direction) or rows on grid. Raises ValueError for a wrong node
    count or a zero direction, naming the side and index."""
    if not isinstance(specs, np.ndarray):
        specs = [d if isinstance(d, np.ndarray) else make_direction(d, grid) for d in specs]
    rows = np.asarray(specs, dtype=np.complex128).reshape(len(specs), grid.size)
    zero = np.flatnonzero(row_norms(rows, grid) == 0)
    if zero.size:
        raise ValueError(f"{side} direction {zero[0]} is zero")
    return rows


def collect(model, sigmas, ps, rhos, qs) -> TangentialDataset:
    """Evaluate the full model at exactly the requested tangential data.

    Directions are anything ``directions`` accepts. Points must be off the
    spectrum (the model's pole tolerance applies). The dataset's
    construction refuses data with no samples or unequal right and left
    counts (DatasetError).
    """
    if len(sigmas) != len(ps) or len(rhos) != len(qs):
        raise ValueError("point and direction lists must have equal length")
    P = directions(ps, model.con_grid, "right")
    Q = directions(qs, model.obs_grid, "left")
    right_values = np.array([model.apply_tf(s, p) for s, p in zip(sigmas, P)])
    left_values = np.array([model.apply_tf_adjoint(t, q) for t, q in zip(rhos, Q)])
    hermites = {
        (i, j): inner_product(model.apply_tf_derivative(sigmas[j], P[j]), Q[i], model.obs_grid)
        for i, j in coincident_pairs(sigmas, rhos, DEFAULT_COINCIDENCE_TOL)
    }
    for i, j in coincident_pairs(sigmas, rhos, NEAR_COINCIDENCE_WARN):
        if (i, j) not in hermites:
            sig, rho = complex(sigmas[j]), complex(rhos[i])
            warnings.warn(
                f"points sigma_{j}={sig} and rho_{i}={rho} are {abs(sig - rho):.2e} "
                "apart: nearly coincident data is ill-conditioned",
                stacklevel=2,
            )
    return TangentialDataset(
        np.array(sigmas, dtype=np.complex128), np.array(rhos, dtype=np.complex128),
        P, right_values, Q, left_values, model.con_grid, model.obs_grid, hermites,
    )


def save(dataset: TangentialDataset, path):
    dump_json({
        "r": dataset.r,
        "coincidence_tol": dataset.coincidence_tol,
        "rights": [
            {"sigma": s, "p": p, "value": v}
            for s, p, v in zip(complex_to_pair(dataset.sigmas),
                               family_to_json(dataset.P, dataset.u_grid),
                               family_to_json(dataset.right_values, dataset.y_grid))
        ],
        "lefts": [
            {"rho": t, "q": q, "value": v}
            for t, q, v in zip(complex_to_pair(dataset.rhos),
                               family_to_json(dataset.Q, dataset.y_grid),
                               family_to_json(dataset.left_values, dataset.u_grid))
        ],
        "hermites": [
            {"i": i, "j": j, "value": complex_to_pair(h)}
            for (i, j), h in dataset.hermites.items()
        ],
    }, path)


def load(path) -> TangentialDataset:
    """The dataset ``save`` wrote to path, bit for bit; a zero direction row
    raises ValueError, as ``directions`` does."""
    obj = load_json(path)
    try:
        rights, lefts = obj["rights"], obj["lefts"]
        sigmas = pair_to_complex([s["sigma"] for s in rights], "rights[*].sigma", 1)
        rhos = pair_to_complex([s["rho"] for s in lefts], "lefts[*].rho", 1)
        P, u_grid = family_from_json(rights, "rights", "p")
        right_values, y_grid = family_from_json(rights, "rights", "value")
        Q, q_grid = family_from_json(lefts, "lefts", "q")
        left_values, lv_grid = family_from_json(lefts, "lefts", "value")
        hermites = {}
        for k, h in enumerate(obj.get("hermites", [])):
            key = (integer(h["i"], f"hermites[{k}].i", allow_zero=True),
                   integer(h["j"], f"hermites[{k}].j", allow_zero=True))
            if key in hermites:
                raise ParseError(f"{path}: duplicate hermite entry at (left {key[0]}, right {key[1]})")
            hermites[key] = pair_to_complex(h["value"], f"hermites[{k}].value", 0)
        tol = positive_float(obj.get("coincidence_tol", DEFAULT_COINCIDENCE_TOL),
                             "coincidence_tol")
        declared_r = integer(obj["r"], "r")
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: missing or malformed field: {e}") from e
    if q_grid != y_grid or lv_grid != u_grid:
        raise ParseError(
            f"{path}: left directions must live on the right values' grid and "
            "left values on the right directions' grid"
        )
    ds = TangentialDataset(sigmas, rhos, directions(P, u_grid, "right"), right_values,
                           directions(Q, y_grid, "left"), left_values, u_grid, y_grid,
                           hermites, tol)
    if declared_r != ds.r:
        raise DatasetError(
            f"{path}: declared order r={declared_r} but found {ds.r} right samples"
        )
    return ds
