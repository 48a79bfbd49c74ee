"""Tangential interpolation data: acquisition, validation, persistence.

A dataset of order r holds r right samples (sigma_j, p_j, G(sigma_j)[p_j]),
r left samples (rho_i, q_i, G(rho_i)^+[q_i]) and, for every pair with
sigma_j = rho_i (within the coincidence tolerance), the Hermite scalar
<dG/ds(sigma_j)[p_j], q_i>. Downstream assembly consumes nothing but this
object, so anything the reduction needs must be sampled here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, ParseError
from .funcspace import FunctionVector, QuadratureGrid, constant, inner_product, restrict_mode
from .jsonio import (
    complex_to_pair,
    dump_json,
    fv_from_json,
    fv_to_json,
    load_json,
    pair_to_complex,
)

DEFAULT_COINCIDENCE_TOL = 1e-10
NEAR_COINCIDENCE_WARN = 1e-6


@dataclass
class RightSample:
    """Right tangential sample: value = G(sigma)[p], a Y-space vector."""

    sigma: complex
    p: FunctionVector
    value: FunctionVector


@dataclass
class LeftSample:
    """Left tangential sample: value = G(rho)^+[q], a U-space vector."""

    rho: complex
    q: FunctionVector
    value: FunctionVector


@dataclass
class HermiteSample:
    """Bilinear derivative sample <dG/ds(sigma_j)[p_j], q_i> for a coincident
    pair; indices are 0-based into lefts (i) and rights (j)."""

    i: int
    j: int
    value: complex


def coincident_pairs(sigmas, rhos, tol):
    """All (i, j) with |sigma_j - rho_i| < tol, ordered by i, then j."""
    gaps = np.abs(np.asarray(sigmas, dtype=np.complex128)[None, :]
                  - np.asarray(rhos, dtype=np.complex128)[:, None])
    return [(int(i), int(j)) for i, j in np.argwhere(gaps < tol)]


@dataclass
class TangentialDataset:
    rights: list
    lefts: list
    hermites: list = field(default_factory=list)
    coincidence_tol: float = DEFAULT_COINCIDENCE_TOL

    @property
    def r(self) -> int:
        return len(self.rights)

    @property
    def sigmas(self):
        return np.array([s.sigma for s in self.rights], dtype=np.complex128)

    @property
    def rhos(self):
        return np.array([s.rho for s in self.lefts], dtype=np.complex128)

    def validate(self):
        """Check the structural invariants; raises DatasetError on violation."""
        if len(self.rights) == 0:
            raise DatasetError("dataset has no samples")
        if len(self.rights) != len(self.lefts):
            k = min(len(self.rights), len(self.lefts))
            side = "left" if len(self.lefts) < len(self.rights) else "right"
            raise DatasetError(
                f"sample count mismatch: {len(self.rights)} right vs "
                f"{len(self.lefts)} left; {side} sample {k} is missing"
            )
        u_grid = self.rights[0].p.grid
        y_grid = self.rights[0].value.grid
        for j, s in enumerate(self.rights):
            if s.p.norm() == 0:
                raise DatasetError(f"right direction {j} is zero")
            if s.p.grid != u_grid or s.value.grid != y_grid:
                raise DatasetError(f"right sample {j} lives on an inconsistent grid")
        for i, s in enumerate(self.lefts):
            if s.q.norm() == 0:
                raise DatasetError(f"left direction {i} is zero")
            if s.q.grid != y_grid or s.value.grid != u_grid:
                raise DatasetError(f"left sample {i} lives on an inconsistent grid")
        need = set(coincident_pairs(self.sigmas, self.rhos, self.coincidence_tol))
        have = set()
        for h in self.hermites:
            if not (0 <= h.i < len(self.lefts) and 0 <= h.j < len(self.rights)):
                raise DatasetError(f"hermite sample has out-of-range indices ({h.i}, {h.j})")
            have.add((h.i, h.j))
        if len(have) != len(self.hermites):
            raise DatasetError("duplicate hermite entries")
        missing = need - have
        if missing:
            i, j = sorted(missing)[0]
            raise DatasetError(
                f"coincident pair (left {i}, right {j}) has no hermite sample"
            )
        spurious = have - need
        if spurious:
            i, j = sorted(spurious)[0]
            raise DatasetError(
                f"hermite sample at (left {i}, right {j}) does not match any coincident pair"
            )


def make_direction(spec, grid: QuadratureGrid) -> FunctionVector:
    """Build a direction from a config string.

    Supported forms: ``mode:n,m`` (restricted sine mode, unnormalized),
    ``const`` (constant, unit norm), ``random:seed`` (complex Gaussian node
    values from the fixed seed, unit norm).
    """
    if isinstance(spec, FunctionVector):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"direction spec must be a string or FunctionVector, got {type(spec).__name__}"
        )
    if spec == "const":
        f = constant(grid)
        return f * (1.0 / f.norm())
    if spec.startswith("mode:"):
        try:
            n, m = (int(v) for v in spec[len("mode:"):].split(","))
        except ValueError as e:
            raise ValueError(f"bad mode direction spec {spec!r}") from e
        return restrict_mode(n, m, grid)
    if spec.startswith("random:"):
        try:
            seed = int(spec[len("random:"):])
        except ValueError as e:
            raise ValueError(f"bad random direction spec {spec!r}") from e
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        f = FunctionVector(grid, vals)
        return f * (1.0 / f.norm())
    raise ValueError(f"unknown direction spec {spec!r}")


def conjugate_closure(points, dirs):
    """Append conjugates of strictly complex points (and directions) that lack
    a conjugate partner, preserving input order."""
    pts = [complex(s) for s in points]
    out_p, out_d = list(pts), [d for d in dirs]
    for s, d in zip(pts, dirs):
        if s.imag == 0:
            continue
        if not any(abs(t - np.conj(s)) < 1e-14 * max(1.0, abs(s)) for t in out_p):
            out_p.append(np.conj(s))
            out_d.append(d.conj())
    return out_p, out_d


def is_conjugate_closed(dataset: TangentialDataset, rtol=1e-12) -> bool:
    """True when every sample has a conjugate partner with conjugated
    direction, so the dataset supports a real realization."""

    def closed(points, dirs):
        for s, d in zip(points, dirs):
            scale = max(1.0, abs(s))
            ok = any(
                abs(t - np.conj(s)) < rtol * scale
                and (e - d.conj()).norm() <= rtol * max(1.0, d.norm())
                for t, e in zip(points, dirs)
            )
            if not ok:
                return False
        return True

    return closed(dataset.sigmas, [s.p for s in dataset.rights]) and closed(
        dataset.rhos, [s.q for s in dataset.lefts]
    )


def collect(model, sigmas, ps, rhos, qs,
            coincidence_tol=DEFAULT_COINCIDENCE_TOL,
            conjugate_close=False) -> TangentialDataset:
    """Evaluate the full model at the requested tangential data.

    Directions may be FunctionVectors or config spec strings. Points must be
    off the spectrum (the model's pole tolerance applies). With
    ``conjugate_close=True``, missing conjugate partners are appended to both
    point lists before sampling.
    """
    if len(sigmas) != len(ps) or len(rhos) != len(qs):
        raise ValueError("point and direction lists must have equal length")
    if len(sigmas) == 0 or len(rhos) == 0:
        raise ValueError("need at least one right and one left point")
    ps = [make_direction(p, model.con_grid) for p in ps]
    qs = [make_direction(q, model.obs_grid) for q in qs]
    if conjugate_close:
        sigmas, ps = conjugate_closure(sigmas, ps)
        rhos, qs = conjugate_closure(rhos, qs)
    if len(sigmas) != len(rhos):
        raise ValueError(
            f"right and left point counts differ ({len(sigmas)} vs {len(rhos)}); "
            "square data is required for assembly"
        )
    for j, p in enumerate(ps):
        if p.norm() == 0:
            raise ValueError(f"right direction {j} is zero")
    for i, q in enumerate(qs):
        if q.norm() == 0:
            raise ValueError(f"left direction {i} is zero")

    rights = [
        RightSample(complex(s), p, model.apply_tf(s, p)) for s, p in zip(sigmas, ps)
    ]
    lefts = [
        LeftSample(complex(r), q, model.apply_tf_adjoint(r, q)) for r, q in zip(rhos, qs)
    ]
    hermites = [
        HermiteSample(i, j, inner_product(model.apply_tf_derivative(sigmas[j], ps[j]), qs[i]))
        for i, j in coincident_pairs(sigmas, rhos, coincidence_tol)
    ]
    for i, j in coincident_pairs(sigmas, rhos, NEAR_COINCIDENCE_WARN):
        sig, rho = complex(sigmas[j]), complex(rhos[i])
        if abs(sig - rho) >= coincidence_tol:
            warnings.warn(
                f"points sigma_{j}={sig} and rho_{i}={rho} are {abs(sig - rho):.2e} "
                "apart: nearly coincident data is ill-conditioned",
                stacklevel=2,
            )
    ds = TangentialDataset(rights, lefts, hermites, coincidence_tol)
    ds.validate()
    return ds


def to_json(dataset: TangentialDataset) -> dict:
    """The dataset as the JSON-plain object of the file format."""
    return {
        "r": dataset.r,
        "coincidence_tol": dataset.coincidence_tol,
        "rights": [
            {
                "sigma": complex_to_pair(s.sigma),
                "p": fv_to_json(s.p),
                "value": fv_to_json(s.value),
            }
            for s in dataset.rights
        ],
        "lefts": [
            {
                "rho": complex_to_pair(s.rho),
                "q": fv_to_json(s.q),
                "value": fv_to_json(s.value),
            }
            for s in dataset.lefts
        ],
        "hermites": [
            {"i": h.i, "j": h.j, "value": complex_to_pair(h.value)}
            for h in dataset.hermites
        ],
    }


def save(dataset: TangentialDataset, path):
    dataset.validate()
    dump_json(to_json(dataset), path)


def load(path) -> TangentialDataset:
    obj = load_json(path)
    cache = {}
    try:
        rights = [
            RightSample(
                pair_to_complex(s["sigma"], f"rights[{j}].sigma"),
                fv_from_json(s["p"], f"rights[{j}].p", cache),
                fv_from_json(s["value"], f"rights[{j}].value", cache),
            )
            for j, s in enumerate(obj["rights"])
        ]
        lefts = [
            LeftSample(
                pair_to_complex(s["rho"], f"lefts[{i}].rho"),
                fv_from_json(s["q"], f"lefts[{i}].q", cache),
                fv_from_json(s["value"], f"lefts[{i}].value", cache),
            )
            for i, s in enumerate(obj["lefts"])
        ]
        hermites = [
            HermiteSample(int(h["i"]), int(h["j"]), pair_to_complex(h["value"], f"hermites[{k}].value"))
            for k, h in enumerate(obj.get("hermites", []))
        ]
        tol = float(obj.get("coincidence_tol", DEFAULT_COINCIDENCE_TOL))
        declared_r = int(obj["r"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: missing or malformed field: {e}") from e
    ds = TangentialDataset(rights, lefts, hermites, tol)
    if declared_r != ds.r:
        raise DatasetError(
            f"{path}: declared order r={declared_r} but found {ds.r} right samples"
        )
    ds.validate()
    return ds
