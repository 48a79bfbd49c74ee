"""Explicit Petrov-Galerkin construction in modal coordinates.

This is the ground-truth path for verifying the data-driven assembly: the
trial basis vectors are shifted-resolvent images of the input directions,

    v_j = (sigma_j - A)^{-1} B[p_j],   coefficients <1_con p_j, phi_k> / (sigma_j - lam_k),

and the test functionals are adjoint-resolvent images of the output
directions. W is stored row-wise with pairing-ready (conjugated Riesz)
coefficients

    W[i, k] = <phi_k|obs, q_i> / (rho_i - lam_k),

so that every dual pairing becomes a plain matrix product: E_r = W V,
A_r = W (lam * V). The same series also reproduces the input/output maps the
data-driven path reads off from samples, which makes the two routes
comparable entry by entry.

Everything here runs at the model's own truncation, so agreement with the
sampled path is limited by rounding, not by series truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConditioningError
from .heat2d import FullModel
from .rom import ReducedModel, real_realization
from .samples import conjugate_transform, directions

RANK_RTOL = 1e-13


@dataclass
class ModalBasisMatrix:
    """Modal-coordinate basis: columns of V (modes x r) or rows of W (r x modes).

    ``points`` and ``directions`` (stacked node-value rows) record where the
    basis came from; they are None for synthetic (e.g. random test) bases.
    """

    kind: str  # "V" or "W"
    coeffs: np.ndarray
    points: Optional[np.ndarray] = None
    directions: Optional[np.ndarray] = None

    def check_rank(self):
        """Raise with Gram diagnostics when columns/rows are numerically
        dependent."""
        mat = self.coeffs if self.kind == "V" else self.coeffs.T
        if mat.shape[1] == 0:
            return
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            norms = np.linalg.norm(mat, axis=0)
            gram = (mat.conj().T @ mat) / np.outer(norms, norms)
            raise ConditioningError(
                f"{self.kind} basis is rank deficient: singular values "
                f"{sv[0]:.3e} .. {sv[-1]:.3e}, normalized Gram determinant "
                f"{abs(np.linalg.det(gram)):.3e}"
            )


def build_bases(model: FullModel, sigmas, ps, rhos, qs):
    """Modal trial/test bases for the given tangential data.

    Directions are anything samples.directions accepts. Points must be off
    the retained spectrum; duplicate (point, direction) pairs produce a
    rank-deficiency error.
    """
    if len(sigmas) != len(ps) or len(rhos) != len(qs):
        raise ValueError("point and direction lists must have equal length")
    P = directions(ps, model.con_grid, "right")
    Q = directions(qs, model.obs_grid, "left")
    sigmas = np.array([model._check_point(s) for s in sigmas], dtype=complex)
    rhos = np.array([model._check_point(t) for t in rhos], dtype=complex)
    lam = model.poles.real
    V = ModalBasisMatrix("V", model.pair_con(P).T / (sigmas - lam[:, None]), sigmas, P)
    W = ModalBasisMatrix("W", np.conj(model.pair_obs(Q)) / (rhos[:, None] - lam), rhos, Q)
    V.check_rank()
    W.check_rank()
    return V, W


def project_explicit(model: FullModel, V: ModalBasisMatrix, W: ModalBasisMatrix) -> ReducedModel:
    """Petrov-Galerkin reduction E = W V, A = W (lam V), with the input map
    rows and output map columns realized on the model grids.

    The resulting input representers are exactly the adjoint-resolvent
    samples the data-driven path uses, and the output columns the transfer
    samples, whenever V and W came from build_bases; conjugate-closed
    recorded data give the same real realization as loewner.assemble.
    """
    V.check_rank()
    W.check_rank()
    lam = model.poles.real
    E = W.coeffs @ V.coeffs
    A = W.coeffs @ (lam[:, None] * V.coeffs)
    B = model.expand_con(np.conj(W.coeffs))
    C = model.expand_obs(V.coeffs.T)
    data = None
    if V.points is not None and W.points is not None:
        data = (V.points, V.directions, W.points, W.directions)
        TL = conjugate_transform(W.points, W.directions, model.obs_grid)
        TR = conjugate_transform(V.points, V.directions, model.con_grid)
        if TL is not None and TR is not None:
            E, A, B, C = real_realization(E, A, B, C, TL, TR)
    rom = ReducedModel(E, A, B, C, model.con_grid, model.obs_grid, data=data)
    rom.provenance = {"kind": "projection", "tool_version": __version__, "cond_E": rom.e_cond}
    return rom


def sylvester_residual_right(model: FullModel, V: ModalBasisMatrix, sigmas, ps):
    """Frobenius residual of V diag(sigma) - A V = [B p_1 ... B p_r] in modal
    coordinates; returns (absolute, relative)."""
    B = model.pair_con(directions(ps, model.con_grid, "right")).T
    if B.size == 0:
        return 0.0, 0.0
    lam = model.poles.real
    R = V.coeffs @ np.diag(np.asarray(sigmas, dtype=complex)) - lam[:, None] * V.coeffs - B
    absres = float(np.linalg.norm(R))
    return absres, absres / float(np.linalg.norm(B))


def sylvester_residual_left(model: FullModel, W: ModalBasisMatrix, rhos, qs):
    """Frobenius residual of diag(rho) W - W A = [C* q_1; ...; C* q_r] in the
    same pairing coordinates as W; returns (absolute, relative)."""
    C = np.conj(model.pair_obs(directions(qs, model.obs_grid, "left")))
    if C.size == 0:
        return 0.0, 0.0
    lam = model.poles.real
    R = np.diag(np.asarray(rhos, dtype=complex)) @ W.coeffs - W.coeffs * lam[None, :] - C
    absres = float(np.linalg.norm(R))
    return absres, absres / float(np.linalg.norm(C))

