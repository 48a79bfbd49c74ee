"""Explicit Petrov-Galerkin construction in modal coordinates.

This is the ground-truth path for verifying the data-driven assembly: the
trial basis vectors are shifted-resolvent images of the input directions,

    v_j = (sigma_j - A)^{-1} B[p_j],   coefficients <1_con p_j, phi_k> / (sigma_j - lam_k),

and the test functionals are adjoint-resolvent images of the output
directions. Both bases are plain arrays: V is modes x r, one column per
v_j, and W is r x modes, stored row-wise with pairing-ready (conjugated
Riesz) coefficients

    W[i, k] = <phi_k|obs, q_i> / (rho_i - lam_k),

so that every dual pairing becomes a plain matrix product: E_r = W V,
A_r = W (lam * V). The same series also reproduces the input/output maps the
data-driven path reads off from samples, and both paths end in
rom.interpolant, which makes the two routes comparable entry by entry.

Everything here runs at the model's own truncation, so agreement with the
sampled path is limited by rounding, not by series truncation.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .errors import ConditioningError
from .heat2d import FullModel
from .rom import ReducedModel, interpolant
from .samples import directions

RANK_RTOL = 1e-13


def check_rank(name, mat):
    """Raise with Gram diagnostics when the columns of mat (V, or W
    transposed) are numerically dependent."""
    if mat.shape[1] == 0:
        return
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        norms = np.linalg.norm(mat, axis=0)
        gram = (mat.conj().T @ mat) / np.outer(norms, norms)
        raise ConditioningError(
            f"{name} basis is rank deficient: singular values "
            f"{sv[0]:.3e} .. {sv[-1]:.3e}, normalized Gram determinant "
            f"{abs(np.linalg.det(gram)):.3e}"
        )


def build_bases(model: FullModel, sigmas, ps, rhos, qs):
    """Modal trial/test bases V (modes x r) and W (r x modes) for the given
    tangential data, and the data (sigmas, P, rhos, Q) as ReducedModel.data
    holds it: points as arrays, directions as rows on the port grids.

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
    V = model.pair_con(P).T / (sigmas - lam[:, None])
    W = np.conj(model.pair_obs(Q)) / (rhos[:, None] - lam)
    check_rank("V", V)
    check_rank("W", W.T)
    return V, W, (sigmas, P, rhos, Q)


def project_explicit(model: FullModel, V, W, data=None) -> ReducedModel:
    """Petrov-Galerkin reduction E = W V, A = W (lam V), with the input map
    rows and output map columns realized on the model grids.

    The resulting input representers are exactly the adjoint-resolvent
    samples the data-driven path uses, and the output columns the transfer
    samples, whenever V, W and data came from build_bases; with that data,
    conjugate-closed points give the same real realization as
    loewner.assemble. Without data the realization stays complex.
    """
    check_rank("V", V)
    check_rank("W", W.T)
    lam = model.poles.real
    rom = interpolant(W @ V, W @ (lam[:, None] * V), model.expand_con(np.conj(W)),
                      model.expand_obs(V.T), model.con_grid, model.obs_grid, data)
    rom.provenance = {"kind": "projection", "tool_version": __version__, "cond_E": rom.e_cond}
    return rom


def sylvester_residuals(model: FullModel, V, W, data):
    """Relative Frobenius residuals of V diag(sigma) - A V = [B p_1 ... B p_r]
    in modal coordinates and of diag(rho) W - W A = [C* q_1; ...; C* q_r] in
    the same pairing coordinates as W, each 0 for an empty basis; returns
    (right, left)."""
    sigmas, P, rhos, Q = data
    lam = model.poles.real
    B = model.pair_con(P).T
    C = np.conj(model.pair_obs(Q))
    right = V @ np.diag(sigmas) - lam[:, None] * V - B
    left = np.diag(rhos) @ W - W * lam[None, :] - C
    return tuple(float(np.linalg.norm(R)) / float(np.linalg.norm(rhs)) if rhs.size else 0.0
                 for R, rhs in ((right, B), (left, C)))
