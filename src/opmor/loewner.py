"""Data-driven assembly of the reduced pencil from tangential samples.

Every entry of the reduced matrices is a divided difference of sample
pairings:

    E[i,j] = -(<p_j, Lv_i>_U - <Rv_j, q_i>_Y) / (rho_i - sigma_j)
    A[i,j] = -(rho_i <p_j, Lv_i>_U - sigma_j <Rv_j, q_i>_Y) / (rho_i - sigma_j)

with Rv_j = G(sigma_j)[p_j] and Lv_i = G(rho_i)^+[q_i]. For coincident
pairs (sigma_j = rho_i) the divided differences degenerate into the Hermite
scalar h = <dG/ds(sigma_j)[p_j], q_i>:

    E[i,j] = -h,    A[i,j] = -(<Rv_j, q_i>_Y + sigma_j h).

The input map rows are the left sample values, the output map columns the
right sample values, so the assembled model interpolates the data by
construction. Data conjugate-closed on both sides give the equivalent real
realization (rom.interpolant), where a pair's input rows and output columns
are sqrt(2) times the real and imaginary parts of its first sample. No model
evaluations happen here; the dataset is the only input. assemble records no
dataset_hash: the callers that keep a model (cli reduce, irka.run) do.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from . import __version__
from .rom import ReducedModel, interpolant
from .samples import TangentialDataset

COND_WARN = 1e8


def _matrices(dataset: TangentialDataset):
    sig = dataset.sigmas
    rho = dataset.rhos
    # gq[i,j] = <Rv_j, q_i>_Y and pg[i,j] = <p_j, Lv_i>_U
    gq = (np.conj(dataset.Q) * dataset.y_grid.weights) @ dataset.right_values.T
    pg = (np.conj(dataset.left_values) * dataset.u_grid.weights) @ dataset.P.T
    d = rho[:, None] - sig[None, :]
    # coincident pairs divide by ~0 here; their entries are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        E = -(pg - gq) / d
        A = -(rho[:, None] * pg - sig[None, :] * gq) / d
    for (i, j), h in dataset.hermites.items():
        E[i, j] = -h
        A[i, j] = -(gq[i, j] + sig[j] * h)
    return E, A


def dataset_hash(dataset: TangentialDataset) -> str:
    """Machine-independent sha256 of a header (each grid's patch bounds and
    quadrature order, coincidence_tol, the hermite keys sorted by (i, j)),
    then of sigmas, P, right_values, rhos, Q, left_values and the hermite
    values in key order as little-endian complex128 bytes. A dataset and
    the one samples.load reads back from its saved file hash the same."""
    keys = sorted((int(i), int(j)) for i, j in dataset.hermites)
    header = [[float(v) for v in (g.patch.x_lo, g.patch.x_hi, g.patch.y_lo, g.patch.y_hi)]
              + [g.order] for g in (dataset.u_grid, dataset.y_grid)]
    digest = hashlib.sha256(repr(header + [float(dataset.coincidence_tol), keys]).encode())
    for arr in (dataset.sigmas, dataset.P, dataset.right_values, dataset.rhos, dataset.Q,
                dataset.left_values, [dataset.hermites[k] for k in keys]):
        digest.update(np.asarray(arr, dtype="<c16").tobytes())
    return digest.hexdigest()


def assemble(dataset: TangentialDataset) -> ReducedModel:
    """Build the interpolatory reduced model from a tangential dataset.

    The ReducedModel constructor rejects an E whose condition estimate
    exceeds rom.COND_LIMIT; assembly warns above COND_WARN. The model keeps
    its tangential data, so a saved model can be re-validated against a
    model config alone. Assembly records no dataset hash: a caller that
    keeps the model records dataset_hash(dataset) in its provenance.
    """
    dataset.validate()
    rom = interpolant(*_matrices(dataset), dataset.left_values, dataset.right_values,
                      dataset.u_grid, dataset.y_grid,
                      (dataset.sigmas, dataset.P, dataset.rhos, dataset.Q))
    if rom.e_cond > COND_WARN:
        warnings.warn(
            f"assembled E has condition estimate {rom.e_cond:.3e}; results may lose "
            f"{np.log10(rom.e_cond):.0f} digits",
            stacklevel=2,
        )
    rom.provenance = {
        "kind": "loewner",
        "tool_version": __version__,
        "coincidence_tol": dataset.coincidence_tol,
        "cond_E": rom.e_cond,
    }
    return rom
