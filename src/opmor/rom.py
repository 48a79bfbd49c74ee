"""Reduced-order models: degree-r rational transfer functions between the
same function spaces as the full model.

A ReducedModel is the tuple (E, A, B, C): the input map sends p to the
vector of pairings <p, b_i>_U with the rows b_i of B, the pencil solve
applies (sE - A)^{-1}, and the output map combines the rows c_j of C. A
point evaluation (interpolation checks) factors sE - A by SVD once per point
and model, keeping the last 2r points: the smallest singular value decides
whether s is a pole, and the same kept factors apply the inverse, its
adjoint, or the inverse twice with E in between for the derivative,
whichever kind is evaluated there and however often. h2's frequency
quadrature factors its many nodes through the unkept ReducedModel._factor
instead. The pole-residue decomposition turns the pencil into r scalar poles
with tangential directions as a models.PoleFactorModel, computed once per
model; the IRKA update, the closed-form H2 quantities (stability included)
and the time stepper, PoleFactorModel.simulate, run on that form. Both
interpolatory constructions build their model through interpolant, which
realizes data conjugate-closed in point and direction (conjugate_transform)
in real form. A real pencil is diagonalized in real arithmetic, so its poles
come in bitwise-conjugate pairs; with real ports too, each pair's residues
are set pairwise to exact conjugates, and a real pole's residues are real.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConditioningError,
    ParseError,
    SemiSimplicityError,
    SingularSolveError,
)
from .funcspace import row_norms
from .jsonio import (complex_to_pair, dump_json, family_from_json, family_to_json, integer,
                     load_json, pair_to_complex)
from .models import PoleFactorModel

# relative eigenvalue separation below which a pencil is treated as defective
POLE_SEPARATION_RTOL = 1e-8

CONJUGATE_RTOL = 1e-12  # relative match of a conjugate partner's point and direction

# largest cond(E) a reduced model accepts; nothing is regularized silently
COND_LIMIT = 1e12

# s*E - A counts as singular when its smallest singular value drops below
# this fraction of the pencil scale |s|*||E|| + ||A||
SOLVE_RTOL = 1e-13


def _solve(factors, b):
    """(sE - A)^{-1} b = V ((U^H b) / sv) from the SVD factors (U, sv, Vh)
    of sE - A, applied one by one: a product of the factors, an explicit
    inverse, loses about two digits at the sample points. Conjugating the
    vectors rather than the factors saves two matrix copies."""
    U, sv, Vh = factors
    return np.conj(((np.conj(b) @ U) / sv) @ Vh)


class ReducedModel:
    """Petrov-Galerkin style reduced system with function-valued ports.

    Row i of ``B`` holds the node values of the Riesz representer b_i of row
    i of the reduced input map (so B_r[p]_i = <p, b_i>_U) on ``u_grid``; row j
    of ``C`` holds the image c_j of reduced basis vector j under the output
    map on ``y_grid``. ``provenance`` is a JSON-plain dict recorded into the
    file format unchanged. ``data`` is None or the tangential data (sigmas,
    P, rhos, Q), directions as rows on the port grids, the same tuple
    projection.build_bases returns; only ``save`` and ``load`` encode it.
    ``e_cond`` is cond(E); the constructor raises ConditioningError when it
    is not finite or above COND_LIMIT. The matrices are read-only, so the
    pole-residue form and the pencil factors of the last 2r evaluated points
    are computed once and kept with the model.
    """

    def __init__(self, E, A, B, C, u_grid, y_grid, provenance=None, data=None):
        E = np.array(E, dtype=np.complex128)
        A = np.array(A, dtype=np.complex128)
        if E.ndim != 2 or E.shape[0] != E.shape[1] or E.shape != A.shape:
            raise ValueError(f"E and A must be square matrices of equal size, got {E.shape} and {A.shape}")
        r = E.shape[0]
        B = np.array(B, dtype=np.complex128)
        C = np.array(C, dtype=np.complex128)
        if B.shape != (r, u_grid.size) or C.shape != (r, y_grid.size):
            raise ValueError(
                f"need {r} input representers on {u_grid.size} nodes and {r} output "
                f"columns on {y_grid.size} nodes, got shapes {B.shape} and {C.shape}"
            )
        # one SVD gives cond(E) and ||E||_2; a non-finite E counts as singular
        sv = np.linalg.svd(E, compute_uv=False) if np.isfinite(E).all() else np.array([np.nan])
        e_cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        if e_cond > COND_LIMIT:
            raise ConditioningError(
                f"E has condition estimate {e_cond:.3e} above limit {COND_LIMIT:.1e}; "
                "the chosen points/directions do not yield a usable pencil",
                cond_estimate=e_cond,
            )
        self.E = E
        self.A = A
        self.r = r
        self.B = B
        self.C = C
        self.u_grid = u_grid
        self.y_grid = y_grid
        self.e_cond = e_cond
        self.provenance = dict(provenance or {})
        self.data = data
        # weight-folded pairing rows for the input and output maps
        self._b_pair = np.conj(B) * u_grid.weights
        self._c_pair = np.conj(C) * y_grid.weights
        self._e_norm = float(sv[0])
        self._a_norm = float(np.linalg.norm(A, 2))
        for arr in (self.E, self.A, self.B, self.C, self._b_pair, self._c_pair):
            arr.setflags(write=False)
        self._factors = {}        # point -> SVD factors of its pencil
        self._pole_residue = None

    def _factor(self, s):
        """SVD factors (U, sv, Vh) of s*E - A, which a point evaluation
        applies in place of a solve; raises SingularSolveError when the
        smallest singular value is below SOLVE_RTOL times the pencil scale."""
        s = complex(s)
        U, sv, Vh = np.linalg.svd(s * self.E - self.A)
        scale = abs(s) * self._e_norm + self._a_norm
        if sv[-1] <= SOLVE_RTOL * max(scale, np.finfo(float).tiny):
            raise SingularSolveError(
                f"pencil s*E - A is singular at s={s} "
                f"(smallest singular value {sv[-1]:.2e} vs scale {scale:.2e})"
            )
        return U, sv, Vh

    def _pencil(self, s):
        """_factor(s), read-only, computed on the first evaluation at s and
        kept for later ones; the oldest of 2r kept points goes first."""
        s = complex(s)
        factors = self._factors.get(s)
        if factors is None:
            if len(self._factors) >= 2 * self.r:  # a square dataset's most points
                del self._factors[next(iter(self._factors))]
            factors = self._factors[s] = self._factor(s)
            for arr in factors:
                arr.setflags(write=False)
        return factors

    def eval_tf(self, s, p):
        """G_r(s)[p] = C_r (sE - A)^{-1} B_r[p], rows on u_grid to y_grid."""
        return self.C.T @ _solve(self._pencil(s), self._b_pair @ p)

    def eval_tf_adjoint(self, s, q):
        """G_r(s)^+[q], satisfying <eval_tf(s,p), q> = <p, eval_tf_adjoint(s,q)>."""
        U, sv, Vh = self._pencil(s)
        return self.B.T @ (U @ ((Vh @ (self._c_pair @ q)) / sv))

    def eval_tf_derivative(self, s, p):
        """d/ds G_r(s)[p] = -C_r (sE-A)^{-1} E (sE-A)^{-1} B_r[p]."""
        factors = self._pencil(s)
        x = _solve(factors, self._b_pair @ p)
        return -self.C.T @ _solve(factors, self.E @ x)

    def __repr__(self):
        return f"ReducedModel(r={self.r}, cond_E={self.e_cond:.2e})"


def conjugate_transform(points, rows, grid):
    """Unitary T mapping each pair (k, l) of samples with conjugate points and
    directions (rows on ``grid``) to (f_k + f_l)/sqrt(2), i(f_l - f_k)/sqrt(2),
    and a self-paired sample to itself; None if a sample has no partner.
    For a real model, T^T times a sampled family is real."""
    points = np.asarray(points, dtype=np.complex128)
    r = points.size
    # entry [k, l] asks whether sample l is the conjugate partner of sample k
    near = (np.abs(points[None, :] - np.conj(points)[:, None])
            < CONJUGATE_RTOL * np.maximum(1.0, np.abs(points))[:, None])
    k, l = np.nonzero(near)
    gaps = row_norms(rows[l] - np.conj(rows[k]), grid)
    match = np.zeros((r, r), dtype=bool)
    match[k, l] = gaps <= CONJUGATE_RTOL * np.maximum(1.0, row_norms(rows, grid))[k]
    partner = np.argmax(match, axis=1)
    if not np.all(match[np.arange(r), partner]) or np.any(partner[partner] != np.arange(r)):
        return None
    T = np.zeros((r, r), dtype=np.complex128)
    for k, l in enumerate(partner):
        if k == l:
            T[k, k] = 1.0
        elif k < l:
            T[[k, l], k] = 1.0 / np.sqrt(2.0)
            T[[k, l], l] = np.array([-1j, 1j]) / np.sqrt(2.0)
    return T


def interpolant(E, A, B, C, u_grid, y_grid, data=None) -> ReducedModel:
    """The ReducedModel (E, A, B, C) with tangential data ``data``. Data
    conjugate-closed on both sides in point and direction (conjugate_transform
    gives TL for the left, TR for the right) yield the real parts of the
    equivalent realization (TL^H E TR, TL^H A TR, TL^T B, TR^T C), real up to
    round-off; loewner.assemble and projection.project_explicit end here."""
    if data is not None:
        sigmas, P, rhos, Q = data
        TL = conjugate_transform(rhos, Q, y_grid)
        TR = conjugate_transform(sigmas, P, u_grid)
        if TL is not None and TR is not None:
            E, A = (TL.conj().T @ E @ TR).real, (TL.conj().T @ A @ TR).real
            B, C = (TL.T @ B).real, (TR.T @ C).real
    return ReducedModel(E, A, B, C, u_grid, y_grid, data=data)


def pole_residue(rom: ReducedModel) -> PoleFactorModel:
    """Diagonalize the pencil (A, E) into poles and tangential residues.

    Solves against E to reduce to a standard eigenproblem (E's conditioning
    is policed by the constructor), then normalizes left/right eigenvectors so
    y_i^* E x_j = delta_ij. The result is the same transfer function as a
    PoleFactorModel, G_r(s) = sum_i <., b_i> c_i / (s - poles[i]), with the
    b_i and c_i as its input and output factors, ordered by real part, then
    imaginary part. Its pole tolerance is SOLVE_RTOL times the largest
    |pole|, so evaluating at a reduced pole raises PoleProximityError where
    the pencil solve would raise SingularSolveError. Raises
    SemiSimplicityError when eigenvalues cluster tighter than the
    separation tolerance; that error is not kept, so every call repeats it.
    The form is computed on the first call for a model, and every later call
    returns the same object.
    """
    if rom._pole_residue is None:
        rom._pole_residue = _diagonalize(rom)
    return rom._pole_residue


def _diagonalize(rom: ReducedModel) -> PoleFactorModel:
    real = not (rom.E.imag.any() or rom.A.imag.any())
    E, A = (rom.E.real, rom.A.real) if real else (rom.E, rom.A)
    vals, X = np.linalg.eig(np.linalg.solve(E, A))
    order = np.lexsort((vals.imag, vals.real))
    vals, X = vals[order], X[:, order]
    scale = max(np.max(np.abs(vals)), np.finfo(float).tiny)
    if rom.r > 1:
        gaps = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if np.min(gaps) < POLE_SEPARATION_RTOL * scale:
            raise SemiSimplicityError(
                f"pencil eigenvalues cluster below separation tolerance "
                f"(min gap {np.min(gaps):.2e}, scale {scale:.2e})",
                poles=vals,
            )
    # rows of (E X)^{-1} are left eigenvectors with y_i^* E x_j = delta_ij
    YH = np.linalg.inv(E @ X)
    ins, outs = np.conj(YH) @ rom.B, X.T @ rom.C
    if real and not (rom.B.imag.any() or rom.C.imag.any()):
        # the inverse does not keep conjugacy, so it is imposed pairwise
        k, l = np.nonzero(np.triu(vals[:, None] == np.conj(vals)[None, :], 1))
        ins[l], outs[l] = np.conj(ins[k]), np.conj(outs[k])
        flat = vals.imag == 0
        ins[flat], outs[flat] = ins[flat].real, outs[flat].real
    return PoleFactorModel(rom.u_grid, rom.y_grid, vals, ins, outs,
                           pole_tol=SOLVE_RTOL * scale)


def save(rom: ReducedModel, path):
    provenance = dict(rom.provenance)
    if rom.data is not None:
        sigmas, P, rhos, Q = rom.data
        provenance.update(sigmas=complex_to_pair(sigmas), rhos=complex_to_pair(rhos),
                          right_dirs=family_to_json(P, rom.u_grid),
                          left_dirs=family_to_json(Q, rom.y_grid))
    dump_json({"r": rom.r, "E": complex_to_pair(rom.E), "A": complex_to_pair(rom.A),
               "b_rows": family_to_json(rom.B, rom.u_grid),
               "c_cols": family_to_json(rom.C, rom.y_grid), "provenance": provenance}, path)


def load(path) -> ReducedModel:
    """Read what save writes, the provenance's tangential data as ``data``."""
    obj = load_json(path)
    data = None
    try:
        E = pair_to_complex(obj["E"], "E", 2)
        A = pair_to_complex(obj["A"], "A", 2)
        B, u_grid = family_from_json(obj["b_rows"], "b_rows")
        C, y_grid = family_from_json(obj["c_cols"], "c_cols")
        declared_r = integer(obj["r"], f"{path}: r")
        provenance = obj.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ParseError(f"{path}: provenance must be an object")
        if "sigmas" in provenance:
            sigmas, rhos = (pair_to_complex(provenance.pop(k), f"provenance.{k}", 1)
                            for k in ("sigmas", "rhos"))
            (P, p_grid), (Q, q_grid) = (family_from_json(provenance.pop(k), f"provenance.{k}")
                                        for k in ("right_dirs", "left_dirs"))
            if (p_grid, q_grid) != (u_grid, y_grid):
                raise ParseError(f"{path}: provenance directions do not live on the port grids")
            data = (sigmas, P, rhos, Q)
    except (KeyError, TypeError, AttributeError) as e:
        raise ParseError(f"{path}: missing or malformed field: {e}") from e
    if E.shape != (declared_r, declared_r):
        raise ParseError(f"{path}: declared order r={declared_r} but E has shape {E.shape}")
    return ReducedModel(E, A, B, C, u_grid, y_grid, provenance, data)
