"""Reduced-order models: degree-r rational transfer functions between the
same function spaces as the full model.

A ReducedModel is the tuple (E, A, B, C): the input map sends p to the
vector of pairings <p, b_i>_U with the rows b_i of B, the pencil solve
applies (sE - A)^{-1}, and the output map combines the rows c_j of C.
A point evaluation (interpolation checks) factors sE - A once by SVD: the
smallest singular value decides whether s is a pole, and the same factors
apply the inverse, its adjoint, or the inverse twice with E in between for
the derivative. The pole-residue decomposition turns the pencil into r
scalar poles with tangential directions as a models.PoleFactorModel; the
IRKA update, the closed-form H2 quantities (stability included) and exact
time stepping use that form.
A real pencil is diagonalized in real arithmetic, so its poles come in
bitwise-conjugate pairs; with real ports too, each pair's residues are set
pairwise to exact conjugates, and a real pole's residues are real.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    ConditioningError,
    ParseError,
    SemiSimplicityError,
    SingularSolveError,
)
from .funcspace import FunctionVector, values_on
from .jsonio import (
    cmatrix_from_json,
    complex_to_pair,
    dump_json,
    family_from_json,
    family_to_json,
    load_json,
)
from .models import PoleFactorModel

# relative eigenvalue separation below which a pencil is treated as defective
POLE_SEPARATION_RTOL = 1e-8

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
    file format unchanged. ``e_cond`` is cond(E); the constructor raises
    ConditioningError when it is not finite or above COND_LIMIT.
    """

    def __init__(self, E, A, B, C, u_grid, y_grid, provenance=None):
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
        # weight-folded pairing rows for the input and output maps
        self._b_pair = np.conj(B) * u_grid.weights
        self._c_pair = np.conj(C) * y_grid.weights
        self._e_norm = float(sv[0])
        self._a_norm = float(np.linalg.norm(A, 2))
        for arr in (self.E, self.A, self.B, self.C, self._b_pair, self._c_pair):
            arr.setflags(write=False)

    def _pencil(self, s):
        """SVD factors (U, sv, Vh) of s*E - A, which every point evaluation
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

    def eval_tf(self, s, p: FunctionVector) -> FunctionVector:
        """G_r(s)[p] = C_r (sE - A)^{-1} B_r[p]."""
        x = _solve(self._pencil(s), self._b_pair @ values_on(p, self.u_grid))
        return FunctionVector(self.y_grid, self.C.T @ x)

    def eval_tf_adjoint(self, s, q: FunctionVector) -> FunctionVector:
        """G_r(s)^+[q], satisfying <eval_tf(s,p), q> = <p, eval_tf_adjoint(s,q)>."""
        U, sv, Vh = self._pencil(s)
        w = U @ ((Vh @ (self._c_pair @ values_on(q, self.y_grid))) / sv)
        return FunctionVector(self.u_grid, self.B.T @ w)

    def eval_tf_derivative(self, s, p: FunctionVector) -> FunctionVector:
        """d/ds G_r(s)[p] = -C_r (sE-A)^{-1} E (sE-A)^{-1} B_r[p]."""
        factors = self._pencil(s)
        x = _solve(factors, self._b_pair @ values_on(p, self.u_grid))
        return FunctionVector(self.y_grid, -self.C.T @ _solve(factors, self.E @ x))

    def __repr__(self):
        return f"ReducedModel(r={self.r}, cond_E={self.e_cond:.2e})"


def real_realization(E, A, B, C, TL, TR):
    """Real parts of the equivalent realization (TL^H E TR, TL^H A TR, TL^T B,
    TR^T C); real up to round-off for samples.conjugate_transform data."""
    return ((TL.conj().T @ E @ TR).real, (TL.conj().T @ A @ TR).real,
            (TL.T @ B).real, (TR.T @ C).real)


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
    separation tolerance.
    """
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


def simulate(rom: ReducedModel, u, T, dt):
    """Exact-exponential time stepping of the diagonalized reduced system."""
    pr = pole_residue(rom)
    if np.max(np.real(pr.poles)) >= 0:
        warnings.warn(
            "reduced model is unstable; simulation proceeds but may diverge",
            stacklevel=2,
        )
    return pr.simulate(u, T, dt)


def save(rom: ReducedModel, path):
    obj = {
        "r": rom.r,
        "E": complex_to_pair(rom.E),
        "A": complex_to_pair(rom.A),
        "b_rows": family_to_json(rom.B, rom.u_grid),
        "c_cols": family_to_json(rom.C, rom.y_grid),
        "provenance": rom.provenance,
    }
    dump_json(obj, path)


def load(path) -> ReducedModel:
    obj = load_json(path)
    cache = {}
    try:
        E = cmatrix_from_json(obj["E"], "E")
        A = cmatrix_from_json(obj["A"], "A")
        B, u_grid = family_from_json(obj["b_rows"], "b_rows", cache)
        C, y_grid = family_from_json(obj["c_cols"], "c_cols", cache)
        declared_r = int(obj["r"])
        provenance = obj.get("provenance", {})
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: missing or malformed field: {e}") from e
    if E.shape != (declared_r, declared_r):
        raise ParseError(
            f"{path}: declared order r={declared_r} but E has shape {E.shape}"
        )
    return ReducedModel(E, A, B, C, u_grid, y_grid, provenance)
