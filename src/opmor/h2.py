"""Hardy-space (H2) norms, inner products, error functionals and the
tangential optimality residuals.

Every routine works on a pole-factor sum G(s) = sum_k <., u_k> y_k /
(s - lam_k); a reduced model enters through its pole-residue form. Each
model computes its own squared norms: hs_sq(s), the Hilbert-Schmidt norm at
s, and h2_sq, the closed double series over pole pairs, which a pole-factor
model contracts with its factor Grams and the heat model with its 1-D Grams.
The H2 inner product with <., p> q / (s - lam) is one transfer evaluation
at the mirror point -conj(lam), which gives the H2 error and the optimality
conditions. The frequency quadrature is the independent cross-check;
h2_error_quadrature solves with the reduced pencil instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, StabilityError
from .funcspace import inner_product, row_norms
from .models import PoleFactorModel, _grams
from .rom import ReducedModel, pole_residue
from .samples import TangentialDataset, collect

DEFAULT_NODES = 256
MAX_NODES = 4096
QUAD_STABLE_RTOL = 1e-8
NEGATIVE_CLAMP = 1e-12


def _gauss_legendre(n):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1], in O(n) memory: Newton in theta = arccos x on the recurrence,
    from Tricomi's guesses, for the half with x >= 0, mirrored so that the
    rule is symmetric bit for bit (Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013). The weight 2 / (dP_n/dtheta)^2 carries sin(theta), not 1 - x^2,
    and so keeps its relative precision at the endpoints."""
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    converged = False
    while True:
        x = np.cos(theta)
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):  # P_{n-1}(x) and P_n(x) by the three-term recurrence
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / np.sin(theta)
        if converged:
            break
        step = p / dp
        theta -= step
        # a Newton step of relative size s leaves an error of about s^2 / 2
        converged = np.max(np.abs(step) / theta) ** 2 <= 2 * np.finfo(float).eps
    nodes = np.concatenate((-x, x[::-1][n % 2:]))
    if n % 2:
        nodes[n // 2] = 0.0
    weights = 2.0 / dp ** 2
    return nodes, np.concatenate((weights, weights[::-1][n % 2:]))


@functools.lru_cache(maxsize=None)
def _frequency_rule(n_nodes):
    """(omegas, weights) of FrequencyQuadrature(n_nodes), built once per
    node count, since node doubling asks for the same rules on every call."""
    x, w = _gauss_legendre(n_nodes)
    omegas = np.tan(x * (np.pi / 2))
    weights = w * (np.pi / 2) * (1.0 + omegas ** 2)
    for arr in (omegas, weights):
        arr.setflags(write=False)
    return omegas, weights


class FrequencyQuadrature:
    """Gauss-Legendre rule in theta with omega = tan(theta), mapping
    (-pi/2, pi/2) onto the real frequency axis.

    The substitution absorbs the 1/omega^2 tail of stable integrands, so a
    few hundred nodes resolve them to near machine precision.
    """

    def __init__(self, n_nodes: int = DEFAULT_NODES):
        if n_nodes < 64:
            raise ValueError(f"need at least 64 nodes, got {n_nodes}")
        self.omegas, self.weights = _frequency_rule(n_nodes)

    def integrate(self, values):
        """Integral over the real line of a sampled integrand."""
        return np.asarray(values) @ self.weights


def _factor_form(system) -> PoleFactorModel:
    """The system as a pole-factor sum: a full model as it is, a reduced
    model through its pole-residue form."""
    return pole_residue(system) if isinstance(system, ReducedModel) else system


def _require_stable(poles) -> None:
    """Raise StabilityError unless every pole is in the open left half-plane."""
    worst = float(np.max(np.real(poles)))
    if worst >= 0:
        raise StabilityError(f"model has a pole with Re = {worst:.3e} >= 0; "
                             "the frequency integral diverges")


def _stable_factor_form(system) -> PoleFactorModel:
    """_factor_form, with every pole in the open left half-plane."""
    model = _factor_form(system)
    _require_stable(model.poles)
    return model


def hs_norm(system, s) -> float:
    """Hilbert-Schmidt norm of the transfer operator at a point s off the
    poles."""
    model = _factor_form(system)
    return np.sqrt(model.hs_sq(model._check_point(s)))


def _h2_sq_quadrature(model, quad: FrequencyQuadrature) -> float:
    vals = [model.hs_sq(1j * w) for w in quad.omegas]
    return float(quad.integrate(vals)) / (2.0 * np.pi)


def _converged_quadrature(fn):
    """Evaluate fn(quad) -> (value, scale) with node doubling until the value
    stabilizes to QUAD_STABLE_RTOL times the larger of itself and the scale,
    so a value of 0 settles too (or the node budget runs out; the pole scales
    here keep convergence spectral, so that is a corner case, not an error)."""
    n = DEFAULT_NODES
    value, _ = fn(FrequencyQuadrature(n))
    while 2 * n <= MAX_NODES:
        n *= 2
        refined, scale = fn(FrequencyQuadrature(n))
        if abs(refined - value) <= QUAD_STABLE_RTOL * max(abs(refined), abs(value), scale):
            return refined
        value = refined
    return value


def h2_norm(system) -> float:
    """H2 norm via the closed double series over pole pairs."""
    return np.sqrt(_stable_factor_form(system).h2_sq)


@dataclass
class H2NormReport:
    closed: float
    quadrature: float

    @property
    def rel_gap(self) -> float:
        return abs(self.closed - self.quadrature) / max(self.closed, np.finfo(float).tiny)


def h2_norm_report(system, quad: FrequencyQuadrature | None = None) -> H2NormReport:
    """Both H2 norm computations (closed series and frequency quadrature)
    with their agreement, for cross-checking and reporting.

    Without an explicit rule the quadrature doubles its nodes until stable.
    """
    model = _stable_factor_form(system)
    if quad is None:
        qsq = _converged_quadrature(lambda q: (_h2_sq_quadrature(model, q),) * 2)
    else:
        qsq = _h2_sq_quadrature(model, quad)
    return H2NormReport(
        closed=np.sqrt(model.h2_sq),
        quadrature=np.sqrt(qsq),
    )


def h2_inner_rank1(system, lam, p, q):
    """H2 inner product of the rank-1 function <., p> q / (s - lam) against
    the system's transfer function, evaluated as <q, G(-conj lam)[p]>_Y for
    the rows p on the control grid and q on the observation grid.

    One transfer evaluation replaces the frequency integral; lam must lie in
    the open left half-plane for the integral to exist.
    """
    lam = complex(lam)
    if lam.real >= 0:
        raise ValueError(f"pole must satisfy Re < 0, got {lam}")
    model = _stable_factor_form(system)
    return inner_product(q, model.apply_tf(-np.conj(lam), p), model.obs_grid)


def h2_error(full, rom: ReducedModel) -> float:
    """Squared H2 distance ||G - G_r||^2 expanded over the reduced
    pole-residue form:

        ||G||^2 - 2 Re sum_i <c_i, G(-conj lam_i)[b_i]> + ||G_r||^2.

    Tiny negative round-off is clamped to zero; a negative value beyond
    round-off scale means the inputs are inconsistent and raises.
    """
    full = _stable_factor_form(full)
    pr = _stable_factor_form(rom)
    gsq, grsq = full.h2_sq, pr.h2_sq
    cross = sum(h2_inner_rank1(full, lam, b, c)
                for lam, b, c in zip(pr.poles, pr.input_factors, pr.output_factors))
    err = gsq - 2.0 * cross.real + grsq
    if err < 0:
        scale = max(gsq, grsq)
        if err < -NEGATIVE_CLAMP * scale:
            raise ReductionError(
                f"squared error came out at {err:.3e} (scale {scale:.3e}); "
                "full and reduced models are inconsistent"
            )
        err = 0.0
    return float(err)


def h2_error_quadrature(full, rom: ReducedModel) -> float:
    """Squared H2 distance by direct frequency quadrature of the pointwise
    difference; the independent cross-check for h2_error.

    The cross term contracts the full-model factors against the reduced
    input/output families through the pencil inverse at each node, formed
    from the SVD that also checks the pencil there, so the difference is
    never formed as a dense operator. The quadrature doubles its nodes
    until stable. Stability is read from the eigenvalues of the pencil, not
    from the pole-residue form this oracle cross-checks.
    """
    full = _stable_factor_form(full)
    _require_stable(np.linalg.eigvals(np.linalg.solve(rom.E, rom.A)))
    GUb = np.conj(full.pair_con(rom.B)).T   # <u_k, b_i>_U
    GYc = full.pair_obs(rom.C).T            # <c_i, y_k>_Y
    GB, GC = _grams(rom.B, rom.C, rom.u_grid, rom.y_grid)
    lam = full.poles

    def integral(rule):
        # the squared error, 0 for an exact ROM, and its scale ||G||^2 + ||G_r||^2
        total = scale = 0.0
        for w, wt in zip(rule.omegas, rule.weights):
            s = 1j * w
            U, sv, Vh = rom._pencil(s)
            K = (Vh.conj().T / sv) @ U.conj().T
            alpha = 1.0 / (s - lam)
            cross = np.conj(alpha) @ np.sum((GYc @ K) * GUb, axis=1)
            hs_sq_rom = np.real(np.sum((K @ GB @ K.conj().T) * GC))
            hs_sq = full.hs_sq(s) + hs_sq_rom
            total += wt * (hs_sq - 2.0 * cross.real)
            scale += wt * hs_sq
        return total / (2.0 * np.pi), scale / (2.0 * np.pi)

    return max(float(_converged_quadrature(integral)), 0.0)


@dataclass
class OptimalityReport:
    """Relative residuals of the tangential optimality conditions at the
    mirror points mu_i = -conj(lam_i), one triple per reduced pole:
    ``eps_right[i]`` of the transfer value G(mu_i)[b_i], ``eps_left[i]`` of
    the adjoint value G(mu_i)^+[c_i] and ``eps_herm[i]`` of the bilinear
    derivative <dG/ds(mu_i)[b_i], c_i>."""

    poles: np.ndarray
    eps_left: np.ndarray
    eps_right: np.ndarray
    eps_herm: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(max(self.eps_left.max(), self.eps_right.max(), self.eps_herm.max()))


def _rel_gap(got, want, grid) -> float:
    return row_norms(got - want, grid) / row_norms(want, grid)


def interpolation_residuals(rom: ReducedModel, dataset: TangentialDataset):
    """Relative residuals of rom against the tangential data it should
    interpolate, each normalized by the data's magnitude; only rom is
    evaluated. Returns three arrays: the transfer values at (sigma_j, p_j),
    the adjoint values at (rho_i, q_i) and the Hermite scalars, in sorted
    (i, j) key order."""
    P, Q, u_grid, y_grid = dataset.P, dataset.Q, dataset.u_grid, dataset.y_grid
    right = np.array([_rel_gap(rom.eval_tf(s, p), v, y_grid)
                      for s, p, v in zip(dataset.sigmas, P, dataset.right_values)])
    left = np.array([_rel_gap(rom.eval_tf_adjoint(t, q), v, u_grid)
                     for t, q, v in zip(dataset.rhos, Q, dataset.left_values)])
    herm = np.array([abs(inner_product(rom.eval_tf_derivative(dataset.sigmas[j], P[j]), Q[i],
                                       y_grid) - dataset.hermites[i, j])
                     / abs(dataset.hermites[i, j])
                     for i, j in sorted(dataset.hermites)])
    return right, left, herm


def optimality_residuals(full, rom: ReducedModel) -> OptimalityReport:
    """How far the reduced model is from stationarity of the squared H2
    error: the interpolation residuals against the full model's data at the
    mirror points -conj(lam_i), with transfer values along b_i, adjoint
    values along c_i, and the bilinear derivative along the pair (b_i, c_i)."""
    _stable_factor_form(full)
    pr = _stable_factor_form(rom)
    mirrors = -np.conj(pr.poles)
    eps_right, eps_left, eps_herm = interpolation_residuals(
        rom, collect(full, mirrors, pr.input_factors, mirrors, pr.output_factors))
    return OptimalityReport(pr.poles, eps_left, eps_right, eps_herm)
