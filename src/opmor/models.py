"""Transfer functions built from pole-factor sums.

Every full-order model in this package has the form

    G(s)[p] = sum_k <p, u_k>_U y_k / (s - lam_k),

with input factors u_k in U = L2(con patch), output factors y_k in
Y = L2(obs patch) and poles lam_k. The heat benchmark has one term per
retained eigenmode. Adjoint and derivative evaluations and exact time
stepping all follow from this form, so they are implemented once here, on
two maps per port: the pairing map from node values to the coefficients
<f, u_k> (or <g, y_k>) and the expansion map from coefficients to the node
values of sum_k c_k u_k (or y_k). The default maps are dense products with
the factor tables; a model with structure overrides only the maps.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PoleProximityError
from .funcspace import FunctionVector, QuadratureGrid, values_on

DEFAULT_POLE_TOL = 1e-8


def phi1(z):
    """(e^z - 1)/z, stable for small |z|, complex-safe."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-2
    zs = np.where(small, 0.0, z)
    out = np.empty_like(z)
    out[~small] = (np.exp(zs[~small]) - 1.0) / zs[~small]
    t = z[small]
    out[small] = 1.0 + t / 2 + t**2 / 6 + t**3 / 24 + t**4 / 120
    return out


def phi2(z):
    """(e^z - 1 - z)/z^2, stable for small |z|, complex-safe."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-2
    zs = np.where(small, 0.0, z)
    out = np.empty_like(z)
    out[~small] = (np.exp(zs[~small]) - 1.0 - zs[~small]) / zs[~small] ** 2
    t = z[small]
    out[small] = 0.5 + t / 6 + t**2 / 24 + t**3 / 120 + t**4 / 720
    return out


class PoleFactorModel:
    """Evaluation logic for pole-factor transfer functions.

    Holds ``poles`` (K,), ``input_factors`` (K x con nodes) and
    ``output_factors`` (K x obs nodes), the node values of the u_k and y_k,
    on the two grids; ``rom.pole_residue`` builds one directly. The
    weight-folded pairing rows are built from the factor tables on first
    use. ``heat2d.FullModel`` evaluates through its separable structure
    instead and builds its dense tables only when something reads them.
    """

    def __init__(self, con_grid: QuadratureGrid, obs_grid: QuadratureGrid,
                 poles, input_factors, output_factors,
                 pole_tol: float = DEFAULT_POLE_TOL):
        self._init_poles(con_grid, obs_grid, poles, pole_tol)
        self.input_factors = np.asarray(input_factors, dtype=np.complex128)
        self.output_factors = np.asarray(output_factors, dtype=np.complex128)
        if self.input_factors.shape != (self.poles.size, con_grid.size):
            raise ValueError("input factor array has wrong shape")
        if self.output_factors.shape != (self.poles.size, obs_grid.size):
            raise ValueError("output factor array has wrong shape")
        for arr in (self.input_factors, self.output_factors):
            arr.setflags(write=False)

    def _init_poles(self, con_grid, obs_grid, poles, pole_tol=DEFAULT_POLE_TOL):
        """The fields every pole-factor model sets up: the two grids, the
        read-only poles and the pole-proximity tolerance."""
        self.con_grid = con_grid
        self.obs_grid = obs_grid
        self.poles = np.asarray(poles, dtype=np.complex128).reshape(-1)
        self.poles.setflags(write=False)
        self.pole_tol = float(pole_tol)

    # weight-folded pairing rows, read-only: <f, u_k> = _in_pair[k] @ f.values
    @functools.cached_property
    def _in_pair(self):
        rows = np.conj(self.input_factors) * self.con_grid.weights
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def _out_pair(self):
        rows = np.conj(self.output_factors) * self.obs_grid.weights
        rows.setflags(write=False)
        return rows

    def mode_label(self, k):
        """Human-readable label of pole k for diagnostics, or None."""
        return None

    def _check_point(self, s):
        s = complex(s)
        dist = np.abs(s - self.poles)
        k = int(np.argmin(dist))
        if dist[k] < self.pole_tol:
            raise PoleProximityError(s, complex(self.poles[k]), self.mode_label(k))
        return s

    # Each map takes one row (nodes,) or (K,), or stacked rows (r, nodes) or
    # (r, K), and maps the last axis.
    def pair_con(self, values):
        """<f, u_k>_U for every k, from the node values of f on con_grid."""
        return (self._in_pair @ values.T).T

    def pair_obs(self, values):
        """<g, y_k>_Y for every k, from the node values of g on obs_grid."""
        return (self._out_pair @ values.T).T

    def expand_con(self, coef):
        """Node values on con_grid of sum_k coef_k u_k."""
        return (self.input_factors.T @ coef.T).T

    def expand_obs(self, coef):
        """Node values on obs_grid of sum_k coef_k y_k."""
        return (self.output_factors.T @ coef.T).T

    def port_grams(self):
        """(GU, GY) with GU[k,l] = <u_l, u_k>_U and GY[k,l] = <y_k, y_l>_Y
        where the model's structure gives them directly, else None (h2 then
        contracts the factor tables)."""
        return None

    def apply_tf(self, s, p: FunctionVector) -> FunctionVector:
        """G(s)[p] over the observation grid."""
        s = self._check_point(s)
        coef = self.pair_con(values_on(p, self.con_grid))
        return FunctionVector(self.obs_grid, self.expand_obs(coef / (s - self.poles)))

    def apply_tf_adjoint(self, s, q: FunctionVector) -> FunctionVector:
        """Hilbert adjoint G(s)^+[q] over the control grid.

        Satisfies <apply_tf(s, p), q>_Y = <p, apply_tf_adjoint(s, q)>_U.
        """
        s = self._check_point(s)
        coef = self.pair_obs(values_on(q, self.obs_grid))
        return FunctionVector(self.con_grid,
                              self.expand_con(np.conj(1.0 / (s - self.poles)) * coef))

    def apply_tf_derivative(self, s, p: FunctionVector) -> FunctionVector:
        """d/ds G(s)[p] = -C (s - A)^{-2} B [p] over the observation grid."""
        s = self._check_point(s)
        coef = self.pair_con(values_on(p, self.con_grid))
        return FunctionVector(self.obs_grid, -self.expand_obs(coef / (s - self.poles) ** 2))

    def simulate(self, u, T, dt):
        """March the diagonal state exactly against piecewise-linear input.

        ``u`` is a sequence of FunctionVectors over the control grid sampled
        at t_k = k*dt; the linear interpolant between consecutive samples is
        convolved in closed form with e^{lam t} per pole. Returns the output
        series at the same time points, starting from the zero state.
        """
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        if len(u) == 0:
            raise ValueError("input series is empty")
        n_steps = int(round(T / dt))
        if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, dt):
            raise ValueError(f"horizon {T} is not a positive multiple of dt={dt}")
        if len(u) < n_steps + 1:
            raise ValueError(
                f"need {n_steps + 1} input samples for T={T}, dt={dt}, got {len(u)}"
            )
        ucoef = np.empty((n_steps + 1, self.poles.size), dtype=np.complex128)
        for k in range(n_steps + 1):
            ucoef[k] = self.pair_con(values_on(u[k], self.con_grid))
        z = self.poles * dt
        ez = np.exp(z)
        c1 = dt * phi1(z)
        c2 = dt * phi2(z)
        x = np.zeros(self.poles.size, dtype=np.complex128)
        out = [FunctionVector(self.obs_grid, np.zeros(self.obs_grid.size, dtype=np.complex128))]
        for k in range(n_steps):
            x = ez * x + c1 * ucoef[k] + c2 * (ucoef[k + 1] - ucoef[k])
            out.append(FunctionVector(self.obs_grid, self.expand_obs(x)))
        return out

