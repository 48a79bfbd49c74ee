"""Transfer functions built from pole-factor sums.

Every full-order model in this package has the form

    G(s)[p] = sum_k <p, u_k>_U y_k / (s - lam_k),

with input factors u_k in U = L2(con patch), output factors y_k in
Y = L2(obs patch) and poles lam_k. The heat benchmark has one term per
retained eigenmode; the rank-1 analytic toy has a single term. Adjoint and
derivative evaluations and exact time stepping all follow from this form, so
they are implemented once here.
"""

from __future__ import annotations

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
    on the two grids. Subclasses build these from a model (the heat
    benchmark, the rank-1 toy); ``rom.pole_residue`` builds one directly.
    """

    def __init__(self, con_grid: QuadratureGrid, obs_grid: QuadratureGrid,
                 poles, input_factors, output_factors,
                 pole_tol: float = DEFAULT_POLE_TOL):
        self.con_grid = con_grid
        self.obs_grid = obs_grid
        self.poles = np.asarray(poles, dtype=np.complex128).reshape(-1)
        self.input_factors = np.asarray(input_factors, dtype=np.complex128)
        self.output_factors = np.asarray(output_factors, dtype=np.complex128)
        if self.input_factors.shape != (self.poles.size, con_grid.size):
            raise ValueError("input factor array has wrong shape")
        if self.output_factors.shape != (self.poles.size, obs_grid.size):
            raise ValueError("output factor array has wrong shape")
        self.pole_tol = float(pole_tol)
        # weight-folded pairing rows: <f, u_k> = _in_pair[k] @ f.values
        self._in_pair = np.conj(self.input_factors) * con_grid.weights
        self._out_pair = np.conj(self.output_factors) * obs_grid.weights
        for arr in (self.poles, self.input_factors, self.output_factors,
                    self._in_pair, self._out_pair):
            arr.setflags(write=False)

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

    def _input_coefficients(self, p: FunctionVector):
        return self._in_pair @ values_on(p, self.con_grid)

    def apply_tf(self, s, p: FunctionVector) -> FunctionVector:
        """G(s)[p] over the observation grid."""
        s = self._check_point(s)
        coef = self._input_coefficients(p)
        return FunctionVector(
            self.obs_grid, self.output_factors.T @ (coef / (s - self.poles))
        )

    def apply_tf_adjoint(self, s, q: FunctionVector) -> FunctionVector:
        """Hilbert adjoint G(s)^+[q] over the control grid.

        Satisfies <apply_tf(s, p), q>_Y = <p, apply_tf_adjoint(s, q)>_U.
        """
        s = self._check_point(s)
        coef = self._out_pair @ values_on(q, self.obs_grid)
        return FunctionVector(
            self.con_grid,
            self.input_factors.T @ (np.conj(1.0 / (s - self.poles)) * coef),
        )

    def apply_tf_derivative(self, s, p: FunctionVector) -> FunctionVector:
        """d/ds G(s)[p] = -C (s - A)^{-2} B [p] over the observation grid."""
        s = self._check_point(s)
        coef = self._input_coefficients(p)
        return FunctionVector(
            self.obs_grid, -(self.output_factors.T @ (coef / (s - self.poles) ** 2))
        )

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
            ucoef[k] = self._input_coefficients(u[k])
        z = self.poles * dt
        ez = np.exp(z)
        c1 = dt * phi1(z)
        c2 = dt * phi2(z)
        x = np.zeros(self.poles.size, dtype=np.complex128)
        out = [FunctionVector(self.obs_grid, np.zeros(self.obs_grid.size, dtype=np.complex128))]
        for k in range(n_steps):
            x = ez * x + c1 * ucoef[k] + c2 * (ucoef[k + 1] - ucoef[k])
            out.append(FunctionVector(self.obs_grid, self.output_factors.T @ x))
        return out


class RankOneModel(PoleFactorModel):
    """Analytic rank-1 system G(s)[f] = <f, p>_U q / (s - pole).

    Used as a ground-truth model whose reduction is exactly recoverable at
    order one.
    """

    def __init__(self, p: FunctionVector, q: FunctionVector, pole):
        if p.norm() == 0 or q.norm() == 0:
            raise ValueError("rank-1 factors must be nonzero")
        super().__init__(
            p.grid, q.grid, [pole],
            p.values[np.newaxis, :], q.values[np.newaxis, :],
        )
        self.p = p.copy()
        self.q = q.copy()
