"""Transfer functions built from pole-factor sums.

Every full-order model in this package has the form

    G(s)[p] = sum_k <p, u_k>_U y_k / (s - lam_k),

with input factors u_k in U = L2(con patch), output factors y_k in
Y = L2(obs patch) and poles lam_k. The heat benchmark has one term per
retained eigenmode, a reduced model's pole-residue form one per pole. The
evaluations and exact time stepping of both are implemented once here, on
two maps per port: the pairing map from node values to the coefficients
<f, u_k> (or <g, y_k>) and the expansion map from coefficients to the node
values of sum_k c_k u_k (or y_k). The squared Hilbert-Schmidt and H2 norms
contract the factor Grams. The defaults are dense products with the factor
tables; a model with structure overrides the four maps and the two norms.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import PoleProximityError
from .funcspace import QuadratureGrid

DEFAULT_POLE_TOL = 1e-8


def phi12(z):
    """(phi1(z), phi2(z)) = ((e^z - 1)/z, (e^z - 1 - z)/z^2), each by its
    Taylor polynomial for |z| < 1e-2, complex-safe."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-2
    phi1, phi2 = np.empty_like(z), np.empty_like(z)
    w = z[~small]
    em1 = np.exp(w) - 1.0
    phi1[~small], phi2[~small] = em1 / w, (em1 - w) / w**2
    t = z[small]
    phi1[small] = 1.0 + t / 2 + t**2 / 6 + t**3 / 24 + t**4 / 120
    phi2[small] = 0.5 + t / 6 + t**2 / 24 + t**3 / 120 + t**4 / 720
    return phi1, phi2


def _grams(U, Y, u_grid, y_grid):
    """(GU, GY) with GU[k,l] = <u_l, u_k>_U and GY[k,l] = <y_k, y_l>_Y for
    the rows u_k of U on u_grid and y_k of Y on y_grid."""
    return (np.conj(U) * u_grid.weights) @ U.T, (Y * y_grid.weights) @ np.conj(Y).T


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

    # weight-folded pairing rows, read-only: <f, u_k> = _in_pair[k] @ f for node values f
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

    # GU * GY, the one Gram term the norm sums read, built on first use
    @functools.cached_property
    def _gram(self):
        GU, GY = _grams(self.input_factors, self.output_factors, self.con_grid, self.obs_grid)
        return GU * GY

    def hs_sq(self, s):
        """Squared Hilbert-Schmidt norm of G(s) at a point s off the poles,
        sum_{k,l} GU[k,l] GY[k,l] / ((s - lam_k) conj(s - lam_l))."""
        alpha = 1.0 / (s - self.poles)
        return float(np.real(alpha @ (self._gram @ np.conj(alpha))))

    @functools.cached_property
    def h2_sq(self):
        """Squared H2 norm, sum_{k,l} GU[k,l] GY[k,l] / -(lam_k + conj lam_l):
        the frequency integral of each (k,l) term closed in the left
        half-plane, so the poles must be stable."""
        lam = self.poles
        return float(np.real(np.sum(self._gram / -(lam[:, None] + np.conj(lam[None, :])))))

    def apply_tf(self, s, p):
        """G(s)[p] for a row p on the control grid, as a row on the
        observation grid."""
        s = self._check_point(s)
        return self.expand_obs(self.pair_con(p) / (s - self.poles))

    def apply_tf_adjoint(self, s, q):
        """Hilbert adjoint G(s)^+[q] for a row q on the observation grid, as a
        row on the control grid.

        Satisfies <apply_tf(s, p), q>_Y = <p, apply_tf_adjoint(s, q)>_U.
        """
        s = self._check_point(s)
        return self.expand_con(np.conj(1.0 / (s - self.poles)) * self.pair_obs(q))

    def apply_tf_derivative(self, s, p):
        """d/ds G(s)[p] = -C (s - A)^{-2} B [p] as a row on the observation grid."""
        s = self._check_point(s)
        return -self.expand_obs(self.pair_con(p) / (s - self.poles) ** 2)

    def simulate(self, u, dt):
        """March the diagonal state exactly against piecewise-linear input.

        Row k of ``u`` holds the input's node values on the control grid at
        t_k = k*dt; the linear interpolant between consecutive samples is
        convolved in closed form with e^{lam t} per pole. Returns the
        output's node values on the observation grid at the same time
        points, one row per input row, starting from the zero state, so the
        first n rows depend on the first n input rows only. Warns when a
        pole has Re >= 0.
        """
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        if len(u) < 2:
            raise ValueError(f"need at least two input samples, got {len(u)}")
        if np.max(self.poles.real) >= 0:
            warnings.warn("model is unstable; simulation proceeds but may diverge",
                          stacklevel=2)
        ucoef = np.array([self.pair_con(row) for row in np.asarray(u, dtype=np.complex128)])
        z = self.poles * dt
        ez = np.exp(z)
        c1, c2 = (dt * phi for phi in phi12(z))
        x = np.zeros(self.poles.size, dtype=np.complex128)
        out = np.zeros((len(ucoef), self.obs_grid.size), dtype=np.complex128)
        for k in range(len(ucoef) - 1):
            x = ez * x + c1 * ucoef[k] + c2 * (ucoef[k + 1] - ucoef[k])
            out[k + 1] = self.expand_obs(x)
        return out
