"""Full-order model: 2D Dirichlet heat equation on the unit square.

The state space is L2((0,1)^2) with the Laplacian's orthonormal eigenbasis
phi_nm(z) = 2 sin(n pi z1) sin(m pi z2), eigenvalues lam_nm = -pi^2 (n^2 +
m^2). Input enters through zero-extension from the control patch, output is
restriction to the observation patch, so the transfer function is the modal
series

    G(s)[p] = sum_nm <1_con p, phi_nm> / (s - lam_nm) * phi_nm|obs,

truncated at n, m <= n_max. Modes are ordered (n, m) lexicographically and
that order is fixed for reproducibility. On a tensor grid each mode value
is a product of 1-D sine tables, phi_nm(x_i, y_j) = Sx[n, i] Sy[m, j], so
the pairing of node values F (an x-by-y array) with every mode is
(Sx wx) F (Sy wy)^T and the expansion of an n-by-m coefficient array X is
Sx^T X Sy: two small products per port instead of a K x nodes table. The
mode Grams are Kronecker products too: GU * GY = kron(Hx, Hy), where Hx =
(Sx_con wx) Sx_con^T * (Sx_obs wx) Sx_obs^T and Hy is the same on the y
axis. With A[n, m] = 1/(s - lam_nm) the norms need N x N arrays only,

    hs(s)^2 = sum Hx * (A Hy A^H)                              in O(N^3),
    ||G||^2 = sum Hx[n,n'] Hy[m,m'] / -(lam_nm + lam_n'm')     in O(N^4),

the latter one n at a time in O(N^3) memory. The model keeps only the
poles, the modes, the 1-D tables and Hx, Hy. The dense K x nodes mode-value
tables (236 MB at n_max 30) are built on demand, bit for bit as
restrict_mode gives them, when something reads them: the benchmark's size
annotation and the tests, which use them as the oracle of the separable
path.

The truncation tail is summable: the neglected Hilbert-Schmidt mass on the
imaginary axis is bounded by sum_{n^2+m^2 > K} 1/(pi^2(n^2+m^2))^2, which is
O(1/K) by integral comparison. For directions with mode coefficients
decaying like 1/(nm) (e.g. patch constants) the pointwise transfer tail at
Re(s) >= 0 is bounded by sum 8/(nm pi^2) / (pi^2(n^2+m^2)), also summable;
tests use partial sums of these series as tail budgets.
"""

from __future__ import annotations

import functools

import numpy as np

from .funcspace import QuadratureGrid
from .models import PoleFactorModel


def eigenvalue(n, m):
    """Dirichlet Laplacian eigenvalue -pi^2 (n^2 + m^2) on the unit square,
    elementwise for integer arrays."""
    if np.min(n) < 1 or np.min(m) < 1:
        raise ValueError(f"mode indices must be >= 1, got ({n}, {m})")
    return -np.pi**2 * (n * n + m * m)


def _separable(rows, left, right):
    """left F right^T for every row F of rows, read as a left.shape[1] x
    right.shape[1] array; one row or stacked rows, flattened back."""
    lead = rows.shape[:-1]
    out = left @ rows.reshape(lead + (left.shape[1], right.shape[1])) @ right.T
    return out.reshape(lead + (left.shape[0] * right.shape[0],))


def _mode_table(sxt, syt):
    """restrict_mode's values for every (n, m), bit for bit, as read-only
    K x nodes rows: the Kronecker product of the 1-D sine tables Sx, Sy
    (given transposed) written into the real part (a real temporary costs
    peak RSS)."""
    sx, sy = sxt.T, syt.T
    table = np.zeros((sx.shape[0], sy.shape[0], sx.shape[1], sy.shape[1]), dtype=np.complex128)
    np.multiply(sx[:, None, :, None], sy[:, None, :], out=table.real)
    table = table.reshape(sx.shape[0] * sy.shape[0], sx.shape[1] * sy.shape[1])
    table.setflags(write=False)
    return table


def default_quad_order(n_max: int) -> int:
    """Nodes per axis that resolve all retained modes on the benchmark patches."""
    return max(16, 2 * n_max + 4)


class FullModel(PoleFactorModel):
    """Truncated modal realization of the heat transfer function.

    Parameters
    ----------
    con_grid, obs_grid
        Quadrature grids over the control and observation patches; they
        define U = L2(con patch) and Y = L2(obs patch).
    n_max
        Number of retained modes per axis (n_max^2 in total), a positive
        integer.
    """

    def __init__(self, con_grid: QuadratureGrid, obs_grid: QuadratureGrid, n_max: int):
        if not isinstance(n_max, (int, np.integer)) or n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
        n = np.arange(1, n_max + 1)
        modes = np.stack(np.meshgrid(n, n, indexing="ij"), axis=-1).reshape(-1, 2)
        self._init_poles(con_grid, obs_grid, eigenvalue(modes[:, 0], modes[:, 1]))
        sines = []
        for g in (con_grid, obs_grid):
            sx = 2.0 * np.sin(n[:, None] * np.pi * g.axis_nodes[0])
            sy = np.sin(n[:, None] * np.pi * g.axis_nodes[1])
            sines.append(((sx * g.axis_weights[0], sy * g.axis_weights[1]), (sx.T, sy.T)))
        # per port, the (left, right) factors of _separable for pairing and for expansion
        (self._con_pairing, self._con_expansion), (self._obs_pairing, self._obs_expansion) = sines
        # per axis, the product of the two ports' 1-D Grams, real symmetric N x N
        self._hx, self._hy = ((self._con_pairing[a] @ self._con_expansion[a])
                              * (self._obs_pairing[a] @ self._obs_expansion[a]) for a in (0, 1))
        self.n_max = n_max
        self.modes = modes
        self.modes.setflags(write=False)

    # the dense mode-value tables, built on first read; no evaluation reads them
    @functools.cached_property
    def input_factors(self):
        return _mode_table(*self._con_expansion)

    @functools.cached_property
    def output_factors(self):
        return _mode_table(*self._obs_expansion)

    def pair_con(self, values):
        return _separable(values, *self._con_pairing)

    def pair_obs(self, values):
        return _separable(values, *self._obs_pairing)

    def expand_con(self, coef):
        return _separable(coef, *self._con_expansion)

    def expand_obs(self, coef):
        return _separable(coef, *self._obs_expansion)

    def hs_sq(self, s):
        a = (1.0 / (s - self.poles)).reshape(self.n_max, self.n_max)
        return float(np.sum(self._hx * np.real(a @ self._hy @ a.conj().T)))

    @functools.cached_property
    def h2_sq(self):
        n = self.n_max
        lam = self.poles.real.reshape(n, n)
        # row i of the series: Hx[i] @ (1/-(lam_im + lam_n'm') as an (n', m m') array) @ Hy
        return float(sum(self._hx[i] @ (-1.0 / (lam[i][:, None] + lam[:, None, :])).reshape(n, -1)
                         @ self._hy.ravel() for i in range(n)))

    def mode_label(self, k):
        return (int(self.modes[k, 0]), int(self.modes[k, 1]))

    def __repr__(self):
        return (
            f"FullModel(n_max={self.n_max}, "
            f"con={self.con_grid.patch!r}, obs={self.obs_grid.patch!r})"
        )
