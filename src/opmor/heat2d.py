"""Full-order model: 2D Dirichlet heat equation on the unit square.

The state space is L2((0,1)^2) with the Laplacian's orthonormal eigenbasis
phi_nm(z) = 2 sin(n pi z1) sin(m pi z2), eigenvalues lam_nm = -pi^2 (n^2 +
m^2). Input enters through zero-extension from the control patch, output is
restriction to the observation patch, so the transfer function is the modal
series

    G(s)[p] = sum_nm <1_con p, phi_nm> / (s - lam_nm) * phi_nm|obs,

truncated at n, m <= n_max. All evaluations reduce to dense products with
precomputed mode-value matrices; modes are ordered (n, m) lexicographically
and that order is fixed for reproducibility.

The truncation tail is summable: the neglected Hilbert-Schmidt mass on the
imaginary axis is bounded by sum_{n^2+m^2 > K} 1/(pi^2(n^2+m^2))^2, which is
O(1/K) by integral comparison. For directions with mode coefficients
decaying like 1/(nm) (e.g. patch constants) the pointwise transfer tail at
Re(s) >= 0 is bounded by sum 8/(nm pi^2) / (pi^2(n^2+m^2)), also summable;
tests use partial sums of these series as tail budgets.
"""

from __future__ import annotations

import numpy as np

from .funcspace import QuadratureGrid, restrict_mode
from .models import PoleFactorModel


def eigenvalue(n: int, m: int) -> float:
    """Dirichlet Laplacian eigenvalue -pi^2 (n^2 + m^2) on the unit square."""
    if n < 1 or m < 1:
        raise ValueError(f"mode indices must be >= 1, got ({n}, {m})")
    return -np.pi**2 * (n * n + m * m)


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
        modes = np.array([(n, m) for n in range(1, n_max + 1)
                          for m in range(1, n_max + 1)], dtype=int)
        eigs = np.array([eigenvalue(n, m) for n, m in modes])
        phi_con = np.array([restrict_mode(n, m, con_grid).values for n, m in modes])
        phi_obs = np.array([restrict_mode(n, m, obs_grid).values for n, m in modes])
        super().__init__(con_grid, obs_grid, eigs, phi_con, phi_obs)
        self.n_max = n_max
        self.modes = modes
        self.modes.setflags(write=False)

    def mode_label(self, k):
        return (int(self.modes[k, 0]), int(self.modes[k, 1]))

    def __repr__(self):
        return (
            f"FullModel(n_max={self.n_max}, "
            f"con={self.con_grid.patch!r}, obs={self.obs_grid.patch!r})"
        )
