"""The paper's two central claims as property tests, checked through
assemble and h2_error alone, independently of the interpolation residuals
that IRKA's certificate computes.

Exact recovery: the data-driven realization of r right and r left generic
tangential samples of a degree-r system is that system. First-order
optimality: the gaps at the mirror points mu_k = -conj(lam_k) are the
gradient of the squared H2 error J, which central differences of h2_error
read off.

Both bounds start from the floor of a computed J. h2_error expands
||G||^2 - 2 Re sum <.> + ||G_r||^2, whose terms add up to about 4 ||G||^2,
and each term runs through a pairing on each grid and a sum over the
modes, at most n products in all. The standard bound for such sums puts
the computed J within 4 n eps ||G||^2 of its exact value.
"""

import numpy as np
import pytest

from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.h2 import h2_error
from opmor.heat2d import FullModel
from opmor.irka import IrkaConfig, run
from opmor.loewner import assemble
from opmor.rom import ReducedModel, pole_residue
from opmor.samples import collect

from oracles import random_pole_factor_model

EPS = np.finfo(float).eps
CON = Patch(0.1, 0.3, 0.1, 0.3)
OBS = Patch(0.6, 0.8, 0.6, 0.8)


def floor_of_j(full) -> float:
    """4 n eps ||G||^2, the bound on the rounding error of a computed J."""
    n = full.con_grid.size + full.obs_grid.size + full.poles.size
    return 4 * n * EPS * full.h2_sq


@pytest.mark.parametrize("layout", ["distinct", "hermite"])
@pytest.mark.parametrize("r", [2, 4, 6])
def test_degree_r_system_is_recovered(r, layout):
    # distinct: 2r points log-spaced over [1, 100], alternately right and
    # left; hermite: r points, each both a right and a left point, as an IRKA
    # sweep samples, so that every entry (i, i) is a Hermite entry
    u_grid, y_grid = QuadratureGrid(CON, 12), QuadratureGrid(OBS, 12)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = random_pole_factor_model(rng, r, u_grid, y_grid)
        P = rng.standard_normal((r, u_grid.size))
        Q = rng.standard_normal((r, y_grid.size))
        if layout == "distinct":
            points = list(np.logspace(0.0, 2.0, 2 * r))
            sigmas, rhos = points[0::2], points[1::2]
        else:
            sigmas = rhos = list(np.logspace(0.0, 2.0, r))
        rom = assemble(collect(model, sigmas, P, rhos, Q))
        # the realization's transfer function is off by about n eps cond E
        # relative, so the exact J is below its square times ||G||^2; the
        # computed J adds the floor
        n = u_grid.size + y_grid.size + r
        bound = floor_of_j(model) + (n * EPS * rom.e_cond) ** 2 * model.h2_sq
        assert h2_error(model, rom) <= bound, (seed, rom.e_cond)


def test_optimality_conditions_are_the_h2_gradient():
    # the r = 2 iterate after two sweeps from the default start at n_modes
    # 12: poles -22.55 +- 5.77j, an optimality certificate of about 0.06, so
    # the gradient is far from zero
    full = FullModel(QuadratureGrid(CON, 28), QuadratureGrid(OBS, 28), 12)
    rom, report = run(full, IrkaConfig(r=2, max_iter=2))
    assert report.best_iteration == 2 and report.residual_history[-1] > 1e-2
    pr = pole_residue(rom)
    lam, b, c = pr.poles, pr.input_factors, pr.output_factors
    u_grid, y_grid = full.con_grid, full.obs_grid
    mu = -np.conj(lam)

    def J(lam, b, c):
        """h2_error of the diagonal model sum_k <., b_k> c_k / (s - lam_k)."""
        return h2_error(full, ReducedModel(np.eye(lam.size), np.diag(lam), b, c,
                                           u_grid, y_grid))

    def unit_step(k, rows, grid, seed):
        """A random complex row of the norm of rows[k], in row k of zeros."""
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        step = np.zeros_like(rows)
        step[k] = d * (row_norms(rows[k], grid) / row_norms(d, grid))
        return step

    floor = floor_of_j(full)
    checks = []  # (central difference, formula, tolerance)
    for k in range(lam.size):
        # poles: J along lam_k + h, for h = 1e-6 |lam_k| times 1 and i, has
        # derivative 2 Re(conj(g_k) h) / |h| with g_k the Hermite gap. J
        # varies on the scale d = |Re lam_k|, the distance to the imaginary
        # axis, so |J'''| <= 6 (4 ||G||^2) / d^3 and the central difference
        # is off by h^2 |J'''| / 6 from truncation and floor / h from rounding
        g = inner_product(full.apply_tf_derivative(mu[k], b[k])
                          - pr.apply_tf_derivative(mu[k], b[k]), c[k], y_grid)
        h = 1e-6 * abs(lam[k])
        tol = floor / h + h ** 2 * 4 * full.h2_sq / abs(lam[k].real) ** 3
        for unit in (1.0, 1j):
            e = np.zeros(lam.size, dtype=complex)
            e[k] = h * unit
            fd = (J(lam + e, b, c) - J(lam - e, b, c)) / (2 * h)
            checks.append((fd, 2 * (np.conj(g) * unit).real, tol))
        # residues: J is quadratic in them, so a central difference of
        # relative step t has no truncation error, only floor / t
        t = 1e-6
        dc = unit_step(k, c, y_grid, 10 + k)
        right_gap = full.apply_tf(mu[k], b[k]) - pr.apply_tf(mu[k], b[k])
        fd = (J(lam, b, c + t * dc) - J(lam, b, c - t * dc)) / (2 * t)
        checks.append((fd, -2 * inner_product(right_gap, dc[k], y_grid).real, floor / t))
        db = unit_step(k, b, u_grid, 20 + k)
        left_gap = full.apply_tf_adjoint(mu[k], c[k]) - pr.apply_tf_adjoint(mu[k], c[k])
        fd = (J(lam, b + t * db, c) - J(lam, b - t * db, c)) / (2 * t)
        checks.append((fd, -2 * inner_product(left_gap, db[k], u_grid).real, floor / t))
    for fd, want, tol in checks:
        assert abs(want) > 100 * tol  # the tolerance resolves the gradient
        assert abs(fd - want) <= tol, (fd, want, tol)
