"""Reference systems and checks that only the tests use.

``RankOneModel`` is the analytic rank-1 system whose reduction is exactly
recoverable at order one (criterion 8); ``random_pole_factor_model`` draws
the degree-r systems that the data-driven realization recovers exactly.
``projector_check`` tests the skew projector of an explicit Petrov-Galerkin
basis pair numerically (criterion 4). ``full_model_h2_sq`` is the heat
model's closed H2 series with a fresh array per row, the form its workspace
loop must equal bit for bit. None is on any command's path, so they live
beside their callers.
"""

from dataclasses import dataclass

import numpy as np

from opmor.funcspace import row_norms
from opmor.heat2d import FullModel
from opmor.models import PoleFactorModel

PROJECTOR_TRIALS = 20  # random vectors per idempotency and kernel test


class RankOneModel(PoleFactorModel):
    """Analytic rank-1 system G(s)[f] = <f, p>_U q / (s - pole), with p and
    q node-value rows on u_grid and y_grid.

    Used as a ground-truth model whose reduction is exactly recoverable at
    order one.
    """

    def __init__(self, u_grid, y_grid, p, q, pole):
        p = np.asarray(p, dtype=np.complex128)
        q = np.asarray(q, dtype=np.complex128)
        if row_norms(p, u_grid) == 0 or row_norms(q, y_grid) == 0:
            raise ValueError("rank-1 factors must be nonzero")
        super().__init__(u_grid, y_grid, [pole], p[np.newaxis, :], q[np.newaxis, :])
        self.p = p
        self.q = q


def random_pole_factor_model(rng, r, u_grid, y_grid) -> PoleFactorModel:
    """A stable real system of even degree r: r/2 conjugate pole pairs with
    Re lam uniform in [-50, -0.5] and Im lam uniform in [1, 30], and complex
    Gaussian factor rows, closed under conjugation with their poles."""
    half = r // 2
    lam = rng.uniform(-50.0, -0.5, half) + 1j * rng.uniform(1.0, 30.0, half)

    def rows(grid):
        z = rng.standard_normal((half, grid.size)) + 1j * rng.standard_normal((half, grid.size))
        return np.concatenate((z, np.conj(z)))

    return PoleFactorModel(u_grid, y_grid, np.concatenate((lam, np.conj(lam))),
                           rows(u_grid), rows(y_grid))


def full_model_h2_sq(model: FullModel) -> float:
    """FullModel.h2_sq as the plain sum over rows i of
    Hx[i] @ (1/-(lam_im + lam_n'm') as an (n', m m') array) @ Hy."""
    n = model.n_max
    lam = model.poles.real.reshape(n, n)
    return float(sum(model._hx[i] @ (-1.0 / (lam[i][:, None] + lam[:, None, :])).reshape(n, -1)
                     @ model._hy.ravel() for i in range(n)))


@dataclass
class ProjectorReport:
    idempotency_max: float
    range_max: float
    kernel_max: float


def projector_check(model: FullModel, V, W, s, seed: int = 0) -> ProjectorReport:
    """Numerical test of the skew projector P(s) = V (W (s - A) V)^{-1} W (s - A)
    for modal bases V (modes x r) and W (r x modes) as projection.build_bases
    returns them.

    Applies P twice to PROJECTOR_TRIALS random modal vectors and reports the worst relative
    idempotency defect, the worst deviation of P v from v over the columns
    of V (range property), and the worst norm of P on random vectors first
    projected into its kernel {x : W (s - A) x = 0} (complement
    annihilation).
    """
    s = model._check_point(s)
    lam = model.poles.real
    M = W @ ((s - lam)[:, None] * V)

    def apply_p(x):
        return V @ np.linalg.solve(M, W @ ((s - lam) * x))

    mw = W * (s - lam)
    mw_pinv = np.linalg.pinv(mw)
    rng = np.random.default_rng(seed)
    idem = 0.0
    kern = 0.0
    for _ in range(PROJECTOR_TRIALS):
        x = rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size)
        px = apply_p(x)
        idem = max(idem, np.linalg.norm(apply_p(px) - px) / np.linalg.norm(px))
        xk = x - mw_pinv @ (mw @ x)
        kern = max(kern, np.linalg.norm(apply_p(xk)) / np.linalg.norm(xk))
    rng_max = 0.0
    for j in range(V.shape[1]):
        v = V[:, j]
        rng_max = max(rng_max, np.linalg.norm(apply_p(v) - v) / np.linalg.norm(v))
    return ProjectorReport(idempotency_max=float(idem), range_max=float(rng_max),
                           kernel_max=float(kern))
