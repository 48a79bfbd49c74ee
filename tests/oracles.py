"""Reference systems and checks that only the tests use.

``RankOneModel`` is the analytic rank-1 system whose reduction is exactly
recoverable at order one (criterion 8). ``projector_check`` tests the skew
projector of an explicit Petrov-Galerkin basis pair numerically (criterion
4). Neither is on any command's path, so they live beside their callers.
"""

from dataclasses import dataclass

import numpy as np

from opmor.funcspace import FunctionVector
from opmor.heat2d import FullModel
from opmor.models import PoleFactorModel
from opmor.projection import ModalBasisMatrix

PROJECTOR_TRIALS = 20  # random vectors per idempotency and kernel test


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
        self.p = p
        self.q = q


@dataclass
class ProjectorReport:
    idempotency_max: float
    range_max: float
    kernel_max: float


def projector_check(model: FullModel, V: ModalBasisMatrix, W: ModalBasisMatrix, s,
                    seed: int = 0) -> ProjectorReport:
    """Numerical test of the skew projector P(s) = V (W (s - A) V)^{-1} W (s - A).

    Applies P twice to PROJECTOR_TRIALS random modal vectors and reports the worst relative
    idempotency defect, the worst deviation of P v from v over the columns
    of V (range property), and the worst norm of P on random vectors first
    projected into its kernel {x : W (s - A) x = 0} (complement
    annihilation).
    """
    s = model._check_point(s)
    lam = model.poles.real
    M = W.coeffs @ ((s - lam)[:, None] * V.coeffs)

    def apply_p(x):
        return V.coeffs @ np.linalg.solve(M, W.coeffs @ ((s - lam) * x))

    mw = W.coeffs * (s - lam)
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
    for j in range(V.coeffs.shape[1]):
        v = V.coeffs[:, j]
        rng_max = max(rng_max, np.linalg.norm(apply_p(v) - v) / np.linalg.norm(v))
    return ProjectorReport(idempotency_max=float(idem), range_max=float(rng_max),
                           kernel_max=float(kern))
