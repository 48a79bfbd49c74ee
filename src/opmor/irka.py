"""Fixed-point iteration on interpolation data toward the tangential H2
optimality conditions.

Each sweep interpolates the full model bilinearly (Hermite data at
coincident left/right points), reads off the reduced poles and residue
directions, and re-targets the mirror points -conj(lambda_i) with the
residue directions as the next tangential data. Stationarity of that map is
exactly the first-order optimality system, which fixes only the unordered
set of mirror points, so a sweep's movement is the symmetric Hausdorff
distance between the old and new point sets. Below half the minimum
separation of the points it equals the optimally matched movement, since
each point's nearest neighbour is then its partner. That covers every
convergence decision: pole_residue keeps the poles at least 1e-8 max|lambda|
apart, over twice point_tol at the heat model's pole scale (>= 2 pi^2).
Empirically a movement below point_tol keeps the optimality residuals under
about 100x point_tol, which is what the default pairing (1e-8 -> 1e-6) is
calibrated for. Conjugate-closed data assemble to a real pencil with exact
conjugate pole pairs, so point sets and directions stay closed unsnapped.

No convergence theory is claimed: non-convergent runs return the best
(least-moving) iterate flagged converged=False rather than raising.

Each sweep's certificate (optimality residuals and H2 error) reuses the
pole-residue form step computed for the iterate, and the optimality
residuals factor its pencil once at each of the r mirror points. An
iterate's provenance gets its dataset hash only when run returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ReductionError
from .funcspace import row_norms
from .h2 import h2_error, optimality_residuals
from .loewner import assemble, record_hash
from .rom import ReducedModel, pole_residue
from .samples import collect, directions


@dataclass
class IrkaConfig:
    r: int
    init_points: list | None = None        # None: log-spaced over [1, 10 |slowest pole|]
    init_right_dirs: list | None = None    # None: lowest retained input factors, normalized
    init_left_dirs: list | None = None
    max_iter: int = 50
    point_tol: float = 1e-8

    def validate(self) -> None:
        if self.r < 1:
            raise ValueError(f"order must be at least 1, got {self.r}")
        if not 0 < self.point_tol < np.inf:
            raise ValueError(f"point_tol must be positive and finite, got {self.point_tol}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.init_points is not None:
            if len(self.init_points) != self.r:
                raise ValueError("init_points length must equal the order")
            if not all(np.isfinite(s) and complex(s).real > 0 for s in self.init_points):
                raise ValueError("init_points must be finite and lie in the open right half-plane")


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    point_history: list = field(default_factory=list)
    movement_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    h2_error_history: list = field(default_factory=list)
    best_iteration: int = 0  # 1-based index of the returned iterate


def _fix_phase(rows, grid) -> np.ndarray:
    """Node-value rows on ``grid``, each scaled to unit function-space norm
    with its largest-magnitude entry rotated to the positive real axis; kills
    the eigenvector phase ambiguity for determinism."""
    v = rows / row_norms(rows, grid)[:, None]
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    return v * (np.conj(pivot) / np.abs(pivot))


def step(full, points, right_dirs, left_dirs):
    """One interpolation sweep: Hermite data at the given points, reduced
    model assembly, and mirror-point/residue-direction extraction.

    Returns (rom, next_points, next_right_dirs, next_left_dirs), the
    directions as stacked node-value rows; the rom's provenance waits for
    loewner.record_hash. Unstable reduced poles are reflected into the left
    half-plane before mirroring, which re-targets the point itself.
    """
    rom = assemble(collect(full, points, right_dirs, points, left_dirs), hashed=False)
    pr = pole_residue(rom)
    poles = pr.poles.copy()
    unstable = poles.real >= 0
    poles[unstable] = -np.conj(poles[unstable])
    mirrors = -np.conj(poles)
    return (rom, [complex(s) for s in mirrors], _fix_phase(pr.input_factors, rom.u_grid),
            _fix_phase(pr.output_factors, rom.y_grid))


def _matched_movement(old, new) -> float:
    """Symmetric Hausdorff distance between the point sets old and new."""
    cost = np.abs(np.asarray(old, dtype=complex)[:, None]
                  - np.asarray(new, dtype=complex)[None, :])
    return float(max(cost.min(axis=1).max(), cost.min(axis=0).max()))


def _default_init(full, r):
    """Points log-spaced over [1, 10 |lam_slowest|], [1, 197] at the heat
    model, and the lowest r retained input/output factors, phase-fixed. The
    factors are expanded from complex unit coefficient rows, which reproduces
    the factor table rows bit for bit without building the tables."""
    K = full.poles.size
    if r > K:
        raise ValueError(f"default init needs r <= {K} retained modes, got r = {r}")
    slowest = np.min(np.abs(full.poles))
    lowest = np.eye(r, K, dtype=np.complex128)
    return (np.logspace(0.0, np.log10(10.0 * slowest), r),
            _fix_phase(full.expand_con(lowest), full.con_grid),
            _fix_phase(full.expand_obs(lowest), full.obs_grid))


def run(full, config: IrkaConfig):
    """Iterate step() until the point movement drops below
    config.point_tol or the iteration budget runs out.

    Returns (rom, ConvergenceReport); on non-convergence the rom is the
    iterate with the smallest movement and converged is False (max_iter = 0
    returns rom None). The returned rom's provenance records its dataset
    hash. Deterministic for a fixed config.
    """
    config.validate()
    given = (config.init_points, config.init_right_dirs, config.init_left_dirs)
    defaults = _default_init(full, config.r) if any(g is None for g in given) else given
    points, rights, lefts = (d if g is None else g for g, d in zip(given, defaults))
    points = [complex(s) for s in points]
    rights = directions(rights, full.con_grid, "right")
    lefts = directions(lefts, full.obs_grid, "left")
    if len(rights) != config.r or len(lefts) != config.r:
        raise ValueError("direction lists must match the order")

    report = ConvergenceReport(converged=False, iterations=0)
    best: ReducedModel | None = None
    best_movement = np.inf
    for it in range(1, config.max_iter + 1):
        try:
            rom, next_points, next_rights, next_lefts = step(full, points, rights, lefts)
        except ReductionError as e:
            e.args = (f"iteration {it}: {e.args[0]}",) + e.args[1:]
            raise
        movement = _matched_movement(points, next_points)
        report.iterations = it
        report.point_history.append(list(next_points))
        report.movement_history.append(movement)
        try:
            report.residual_history.append(optimality_residuals(full, rom).max_residual)
            report.h2_error_history.append(h2_error(full, rom))
        except ReductionError:
            # unstable intermediate iterate: the certificate is undefined
            report.residual_history.append(float("nan"))
            report.h2_error_history.append(float("nan"))
        if movement < best_movement:
            best, best_movement, report.best_iteration = rom, movement, it
        points, rights, lefts = next_points, next_rights, next_lefts
        if movement < config.point_tol:
            report.converged = True
            break
    if best is not None:
        record_hash(best)
    return best, report
