import itertools
import sys

import numpy as np
import pytest

from opmor import h2, irka
from opmor.errors import ConditioningError, PoleProximityError
from opmor.funcspace import Patch, QuadratureGrid, row_norms
from opmor.h2 import h2_error, optimality_residuals
from opmor.heat2d import FullModel
from opmor.irka import ConvergenceReport, IrkaConfig, run, step

from oracles import RankOneModel


def unit_const(grid):
    f = np.ones(grid.size, dtype=np.complex128)
    return f / row_norms(f, grid)


@pytest.fixture(scope="module")
def grids():
    return (
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 8),
    )


@pytest.fixture(scope="module")
def toy(grids):
    return RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), -1.0)


@pytest.fixture(scope="module")
def heat():
    # acceptance-scale benchmark: kept module-scoped because the IRKA runs
    # below reuse it several times
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 28),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 28),
        12,
    )


@pytest.fixture(scope="module")
def heat_run(heat):
    return run(heat, IrkaConfig(r=2, init_points=[1.0, 10.0]))


class TestIrkaConfig:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            IrkaConfig(r=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="point_tol"):
            IrkaConfig(r=1, point_tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        # NaN used to pass (NaN <= 0 is False) and then never converge
        with pytest.raises(ValueError, match="point_tol must be positive and finite"):
            IrkaConfig(r=1, point_tol=tol)

    def test_rejects_left_half_plane_init(self):
        with pytest.raises(ValueError, match="right half-plane"):
            IrkaConfig(r=1, init_points=[-1.0])

    @pytest.mark.parametrize("bad", [float("nan"), complex(1.0, float("inf"))])
    def test_rejects_non_finite_init(self, bad):
        with pytest.raises(ValueError, match="init_points must be finite"):
            IrkaConfig(r=2, init_points=[1.0, bad])

    def test_rejects_wrong_init_length(self):
        with pytest.raises(ValueError, match="length"):
            IrkaConfig(r=2, init_points=[1.0])


class TestStep:
    def test_exact_recovery_is_a_fixed_point(self, toy):
        # one Hermite sample of a rank-1 function recovers it exactly, so
        # the mirror of the recovered pole is the point we started from
        rom, dataset, next_points, next_rights, next_lefts = step(
            toy, [1.0], [toy.p], [toy.q]
        )
        assert abs(next_points[0] - 1.0) < 1e-9
        assert rom.r == 1
        # the rom interpolates the returned dataset and records no hash of it
        assert all(a is b for a, b in zip(rom.data, (dataset.sigmas, dataset.P,
                                                     dataset.rhos, dataset.Q)))
        assert "dataset_sha256" not in rom.provenance
        # the next directions are stacked unit-norm rows, one per point
        assert next_rights.shape == (1, toy.con_grid.size)
        assert next_lefts.shape == (1, toy.obs_grid.size)
        assert row_norms(next_rights, toy.con_grid)[0] == pytest.approx(1.0, rel=1e-12)

    def test_unstable_pole_is_reflected(self, grids):
        bad = RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), 0.5)
        _, _, pts, _, _ = step(bad, [2.0], [bad.p], [bad.q])
        assert pts[0] == pytest.approx(0.5, rel=1e-10)

    def test_point_on_spectrum_rejected(self, toy):
        with pytest.raises(PoleProximityError):
            step(toy, [-1.0], [toy.p], [toy.q])


def random_points(rng, r):
    return rng.uniform(-3, 3, r) + 1j * rng.uniform(-3, 3, r)


def optimal_matching_movement(old, new):
    """Bottleneck movement under the best one-to-one matching, by brute force."""
    cost = np.abs(old[:, None] - new[None, :])
    rows = np.arange(len(old))
    return min(cost[rows, list(perm)].max()
               for perm in itertools.permutations(range(len(new))))


class TestMovement:
    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_and_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 7))
        old, new = random_points(rng, r), random_points(rng, r)
        d = irka._matched_movement(old, new)
        assert irka._matched_movement(new, old) == d
        assert irka._matched_movement(rng.permutation(old), rng.permutation(new)) == d

    @pytest.mark.parametrize("seed", range(20))
    def test_never_exceeds_optimal_matching(self, seed):
        rng = np.random.default_rng(100 + seed)
        r = int(rng.integers(1, 7))
        old, new = random_points(rng, r), random_points(rng, r)
        assert irka._matched_movement(old, new) <= optimal_matching_movement(old, new)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_optimal_matching_within_half_separation(self, seed):
        rng = np.random.default_rng(200 + seed)
        r = int(rng.integers(2, 7))
        old = random_points(rng, r)
        gaps = np.abs(old[:, None] - old[None, :])
        np.fill_diagonal(gaps, np.inf)
        # move every point by less than half the minimum separation
        radius = 0.49 * gaps.min() * rng.uniform(0.1, 1.0, r)
        new = rng.permutation(old + radius * np.exp(2j * np.pi * rng.uniform(size=r)))
        assert irka._matched_movement(old, new) == optimal_matching_movement(old, new)


class TestRun:
    def test_toy_recovers_exactly(self, toy):
        config = IrkaConfig(r=1, init_points=[3.0], init_right_dirs=[toy.p],
                            init_left_dirs=[toy.q])
        rom, report = run(toy, config)
        assert report.converged
        assert report.iterations <= 10
        assert h2_error(toy, rom) < 1e-10

    def test_heat_r2_converges(self, heat, heat_run):
        rom, report = heat_run
        assert report.converged
        assert report.iterations <= 50
        assert report.movement_history[-1] < 1e-8
        final_residual = optimality_residuals(heat, rom).max_residual
        assert final_residual < 1e-6
        # the documented calibration of the stopping rule
        assert final_residual < 100 * IrkaConfig(r=2).point_tol

    def test_point_sets_stay_conjugate_closed(self, heat_run):
        _, report = heat_run
        for iterate in report.point_history:
            pts = np.asarray(iterate)
            for s in pts:
                gap = np.min(np.abs(pts - np.conj(s)))
                assert gap < 1e-10 * max(1.0, abs(s))

    def test_r6_sweeps_stay_exactly_real(self):
        # conjugate-closed data give a real pencil, whose complex poles come
        # in bitwise-conjugate pairs, so closure holds exactly in every sweep
        heat = FullModel(
            QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 20),
            QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 20),
            6,
        )
        rom, report = run(heat, IrkaConfig(r=6, max_iter=15))
        for iterate in report.point_history:
            assert set(iterate) == set(np.conj(iterate))
        for arr in (rom.E, rom.A, rom.B, rom.C):
            assert not np.any(arr.imag)

    def test_histories_align(self, heat_run):
        _, report = heat_run
        n = report.iterations
        assert len(report.point_history) == n
        assert len(report.movement_history) == n
        assert len(report.residual_history) == n
        assert len(report.h2_error_history) == n
        assert 1 <= report.best_iteration <= n

    def test_error_history_is_recorded_not_asserted(self, heat_run):
        # no monotonicity claim; the history is for inspection
        _, report = heat_run
        finite = np.asarray(report.h2_error_history)
        finite = finite[np.isfinite(finite)]
        assert finite.size > 0
        assert np.all(finite >= 0)

    def test_zero_iterations(self, toy):
        config = IrkaConfig(r=1, init_points=[1.0], init_right_dirs=[toy.p],
                            init_left_dirs=[toy.q], max_iter=0)
        rom, report = run(toy, config)
        assert rom is None
        assert report == ConvergenceReport(converged=False, iterations=0)

    def test_non_convergence_returns_best_iterate(self, heat):
        config = IrkaConfig(r=2, init_points=[1.0, 10.0], max_iter=3)
        rom, report = run(heat, config)
        assert not report.converged
        assert report.iterations == 3
        assert rom is not None
        best = int(np.argmin(report.movement_history)) + 1
        assert report.best_iteration == best

    def test_deterministic(self, heat):
        config = IrkaConfig(r=2, init_points=[1.0, 10.0], max_iter=6)
        _, rep1 = run(heat, config)
        _, rep2 = run(heat, config)
        assert rep1.movement_history == rep2.movement_history
        assert rep1.point_history[-1] == rep2.point_history[-1]

    def test_default_init_converges(self, heat):
        rom, report = run(heat, IrkaConfig(r=2))
        assert report.converged
        assert optimality_residuals(heat, rom).max_residual < 1e-6

    def test_failure_carries_iteration_context(self, toy):
        # r = 2 tangential data on a rank-1 transfer function makes the
        # reduced pencil singular at assembly
        config = IrkaConfig(r=2, init_points=[1.0, 2.0],
                            init_right_dirs=[toy.p, toy.p],
                            init_left_dirs=[toy.q, toy.q])
        with pytest.raises(ConditioningError, match="iteration 1"):
            run(toy, config)


# draws 0-9 of seed 1 of the irka_n12_r6 benchmark workload: six real starts
# log-uniform in [1, 20 pi^2], written out so the guard needs no benchmark code
R6_STARTS = [
    [2.574427408922551, 4.840817133105528, 13.138705769643503, 28.70744210422117,
     34.3007213492321, 66.28579584081818],
    [1.450875330166777, 2.088286222546996, 10.932820271434792, 16.062552792422498,
     25.130924157994627, 110.78278327421194],
    [5.754948581640574, 7.322103763588827, 13.09167324035499, 42.85314251862006,
     71.26238995611632, 127.57015347910028],
    [1.1024589757736345, 1.166355492769972, 4.342345744494479, 7.393964730439019,
     26.34072695905313, 63.43835221673734],
    [1.8713792888091703, 3.372641209934595, 5.150966034800367, 48.534176582030796,
     54.92199228795284, 128.41206524082006],
    [4.13212722453534, 5.687875851100374, 6.884715360584133, 10.621155761843726,
     22.00380245913014, 113.31924987904158],
    [6.083168357094094, 40.20713226874432, 47.37481941233385, 78.00544373222702,
     93.2544672627429, 111.32522920156777],
    [8.128269714827402, 9.287620826799733, 9.496658022550479, 15.769345149124629,
     17.15266633804031, 24.545408992949632],
    [3.1152203200310686, 13.969114645114765, 20.1338389489071, 75.60683544216921,
     115.72036162748324, 181.84210451684913],
    [1.789114663215681, 5.537814114860951, 41.92335450184383, 48.619842136544754,
     54.98201853876885, 94.0947613953344],
]


# some r = 6 iterates assemble an E with condition estimate above 1e8; the
# warning is the expected report of that, not a failure of the guard
@pytest.mark.filterwarnings("ignore:assembled E has condition estimate:UserWarning")
@pytest.mark.parametrize("draw", range(len(R6_STARTS)))
def test_r6_benchmark_starts_return_a_certified_model(heat, draw):
    """The per-round checks of the irka_n12_r6 benchmark: the returned
    model's relative H2 error lies in (0, 1) and its optimality residual is
    finite."""
    rom, _ = run(heat, IrkaConfig(r=6, init_points=R6_STARTS[draw]))
    rel = np.sqrt(h2_error(heat, rom)) / h2.h2_norm(heat)
    assert 0.0 < rel < 1.0
    assert np.isfinite(optimality_residuals(heat, rom).max_residual)


def test_evaluations_and_diagonalizations_per_sweep(monkeypatch):
    """Each r = 2 sweep samples the full model 3r times (r transfer, r
    adjoint, r derivative evaluations) and evaluates it 4r times in its
    diagnostics (r of each kind in optimality_residuals, r transfers in
    h2_error). step, optimality_residuals and h2_error each call
    pole_residue, but only the first call diagonalizes: one eig per sweep.
    The reduced model is factored once at each of its r mirror points, on
    top of the constructor's SVD of E, and no sweep hashes its dataset: only
    the returned model is hashed, once. perfbench's traced per-sweep counts
    read the call figures through the same bindings."""
    full = FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 16),
        6,
    )
    counts = dict.fromkeys(["pole_residue", "apply_tf", "apply_tf_adjoint",
                            "apply_tf_derivative", "eig", "dataset_hash"], 0)
    svds = {"factors": 0, "values": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_svd(a, *args, svd=np.linalg.svd, **kwargs):
        svds["factors" if kwargs.get("compute_uv", True) else "values"] += 1
        return svd(a, *args, **kwargs)

    for module in (h2, irka):
        monkeypatch.setattr(module, "pole_residue",
                            counting("pole_residue", module.pole_residue))
    for kind in ("apply_tf", "apply_tf_adjoint", "apply_tf_derivative"):
        monkeypatch.setattr(full, kind, counting(kind, getattr(full, kind)))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(irka, "dataset_hash", counting("dataset_hash", irka.dataset_hash))
    r = 2
    rom, report = run(full, IrkaConfig(r=r, init_points=[1.0, 10.0], max_iter=3))
    sweeps = report.iterations
    assert sweeps == 3
    assert np.all(np.isfinite(report.residual_history))
    assert counts == {"pole_residue": 3 * sweeps, "apply_tf": 3 * r * sweeps,
                      "apply_tf_adjoint": 2 * r * sweeps,
                      "apply_tf_derivative": 2 * r * sweeps,
                      "eig": sweeps, "dataset_hash": 1}
    assert svds == {"factors": r * sweeps, "values": sweeps}
    assert "dataset_sha256" in rom.provenance


def test_sweeps_encode_no_json(monkeypatch):
    """Intermediate iterates are never saved, so no sweep encodes one: the
    JSON encoders raise in every opmor module that binds them."""
    full = FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 16),
        6,
    )

    def refuse(*args):
        raise AssertionError("an IRKA sweep encoded JSON")

    for name, module in list(sys.modules.items()):
        if name == "opmor" or name.startswith("opmor."):
            for encoder in ("family_to_json", "complex_to_pair"):
                if hasattr(module, encoder):
                    monkeypatch.setattr(module, encoder, refuse)
    rom, report = run(full, IrkaConfig(r=2, init_points=[1.0, 10.0], max_iter=3))
    assert report.iterations == 3
    assert rom.data is not None
