import dataclasses
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor import h2, irka
from opmor.config import build_model
from opmor.errors import PoleProximityError, ReductionError, StabilityError
from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.h2 import (
    frequency_rule,
    h2_error,
    h2_error_quadrature,
    h2_inner_rank1,
    h2_norm,
    h2_norm_report,
    hs_norm,
    interpolation_residuals,
    optimality_residuals,
)
from opmor.heat2d import FullModel, eigenvalue
from opmor.loewner import assemble
from opmor.rom import pole_residue
from opmor.samples import collect

from oracles import RankOneModel

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def unit_const(grid):
    f = np.ones(grid.size, dtype=np.complex128)
    return f / row_norms(f, grid)


def random_unit(grid, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
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
def toy_rom(toy):
    return assemble(collect(toy, [1.0], [toy.p], [2.0], [toy.q]))


@pytest.fixture(scope="module")
def heat():
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 20),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 20),
        8,
    )


@pytest.fixture(scope="module")
def heat_rom(heat):
    ds = collect(heat, [1.0, 2.0], ["mode:1,1", "mode:1,2"],
                 [1.0, 2.0], ["mode:1,1", "mode:2,2"])
    return assemble(ds)


class TestFrequencyQuadrature:
    def test_minimum_node_count(self):
        with pytest.raises(ValueError, match="64"):
            frequency_rule(32)

    def test_weights_positive(self):
        omegas, weights = frequency_rule(64)
        assert np.all(weights > 0)
        assert omegas.size == 64
        assert not omegas.flags.writeable and not weights.flags.writeable

    def test_cauchy_kernel_integrates_exactly(self):
        # the substitution turns 1/(1+omega^2) into the constant 1, which
        # any Gauss rule integrates exactly
        omegas, weights = frequency_rule()
        value = 1.0 / (1.0 + omegas ** 2) @ weights
        assert value == pytest.approx(np.pi, rel=1e-14)

    def test_two_pole_integral(self):
        # partial fractions: integral of 1/((1+w^2)(4+w^2)) over R is pi/6
        omegas, weights = frequency_rule()
        f = 1.0 / ((1.0 + omegas ** 2) * (4.0 + omegas ** 2))
        assert f @ weights == pytest.approx(np.pi / 6, rel=1e-12)

    def test_rule_is_built_once_per_node_count(self, monkeypatch):
        calls = []
        build = h2._gauss_legendre
        monkeypatch.setattr(h2, "_gauss_legendre", lambda n: calls.append(n) or build(n))
        frequency_rule.cache_clear()
        first, second = frequency_rule(128), frequency_rule(128)
        assert calls == [128]
        assert second is first
        frequency_rule.cache_clear()
        fresh = frequency_rule(128)
        assert fresh[0].tobytes() == first[0].tobytes()
        assert fresh[1].tobytes() == first[1].tobytes()

    def test_doubling_changes_little(self):
        vals = []
        for n in (256, 512):
            omegas, weights = frequency_rule(n)
            f = 1.0 / ((1.0 + omegas ** 2) * (4.0 + omegas ** 2))
            vals.append(f @ weights)
        assert abs(vals[1] - vals[0]) < 1e-8 * abs(vals[1])


def reference_node_and_weight(mpmath, n, x0):
    """Newton on the Legendre recurrence at the working precision, from a
    double node; the weight is 2 / ((1 - x^2) P_n'(x)^2)."""
    x = mpmath.mpf(x0)
    for _ in range(4):
        p_prev, p = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1)
        x -= p / dp
    return x, 2 / ((1 - x * x) * dp ** 2)


class TestGaussLegendre:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("n", [64, 101])
    def test_integrates_legendre_products_exactly(self, n):
        # P_i P_j has degree at most 2n - 2 < 2n, which the rule integrates
        # exactly; each entry sums n terms, each off by a few round-offs
        x, w = h2._gauss_legendre(n)
        assert abs(w.sum() - 2.0) <= n * self.EPS
        V = np.polynomial.legendre.legvander(x, n - 1)
        np.testing.assert_allclose((V * w[:, None]).T @ V,
                                   np.diag(2.0 / (2 * np.arange(n) + 1)), rtol=0, atol=n * self.EPS)

    @pytest.mark.parametrize("n", [64, 65, 101])
    def test_symmetric_bit_for_bit(self, n):
        x, w = h2._gauss_legendre(n)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])

    def test_weights_match_high_precision_reference(self):
        # The computed theta_1 = arccos x_1 is a root of P_n at the rounded
        # cos(theta_1), so it may sit eps / sin(theta_1) off; the weight,
        # sin(theta)^2 / (n P_{n-1}(x))^2 at a root, moves by twice that
        # relative to theta_1, and theta_1 is about 2.405 / n. That bound,
        # 3.2e-10 at n = 2,048, is the tolerance for every weight checked
        # (numpy's eigenvalue-based leggauss is off by 6.3e-8 at the endpoint).
        mpmath = pytest.importorskip("mpmath")
        n = 2048
        theta1 = 2.405 / n
        rtol = 2 * self.EPS / (theta1 * np.sin(theta1))
        x, w = h2._gauss_legendre(n)
        with mpmath.workdps(40):
            for i in (n - 1, n - 2, n // 2):
                want_x, want_w = reference_node_and_weight(mpmath, n, x[i])
                assert abs(x[i] - float(want_x)) <= self.EPS
                assert w[i] == pytest.approx(float(want_w), rel=rtol, abs=0)

    def test_build_memory_is_linear(self):
        # a dense 1,024 x 1,024 matrix of doubles alone is 8 MiB
        tracemalloc.start()
        try:
            h2._gauss_legendre(1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestHsNorm:
    def test_rank_one_value(self, grids):
        model = RankOneModel(*grids, unit_const(grids[0]) * 2.0, unit_const(grids[1]), -1.0)
        s = 1.0 + 2.0j
        assert hs_norm(model, s) == pytest.approx(2.0 / abs(s + 1.0), rel=1e-13)

    def test_full_model_matches_dense_assembly(self, heat):
        # matrix of G(s) between weight-orthonormalized nodal bases, built
        # directly from the public factors
        s = 2.0 + 1.0j
        wu = heat.con_grid.weights
        wy = heat.obs_grid.weights
        alpha = 1.0 / (s - heat.poles)
        dense = (np.sqrt(wy)[:, None] * heat.output_factors.T) @ (
            alpha[:, None] * np.conj(heat.input_factors) * np.sqrt(wu)[None, :]
        )
        assert hs_norm(heat, s) == pytest.approx(np.linalg.norm(dense), rel=1e-10)

    def test_reduced_model_matches_dense_assembly(self, heat_rom):
        s = 3.0j
        wu = heat_rom.u_grid.weights
        wy = heat_rom.y_grid.weights
        cols = []
        for i in range(wu.size):
            e = np.zeros(wu.size, dtype=complex)
            e[i] = 1.0 / np.sqrt(wu[i])
            cols.append(np.sqrt(wy) * heat_rom.eval_tf(s, e))
        dense = np.array(cols).T
        assert hs_norm(pole_residue(heat_rom), s) == pytest.approx(np.linalg.norm(dense),
                                                                   rel=1e-10)

    def test_decay_along_real_axis(self, heat):
        # monotone decay past the slowest pole; the clean 1/s law only sets
        # in beyond the largest retained pole (~1.3e3 here)
        values = [hs_norm(heat, s) for s in (250.0, 1e3, 1e4)]
        assert values[0] > values[1] > values[2]
        assert 9.5 < hs_norm(heat, 1e5) / hs_norm(heat, 1e6) < 10.5

    def test_point_on_spectrum_rejected(self, heat):
        with pytest.raises(PoleProximityError):
            hs_norm(heat, eigenvalue(1, 1))

    def test_point_on_reduced_pole_rejected(self, heat_rom):
        pr = pole_residue(heat_rom)
        with pytest.raises(PoleProximityError):
            hs_norm(pr, pr.poles[0])


class TestH2Norm:
    def test_rank_one_closed_value(self, toy):
        # 1/(2 pi) integral of 1/(1+w^2) = 1/2 for unit directions
        assert h2_norm(toy) == pytest.approx(np.sqrt(0.5), rel=1e-13)

    def test_rank_one_quadrature_agrees(self, toy):
        report = h2_norm_report(toy)
        assert report.closed == pytest.approx(np.sqrt(0.5), rel=1e-13)
        assert abs(report.quadrature - report.closed) < 1e-10 * report.closed

    @given(scale=st.floats(0.1, 10.0), phase=st.floats(0.0, 6.28))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, grids, scale, phase):
        p = unit_const(grids[0])
        q = unit_const(grids[1])
        scaled = RankOneModel(*grids, p * (scale * np.exp(1j * phase)), q, -1.0)
        assert h2_norm(scaled) == pytest.approx(scale * np.sqrt(0.5), rel=1e-12)

    def test_heat_closed_vs_quadrature(self, heat):
        report = h2_norm_report(heat)
        assert report.closed > 0
        assert abs(report.quadrature - report.closed) < 1e-6 * report.closed

    def test_reduced_model_norm(self, toy, toy_rom):
        # exact recovery: the reduced transfer function equals the full one
        assert h2_norm(pole_residue(toy_rom)) == pytest.approx(h2_norm(toy), rel=1e-10)

    def test_unstable_model_rejected(self, grids):
        bad = RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), 1.0)
        with pytest.raises(StabilityError):
            h2_norm(bad)

    def test_unstable_rom_rejected(self, grids):
        bad = RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), 1.0)
        rom = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        with pytest.raises(StabilityError):
            h2_norm(pole_residue(rom))


class TestRank1Inner:
    def test_self_inner_is_squared_norm(self, toy):
        value = h2_inner_rank1(toy, toy.poles[0], toy.p, toy.q)
        assert value == pytest.approx(0.5, rel=1e-8)

    def test_self_inner_scaling(self, grids):
        p = unit_const(grids[0]) * 2.0
        q = unit_const(grids[1]) * 3.0
        model = RankOneModel(*grids, p, q, -0.7)
        want = 4.0 * 9.0 / 1.4
        assert h2_inner_rank1(model, -0.7, p, q) == pytest.approx(want, rel=1e-8)

    def test_matches_frequency_quadrature(self, heat):
        # the single-evaluation formula against the raw frequency integral
        # (1/2pi) int <q, G(iw) p> / (iw - lam) dw for random probes
        omegas, weights = frequency_rule(512)
        rng = np.random.default_rng(42)
        for trial in range(5):
            lam = complex(-0.5 - 3.0 * rng.random(), 4.0 * (rng.random() - 0.5))
            p = random_unit(heat.con_grid, seed=100 + trial)
            q = random_unit(heat.obs_grid, seed=200 + trial)
            vals = np.array([
                inner_product(q, heat.apply_tf(1j * w, p), heat.obs_grid) / (1j * w - lam)
                for w in omegas
            ])
            oracle = vals @ weights / (2.0 * np.pi)
            got = h2_inner_rank1(heat, lam, p, q)
            assert abs(got - oracle) < 1e-6 * abs(oracle)

    def test_right_half_plane_pole_rejected(self, heat):
        p = unit_const(heat.con_grid)
        q = unit_const(heat.obs_grid)
        with pytest.raises(ValueError, match="Re < 0"):
            h2_inner_rank1(heat, 0.5, p, q)

    def test_orthogonal_output_direction_gives_zero(self, heat):
        lam = -2.0 + 1.0j
        p = unit_const(heat.con_grid)
        g = heat.apply_tf(-np.conj(lam), p)
        z = random_unit(heat.obs_grid, seed=5)
        y = heat.obs_grid
        q = z - g * (inner_product(z, g, y) / inner_product(g, g, y))
        assert abs(inner_product(q, g, y)) < 1e-14
        assert abs(h2_inner_rank1(heat, lam, p, q)) < 1e-14 * row_norms(g, y)


class TestH2Error:
    def test_exact_recovery_is_zero(self, toy, toy_rom):
        err = h2_error(toy, toy_rom)
        assert err >= 0.0
        assert err < 1e-10

    def test_rom_against_its_own_pole_residue_form(self, heat_rom):
        full = pole_residue(heat_rom)
        assert h2_error(full, heat_rom) < 1e-10

    def test_matches_direct_quadrature(self, heat, heat_rom):
        err = h2_error(heat, heat_rom)
        oracle = h2_error_quadrature(heat, heat_rom)
        assert err == pytest.approx(oracle, rel=1e-5)

    def test_matches_direct_quadrature_at_thirty_modes(self):
        # criterion 6 where the benchmark skips the cross-check (K = 900):
        # the r=2 IRKA model from its seed-1, draw-0 starting points. Node
        # doubling builds rules up to 4,096 nodes inside the traced call,
        # where one dense 4,096 x 4,096 eigenproblem alone is 128 MiB.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        model = build_model(workloads.irka_model(30))
        points = workloads.init_points(1, 0, 2)
        rom, report = irka.run(model, irka.IrkaConfig(r=2, init_points=points))
        assert report.converged
        err = h2_error(model, rom)
        frequency_rule.cache_clear()
        tracemalloc.start()
        try:
            oracle = h2_error_quadrature(model, rom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err == pytest.approx(oracle, rel=1e-5)
        assert peak < 16 * 2 ** 20

    def test_quadrature_oracle_skips_pole_residue(self, toy, heat, heat_rom, grids,
                                                  monkeypatch):
        # the oracle cross-checks the pole-residue form, so its stability
        # check must come from the pencil, not from pole_residue
        def refuse(rom):
            raise AssertionError("h2_error_quadrature called pole_residue")

        bad = RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), 1.0)
        unstable = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        monkeypatch.setattr("opmor.h2.pole_residue", refuse)
        assert h2_error_quadrature(heat, heat_rom) > 0
        with pytest.raises(StabilityError):
            h2_error_quadrature(toy, unstable)

    def test_exact_rom_oracle_settles_after_two_rules(self, toy, toy_rom, monkeypatch):
        # an error of 0 cannot settle relative to itself; it settles against
        # the floor QUAD_STABLE_RTOL * (||G||^2 + ||G_r||^2)
        sizes = []
        monkeypatch.setattr(h2, "frequency_rule",
                            lambda n: sizes.append(n) or frequency_rule(n))
        assert h2_error_quadrature(toy, toy_rom) < 1e-10
        assert sizes == [h2.DEFAULT_NODES, 2 * h2.DEFAULT_NODES]

    def test_full_model_norm_is_computed_once(self, heat_rom, monkeypatch):
        # the full model's closed series is a cached property: IRKA calls
        # h2_error once per sweep, and the series runs on the first call only
        full = FullModel(heat_rom.u_grid, heat_rom.y_grid, 8)
        seen = []
        series = FullModel.h2_sq.func
        monkeypatch.setattr(FullModel.h2_sq, "func",
                            lambda model: seen.append(model) or series(model))
        first, second = h2_error(full, heat_rom), h2_error(full, heat_rom)
        assert second == first
        assert len(seen) == 1 and seen[0] is full

    def test_triangle_sanity(self, heat, heat_rom):
        bound = (h2_norm(heat) + h2_norm(pole_residue(heat_rom))) ** 2
        assert h2_error(heat, heat_rom) <= bound + 1e-9

    def test_unstable_rom_rejected(self, toy, grids):
        bad = RankOneModel(*grids, unit_const(grids[0]), unit_const(grids[1]), 1.0)
        rom = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        with pytest.raises(StabilityError):
            h2_error(toy, rom)

    def test_inconsistency_on_small_norm_model_raises(self, grids, monkeypatch):
        # ||G||^2 = 5e-7: a cross term inflated by 1e-7 drives the squared
        # error to -2e-7 ||G||^2 = -1e-13, far beyond round-off at this
        # scale, so it must not be clamped to zero
        p = unit_const(grids[0]) * 1e-3
        full = RankOneModel(*grids, p, unit_const(grids[1]), -1.0)
        assert h2_norm(full) ** 2 == pytest.approx(5e-7, rel=1e-12)
        rom = assemble(collect(full, [1.0], [full.p], [2.0], [full.q]))
        exact = full.apply_tf
        monkeypatch.setattr(full, "apply_tf", lambda s, d: exact(s, d) * (1.0 + 1e-7))
        with pytest.raises(ReductionError):
            h2_error(full, rom)


class TestOptimalityResiduals:
    def test_exact_recovery_residuals_vanish(self, toy, toy_rom):
        report = optimality_residuals(toy, toy_rom)
        assert report.max_residual < 1e-12
        assert np.all(report.eps_left >= 0)
        assert np.all(report.eps_right >= 0)
        assert np.all(report.eps_herm >= 0)

    def test_discriminates_non_optimal_rom(self, heat, heat_rom):
        # an interpolatory ROM at arbitrary points is far from stationarity;
        # this is what makes the residual a useful convergence certificate
        report = optimality_residuals(heat, heat_rom)
        assert report.max_residual > 1e-2
        assert report.poles.size == heat_rom.r
        assert report.eps_left.size == report.eps_right.size == report.eps_herm.size == 2

    def test_eps_right_is_the_transfer_residual(self, heat, heat_rom):
        # eps_right[i] compares G_r(mu_i)[b_i] with G(mu_i)[b_i] at the mirror
        # point mu_i = -conj(lam_i); the adjoint residual along c_i is eps_left
        report = optimality_residuals(heat, heat_rom)
        pr = pole_residue(heat_rom)
        for k, lam in enumerate(pr.poles):
            mu = -np.conj(lam)
            b = pr.input_factors[k]
            want = heat.apply_tf(mu, b)
            gap = (row_norms(heat_rom.eval_tf(mu, b) - want, pr.obs_grid)
                   / row_norms(want, pr.obs_grid))
            assert report.eps_right[k] == pytest.approx(gap, rel=1e-12)


class TestInterpolationResiduals:
    """The checker compares the reduced model against the stored data, so a
    perturbation of one stored value reads back as that entry's residual."""

    EPS = 1e-4

    @pytest.fixture(scope="class")
    def data(self, heat):
        ds = collect(heat, [1.0, 2.0, 4.0], ["mode:1,1", "mode:1,2", "const"],
                     [1.0, 2.5, 4.0], ["mode:1,1", "mode:2,2", "const"])
        return assemble(ds), ds

    def test_own_data_at_round_off(self, data):
        rom, ds = data
        right, left, herm = interpolation_residuals(rom, ds)
        assert right.size == left.size == 3
        assert sorted(ds.hermites) == [(0, 0), (2, 2)] and herm.size == 2
        assert max(right.max(), left.max(), herm.max()) < 1e-10

    @pytest.mark.parametrize("kind, index", [(0, 1), (1, 2), (2, 1)])
    def test_perturbed_value_reads_back(self, data, kind, index):
        # a stored value scaled by 1 + eps sits eps/(1 + eps) away, relatively,
        # from what the reduced model reproduces to round-off
        rom, ds = data
        ds = dataclasses.replace(ds, right_values=ds.right_values.copy(),
                                 left_values=ds.left_values.copy(),
                                 hermites=dict(ds.hermites))
        if kind == 0:
            ds.right_values[index] *= 1 + self.EPS
        elif kind == 1:
            ds.left_values[index] *= 1 + self.EPS
        else:
            ds.hermites[sorted(ds.hermites)[index]] *= 1 + self.EPS
        residuals = interpolation_residuals(rom, ds)
        assert residuals[kind][index] == pytest.approx(self.EPS / (1 + self.EPS), rel=1e-6)
        others = np.delete(np.concatenate(residuals),
                           sum(r.size for r in residuals[:kind]) + index)
        assert others.max() < 1e-10
