import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor.errors import PoleProximityError, ReductionError, StabilityError
from opmor.funcspace import FunctionVector, Patch, QuadratureGrid, constant, inner_product
from opmor.h2 import (
    FrequencyQuadrature,
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


def unit_const(grid):
    f = constant(grid)
    return f * (1.0 / f.norm())


def random_unit(grid, seed):
    rng = np.random.default_rng(seed)
    f = FunctionVector(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )
    return f * (1.0 / f.norm())


@pytest.fixture(scope="module")
def grids():
    return (
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 8),
    )


@pytest.fixture(scope="module")
def toy(grids):
    return RankOneModel(unit_const(grids[0]), unit_const(grids[1]), -1.0)


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
            FrequencyQuadrature(32)

    def test_weights_positive(self):
        quad = FrequencyQuadrature(64)
        assert np.all(quad.weights > 0)
        assert quad.omegas.size == 64

    def test_cauchy_kernel_integrates_exactly(self):
        # the substitution turns 1/(1+omega^2) into the constant 1, which
        # any Gauss rule integrates exactly
        quad = FrequencyQuadrature()
        value = quad.integrate(1.0 / (1.0 + quad.omegas ** 2))
        assert value == pytest.approx(np.pi, rel=1e-14)

    def test_two_pole_integral(self):
        # partial fractions: integral of 1/((1+w^2)(4+w^2)) over R is pi/6
        quad = FrequencyQuadrature()
        f = 1.0 / ((1.0 + quad.omegas ** 2) * (4.0 + quad.omegas ** 2))
        assert quad.integrate(f) == pytest.approx(np.pi / 6, rel=1e-12)

    def test_doubling_changes_little(self):
        vals = []
        for n in (256, 512):
            quad = FrequencyQuadrature(n)
            f = 1.0 / ((1.0 + quad.omegas ** 2) * (4.0 + quad.omegas ** 2))
            vals.append(quad.integrate(f))
        assert abs(vals[1] - vals[0]) < 1e-8 * abs(vals[1])


class TestHsNorm:
    def test_rank_one_value(self, grids):
        model = RankOneModel(unit_const(grids[0]) * 2.0, unit_const(grids[1]), -1.0)
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
            out = heat_rom.eval_tf(s, FunctionVector(heat_rom.u_grid, e))
            cols.append(np.sqrt(wy) * out.values)
        dense = np.array(cols).T
        assert hs_norm(heat_rom, s) == pytest.approx(np.linalg.norm(dense), rel=1e-10)

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
        pole = pole_residue(heat_rom).poles[0]
        with pytest.raises(ReductionError):
            hs_norm(heat_rom, pole)


class TestH2Norm:
    def test_rank_one_closed_value(self, toy):
        # 1/(2 pi) integral of 1/(1+w^2) = 1/2 for unit directions
        assert h2_norm(toy) == pytest.approx(np.sqrt(0.5), rel=1e-13)

    def test_rank_one_quadrature_agrees(self, toy):
        report = h2_norm_report(toy)
        assert report.closed == pytest.approx(np.sqrt(0.5), rel=1e-13)
        assert report.rel_gap < 1e-10

    @given(scale=st.floats(0.1, 10.0), phase=st.floats(0.0, 6.28))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, grids, scale, phase):
        p = unit_const(grids[0])
        q = unit_const(grids[1])
        scaled = RankOneModel(p * (scale * np.exp(1j * phase)), q, -1.0)
        assert h2_norm(scaled) == pytest.approx(scale * np.sqrt(0.5), rel=1e-12)

    def test_heat_closed_vs_quadrature(self, heat):
        report = h2_norm_report(heat)
        assert report.closed > 0
        assert report.rel_gap < 1e-6

    def test_reduced_model_norm(self, toy, toy_rom):
        # exact recovery: the reduced transfer function equals the full one
        assert h2_norm(toy_rom) == pytest.approx(h2_norm(toy), rel=1e-10)

    def test_unstable_model_rejected(self, grids):
        bad = RankOneModel(unit_const(grids[0]), unit_const(grids[1]), 1.0)
        with pytest.raises(StabilityError):
            h2_norm(bad)

    def test_unstable_rom_rejected(self, grids):
        bad = RankOneModel(unit_const(grids[0]), unit_const(grids[1]), 1.0)
        rom = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        with pytest.raises(StabilityError):
            h2_norm(rom)


class TestRank1Inner:
    def test_self_inner_is_squared_norm(self, toy):
        value = h2_inner_rank1(toy, toy.poles[0], toy.p, toy.q)
        assert value == pytest.approx(0.5, rel=1e-8)

    def test_self_inner_scaling(self, grids):
        p = unit_const(grids[0]) * 2.0
        q = unit_const(grids[1]) * 3.0
        model = RankOneModel(p, q, -0.7)
        want = 4.0 * 9.0 / 1.4
        assert h2_inner_rank1(model, -0.7, p, q) == pytest.approx(want, rel=1e-8)

    def test_matches_frequency_quadrature(self, heat):
        # the single-evaluation formula against the raw frequency integral
        # (1/2pi) int <q, G(iw) p> / (iw - lam) dw for random probes
        quad = FrequencyQuadrature(512)
        rng = np.random.default_rng(42)
        for trial in range(5):
            lam = complex(-0.5 - 3.0 * rng.random(), 4.0 * (rng.random() - 0.5))
            p = random_unit(heat.con_grid, seed=100 + trial)
            q = random_unit(heat.obs_grid, seed=200 + trial)
            vals = np.array([
                inner_product(q, heat.apply_tf(1j * w, p)) / (1j * w - lam)
                for w in quad.omegas
            ])
            oracle = quad.integrate(vals) / (2.0 * np.pi)
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
        q = z - g * (inner_product(z, g) / inner_product(g, g))
        assert abs(inner_product(q, g)) < 1e-14
        assert abs(h2_inner_rank1(heat, lam, p, q)) < 1e-14 * g.norm()


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

    def test_quadrature_oracle_skips_pole_residue(self, toy, heat, heat_rom, grids,
                                                  monkeypatch):
        # the oracle cross-checks the pole-residue form, so its stability
        # check must come from the pencil, not from pole_residue
        def refuse(rom):
            raise AssertionError("h2_error_quadrature called pole_residue")

        bad = RankOneModel(unit_const(grids[0]), unit_const(grids[1]), 1.0)
        unstable = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        monkeypatch.setattr("opmor.h2.pole_residue", refuse)
        assert h2_error_quadrature(heat, heat_rom) > 0
        with pytest.raises(StabilityError):
            h2_error_quadrature(toy, unstable)

    def test_triangle_sanity(self, heat, heat_rom):
        bound = (h2_norm(heat) + h2_norm(heat_rom)) ** 2
        assert h2_error(heat, heat_rom) <= bound + 1e-9

    def test_unstable_rom_rejected(self, toy, grids):
        bad = RankOneModel(unit_const(grids[0]), unit_const(grids[1]), 1.0)
        rom = assemble(collect(bad, [2.0], [bad.p], [3.0], [bad.q]))
        with pytest.raises(StabilityError):
            h2_error(toy, rom)

    def test_inconsistency_on_small_norm_model_raises(self, grids, monkeypatch):
        # ||G||^2 = 5e-7: a cross term inflated by 1e-7 drives the squared
        # error to -2e-7 ||G||^2 = -1e-13, far beyond round-off at this
        # scale, so it must not be clamped to zero
        p = unit_const(grids[0]) * 1e-3
        full = RankOneModel(p, unit_const(grids[1]), -1.0)
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
            b = FunctionVector(pr.con_grid, pr.input_factors[k])
            want = heat.apply_tf(mu, b)
            gap = (heat_rom.eval_tf(mu, b) - want).norm() / want.norm()
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
