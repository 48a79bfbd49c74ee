import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor.errors import ConditioningError, PoleProximityError
from opmor.funcspace import Patch, QuadratureGrid, restrict_mode, row_norms
from opmor.h2 import interpolation_residuals
from opmor.heat2d import FullModel, eigenvalue
from opmor.loewner import assemble
from opmor.projection import build_bases, project_explicit, sylvester_residuals
from opmor.samples import collect

from oracles import projector_check

POINTS = [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j]
RIGHT_DIRS = ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,2"]
LEFT_DIRS = ["mode:1,1", "mode:2,2", "mode:1,3", "mode:3,1"]


@pytest.fixture(scope="module")
def heat():
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 20),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 20),
        8,
    )


@pytest.fixture(scope="module")
def tiny():
    # single retained mode keeps every formula a one-liner
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 12),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 12),
        1,
    )


def random_rows(r, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))


class TestBuildBases:
    def test_single_mode_trial_entry(self, tiny):
        # v = (sigma - A)^{-1} B p with p = phi_11|con and sigma = 0 has the
        # single coefficient <1_con p, phi_11> / (0 - lam_11); the numerator
        # is the raw quadrature sum of phi_11^2 over the control patch
        p = restrict_mode(1, 1, tiny.con_grid)
        V, _, _ = build_bases(tiny, [0.0], [p], [1.0], ["const"])
        num = np.sum(tiny.con_grid.weights * p ** 2)
        assert V[0, 0] == pytest.approx(num / (0.0 - eigenvalue(1, 1)), rel=1e-13)

    def test_single_mode_test_entry(self, tiny):
        q = np.ones(tiny.obs_grid.size)
        _, W, _ = build_bases(tiny, [0.0], ["const"], [3.0], [q])
        num = np.sum(tiny.obs_grid.weights * restrict_mode(1, 1, tiny.obs_grid))
        assert W[0, 0] == pytest.approx(num / (3.0 - eigenvalue(1, 1)), rel=1e-13)

    def test_direction_specs_match_vectors(self, heat):
        V1, _, _ = build_bases(heat, [1.0], ["mode:2,3"], [2.0], ["const"])
        V2, _, _ = build_bases(
            heat, [1.0], [restrict_mode(2, 3, heat.con_grid)], [2.0], ["const"]
        )
        np.testing.assert_allclose(V1, V2, rtol=1e-14)

    def test_duplicate_right_pair_is_rank_deficient(self, heat):
        with pytest.raises(ConditioningError, match="rank deficient"):
            build_bases(
                heat, [1.0, 1.0], ["mode:1,1", "mode:1,1"], [2.0, 3.0],
                ["mode:1,1", "mode:2,2"],
            )

    def test_point_on_spectrum_rejected(self, heat):
        with pytest.raises(PoleProximityError):
            build_bases(heat, [eigenvalue(1, 1)], ["const"], [2.0], ["const"])

    def test_zero_direction_rejected(self, heat):
        zero = np.zeros(heat.con_grid.size)
        with pytest.raises(ValueError, match="zero"):
            build_bases(heat, [1.0], [zero], [2.0], ["const"])

    @given(scale=st.floats(0.1, 10.0), phase=st.floats(0.0, 6.28))
    @settings(max_examples=20, deadline=None)
    def test_trial_column_is_linear_in_direction(self, heat, scale, phase):
        c = scale * np.exp(1j * phase)
        p = restrict_mode(1, 1, heat.con_grid)
        base, _, _ = build_bases(heat, [1.0], [p], [2.0], ["const"])
        scaled, _, _ = build_bases(heat, [1.0], [p * c], [2.0], ["const"])
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)


class TestProjectExplicit:
    def test_single_mode_entries(self, tiny):
        sigma, rho = 1.0, 2.0
        p = restrict_mode(1, 1, tiny.con_grid)
        q = np.ones(tiny.obs_grid.size)
        rom = project_explicit(tiny, *build_bases(tiny, [sigma], [p], [rho], [q]))
        lam = eigenvalue(1, 1)
        bp = np.sum(tiny.con_grid.weights * p ** 2)
        cq = np.sum(tiny.obs_grid.weights * restrict_mode(1, 1, tiny.obs_grid))
        e_want = bp * cq / ((sigma - lam) * (rho - lam))
        assert rom.E[0, 0] == pytest.approx(e_want, rel=1e-13)
        assert rom.A[0, 0] == pytest.approx(lam * e_want, rel=1e-13)

    def test_matches_data_driven_distinct(self, heat):
        rhos = [p + 0.5 for p in POINTS]
        ds = collect(heat, POINTS, RIGHT_DIRS, rhos, LEFT_DIRS)
        direct = assemble(ds)
        explicit = project_explicit(heat, *build_bases(heat, POINTS, RIGHT_DIRS, rhos, LEFT_DIRS))
        scale = np.abs(direct.E).max()
        np.testing.assert_allclose(explicit.E, direct.E, atol=1e-10 * scale)
        scale = np.abs(direct.A).max()
        np.testing.assert_allclose(explicit.A, direct.A, atol=1e-10 * scale)
        assert np.all(row_norms(explicit.B - direct.B, direct.u_grid)
                      < 1e-10 * row_norms(direct.B, direct.u_grid))
        assert np.all(row_norms(explicit.C - direct.C, direct.y_grid)
                      < 1e-10 * row_norms(direct.C, direct.y_grid))

    def test_matches_data_driven_coincident(self, heat):
        # same points left and right force the divided-difference limit in
        # the data path; the projection path needs no special casing
        ds = collect(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        assert len(ds.hermites) == len(POINTS)
        direct = assemble(ds)
        explicit = project_explicit(heat, *build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        scale = np.abs(direct.E).max()
        np.testing.assert_allclose(explicit.E, direct.E, atol=1e-10 * scale)
        scale = np.abs(direct.A).max()
        np.testing.assert_allclose(explicit.A, direct.A, atol=1e-10 * scale)

    def test_provenance_records_points(self, heat):
        V, W, data = build_bases(heat, [1.0], ["const"], [2.0], ["const"])
        rom = project_explicit(heat, V, W, data)
        assert rom.provenance["kind"] == "projection"
        sigmas, P, rhos, Q = rom.data
        assert sigmas.tolist() == [1.0] and rhos.tolist() == [2.0]
        assert rom.data is data
        assert project_explicit(heat, V, W).data is None


class TestOneSidedInterpolation:
    # each check compares the projected model against the full model's data
    # at the directions the bases were built from
    def test_right_interpolation_for_any_test_basis(self, heat):
        V, _, _ = build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        rom = project_explicit(heat, V, random_rows(4, heat.poles.size, seed=7))
        right, _, _ = interpolation_residuals(
            rom, collect(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        assert np.all(right < 1e-8)

    def test_left_interpolation_for_any_trial_basis(self, heat):
        _, W, _ = build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        rom = project_explicit(heat, random_rows(heat.poles.size, 4, seed=11), W)
        _, left, _ = interpolation_residuals(
            rom, collect(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        assert np.all(left < 1e-8)

    def test_hermite_condition_with_both_bases(self, heat):
        rom = project_explicit(heat, *build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        _, _, herm = interpolation_residuals(
            rom, collect(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        assert herm.size == len(POINTS)
        assert np.all(herm < 1e-6)


class TestSylvesterResiduals:
    def test_exact_bases_satisfy_equations(self, heat):
        right, left = sylvester_residuals(
            heat, *build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS))
        assert right < 1e-11
        assert left < 1e-11

    def test_residual_grows_linearly(self, heat):
        V, W, data = build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        res = {}
        for eps in (1e-6, 1e-4):
            pert = V.copy()
            pert[0, 0] += eps
            res[eps], _ = sylvester_residuals(heat, pert, W, data)
        slope = res[1e-4] / res[1e-6]
        assert abs(slope - 100.0) < 10.0

    def test_empty_basis_gives_zero(self, heat):
        V, W, data = build_bases(heat, [], [], [], [])
        assert V.shape == (heat.poles.size, 0) and W.shape == (0, heat.poles.size)
        assert sylvester_residuals(heat, V, W, data) == (0.0, 0.0)


class TestProjector:
    def test_idempotent_and_fixes_range(self, heat):
        V, W, _ = build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        for s in (0.0, 3.0 + 2.0j):
            report = projector_check(heat, V, W, s, seed=3)
            assert report.idempotency_max < 1e-9
            assert report.range_max < 1e-10
            assert report.kernel_max < 1e-9

    def test_point_on_model_spectrum_rejected(self, heat):
        V, W, _ = build_bases(heat, POINTS, RIGHT_DIRS, POINTS, LEFT_DIRS)
        with pytest.raises(PoleProximityError):
            projector_check(heat, V, W, eigenvalue(1, 1))
