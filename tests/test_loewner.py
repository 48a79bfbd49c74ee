import json
from dataclasses import replace

import numpy as np
import pytest

from opmor.errors import ConditioningError, DatasetError
from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.h2 import interpolation_residuals
from opmor.heat2d import FullModel
from opmor.loewner import _matrices, assemble, dataset_hash
from opmor.rom import ReducedModel, pole_residue
from opmor.projection import build_bases, project_explicit
from opmor.samples import collect, conjugate_transform, load, save

from oracles import RankOneModel


def _rights(ds):
    """(p_j, G(sigma_j)[p_j]) per right sample, as node-value rows."""
    return list(zip(ds.P, ds.right_values))


def _lefts(ds):
    """(q_i, G(rho_i)^+[q_i]) per left sample, as node-value rows."""
    return list(zip(ds.Q, ds.left_values))


def unit_const(grid):
    f = np.ones(grid.size, dtype=np.complex128)
    return f / row_norms(f, grid)


def rel_gap(got, want, grid):
    return row_norms(got - want, grid) / row_norms(want, grid)


@pytest.fixture(scope="module")
def toy():
    # G(s) = <., p> q / (s + 1) with unit-norm p, q
    u_grid = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8)
    y_grid = QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 8)
    return RankOneModel(u_grid, y_grid, unit_const(u_grid), unit_const(y_grid), -1.0)


@pytest.fixture(scope="module")
def heat():
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 20),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 20),
        8,
    )


# the README's sample block: conjugate-closed on both sides
README_SIGMAS = [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j]
README_RHOS = [1.0, 2.5, 5.0 + 1.0j, 5.0 - 1.0j]
README_RIGHT_DIRS = ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"]
README_LEFT_DIRS = ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"]


@pytest.fixture(scope="module")
def readme():
    """(model, dataset) of the README config."""
    model = FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 28),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 28),
        12,
    )
    return model, collect(model, README_SIGMAS, README_RIGHT_DIRS,
                          README_RHOS, README_LEFT_DIRS)


class TestToyDistinct:
    def test_hand_computed_entries(self, toy):
        # G(1)[p] = q/2, G(2)^+[q] = p/3, so
        # E = -(1/3 - 1/2)/(2 - 1) = 1/6 and A = -(2/3 - 1/2)/1 = -1/6
        ds = collect(toy, [1.0], [toy.p], [2.0], [toy.q])
        rom = assemble(ds)
        assert rom.E[0, 0] == pytest.approx(1 / 6, rel=1e-13)
        assert rom.A[0, 0] == pytest.approx(-1 / 6, rel=1e-13)

    def test_exact_recovery(self, toy):
        ds = collect(toy, [1.0], [toy.p], [2.0], [toy.q])
        rom = assemble(ds)
        for s in (0.0, 3.0):
            got = rom.eval_tf(s, toy.p)
            want = toy.apply_tf(s, toy.p)
            assert rel_gap(got, want, toy.obs_grid) < 1e-13
        # G_r(0)[p] = <p,p> q = q for unit p
        np.testing.assert_allclose(rom.eval_tf(0.0, toy.p), toy.q, rtol=1e-12)


class TestToyCoincident:
    def test_hand_computed_entries(self, toy):
        # hermite scalar <dG/ds(1)[p], q> = -1/4;
        # E = 1/4, A = -(1/2 + 1*(-1/4)) = -1/4
        ds = collect(toy, [1.0], [toy.p], [1.0], [toy.q])
        assert len(ds.hermites) == 1
        assert ds.hermites[0, 0] == pytest.approx(-1 / 4, rel=1e-13)
        rom = assemble(ds)
        assert rom.E[0, 0] == pytest.approx(1 / 4, rel=1e-13)
        assert rom.A[0, 0] == pytest.approx(-1 / 4, rel=1e-13)

    def test_exact_recovery(self, toy):
        ds = collect(toy, [1.0], [toy.p], [1.0], [toy.q])
        rom = assemble(ds)
        for s in (0.0, 3.0):
            got = rom.eval_tf(s, toy.p)
            want = toy.apply_tf(s, toy.p)
            assert rel_gap(got, want, toy.obs_grid) < 1e-13


class TestAssembleHeat:
    def test_shift_consistency(self, heat):
        # A - diag(rho) E has entries -<G(sigma_j)[p_j], q_i>, and
        # A - E diag(sigma) has entries -<p_j, G(rho_i)^+[q_i]>; both are
        # algebraic identities of the divided-difference formulas
        ds = collect(
            heat,
            [1.0, 2.0 + 1.0j, 4.0],
            ["mode:1,1", "mode:1,2", "const"],
            [1.5, 3.0, 5.0 - 2.0j],
            ["mode:1,1", "const", "mode:2,1"],
        )
        rom = assemble(ds)
        rights, lefts = _rights(ds), _lefts(ds)
        gq = np.array(
            [[inner_product(rv, q, ds.y_grid) for _, rv in rights] for q, _ in lefts]
        )
        pg = np.array(
            [[inner_product(p, lv, ds.u_grid) for p, _ in rights] for _, lv in lefts]
        )
        lhs = rom.A - np.diag(ds.rhos) @ rom.E
        np.testing.assert_allclose(lhs, -gq, rtol=1e-12, atol=1e-18)
        lhs = rom.A - rom.E @ np.diag(ds.sigmas)
        np.testing.assert_allclose(lhs, -pg, rtol=1e-12, atol=1e-18)

    def test_interpolation_residuals(self, heat):
        ds = collect(
            heat,
            [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j],
            ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,2"],
            [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j],
            ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,2"],
        )
        rom = assemble(ds)
        for sigma, (p, value) in zip(ds.sigmas, _rights(ds)):
            assert rel_gap(rom.eval_tf(sigma, p), value, ds.y_grid) < 1e-8
        for rho, (q, value) in zip(ds.rhos, _lefts(ds)):
            assert rel_gap(rom.eval_tf_adjoint(rho, q), value, ds.u_grid) < 1e-8

    def test_default_config_condition(self, heat):
        ds = collect(
            heat,
            [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j],
            ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,2"],
            [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j],
            ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,2"],
        )
        # the heat transfer function between two small patches is strongly
        # reducible, so tangential pairings are correlated and cond(E) sits
        # around 1e4-1e6 even for orthogonal directions; what matters is
        # staying well below the warn (1e8) and reject (1e12) thresholds
        assert assemble(ds).e_cond < 1e7

    def test_unbalanced_dataset_rejected(self, heat):
        ds = collect(heat, [1.0, 2.0], ["const", "mode:1,1"], [3.0, 4.0],
                     ["const", "mode:1,1"])
        with pytest.raises(DatasetError):
            assemble(replace(ds, rhos=ds.rhos[:-1]))

    def test_duplicate_data_rejected(self, heat):
        # identical right point and direction twice: two equal E columns
        ds = collect(
            heat,
            [1.0, 1.0],
            ["mode:1,1", "mode:1,1"],
            [2.0, 3.0],
            ["mode:1,1", "mode:2,1"],
        )
        with pytest.raises(ConditioningError) as ei:
            assemble(ds)
        assert ei.value.cond_estimate > 1e12

    def test_condition_warning_band(self, heat):
        # a right-point gap of 1e-6 along one direction puts cond E near
        # 4.5e9: above the warn threshold (1e8), below the reject one (1e12)
        ds = collect(
            heat,
            [1.0, 1.0 + 1e-6],
            ["mode:1,1", "mode:1,1"],
            [2.0, 3.0],
            ["mode:1,1", "mode:2,1"],
        )
        with pytest.warns(UserWarning, match="condition estimate"):
            rom = assemble(ds)
        assert 1e8 < rom.e_cond <= 1e12

    def test_provenance(self, heat):
        ds = collect(heat, [1.0], ["const"], [2.0], ["const"])
        rom = assemble(ds)
        prov = rom.provenance
        assert prov["kind"] == "loewner"
        # the callers that keep a model record the dataset hash, not assemble
        assert "dataset_sha256" not in prov
        assert prov["cond_E"] == pytest.approx(1.0)
        # the model keeps the dataset's own arrays; rom.save encodes them
        assert all(a is b for a, b in zip(rom.data, (ds.sigmas, ds.P, ds.rhos, ds.Q)))
        assert "sigmas" not in prov

    def test_entries_match_pairwise_divided_differences(self, heat):
        # entry-by-entry reference for the matrix-product assembly; its sums
        # run in another order, so agreement is to roundoff, not bitwise
        sig = [1.0, 2.0, 5.0 + 1.0j, 5.0 - 1.0j]
        rho = [1.0, 2.5, 5.0 + 1.0j, 5.0 - 1.0j]
        ds = collect(heat, sig, ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"],
                     rho, ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"])
        rom = assemble(ds)
        herm = ds.hermites
        assert len(herm) == 3
        ref_e = np.zeros((4, 4), dtype=complex)
        ref_a = np.zeros((4, 4), dtype=complex)
        for i, (q, lv) in enumerate(_lefts(ds)):
            for j, (p, rv) in enumerate(_rights(ds)):
                gq = inner_product(rv, q, ds.y_grid)
                pg = inner_product(p, lv, ds.u_grid)
                if (i, j) in herm:
                    e, a = -herm[i, j], -(gq + sig[j] * herm[i, j])
                else:
                    d = rho[i] - sig[j]
                    e, a = -(pg - gq) / d, -(rho[i] * pg - sig[j] * gq) / d
                ref_e[i, j], ref_a[i, j] = e, a
        # the data are conjugate-closed, so assembly returns the real realization
        TL = conjugate_transform(ds.rhos, ds.Q, ds.y_grid)
        TR = conjugate_transform(ds.sigmas, ds.P, ds.u_grid)
        for got, ref in ((rom.E, ref_e), (rom.A, ref_a)):
            want = (TL.conj().T @ ref @ TR).real
            assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(got).max()

    def test_dataset_hash_sensitivity(self, heat):
        a = collect(heat, [1.0, 3.0], ["const", "mode:1,2"],
                    [1.0, 2.0], ["const", "mode:2,1"])
        ((key, h),) = a.hermites.items()
        grid = a.u_grid
        variants = [
            collect(heat, [1.0, 3.0 + 1e-9], ["const", "mode:1,2"],
                    [1.0, 2.0], ["const", "mode:2,1"]),
            # other patch bounds at the same order, so the rows keep their shape
            replace(a, u_grid=QuadratureGrid(replace(grid.patch, y_hi=grid.patch.y_hi + 0.05),
                                             grid.order)),
            replace(a, coincidence_tol=1e-11),
            replace(a, hermites={key: complex(np.nextafter(h.real, np.inf), h.imag)}),
        ]
        assert dataset_hash(a) == dataset_hash(a)
        assert len({dataset_hash(d) for d in [a, *variants]}) == 1 + len(variants)

    def test_dataset_hash_survives_save_and_load(self, heat, tmp_path):
        # loading is bit-exact, so a saved file hashes like the dataset it
        # came from, whatever the order of its hermite entries: the dataset
        # keeps them in (i, j) order
        ds = collect(heat, [1.0, 2.0], ["const", "mode:1,2"],
                     [1.0, 2.0], ["const", "mode:2,1"])
        assert len(ds.hermites) == 2
        path = tmp_path / "data.json"
        save(ds, path)
        assert dataset_hash(load(path)) == dataset_hash(ds)
        with open(path) as f:
            obj = json.load(f)
        obj["hermites"].reverse()
        with open(path, "w") as f:
            json.dump(obj, f)
        assert list(load(path).hermites) == [(0, 0), (1, 1)]
        assert dataset_hash(load(path)) == dataset_hash(ds)


def loewner_route(model, sigmas, ps, rhos, qs):
    return assemble(collect(model, sigmas, ps, rhos, qs))


def projection_route(model, sigmas, ps, rhos, qs):
    return project_explicit(model, *build_bases(model, sigmas, ps, rhos, qs))


# both interpolatory constructions end in rom.interpolant
ROUTES = pytest.mark.parametrize("route", [loewner_route, projection_route],
                                 ids=["assemble", "project_explicit"])


class TestRealRealization:
    @ROUTES
    def test_closed_data_give_real_matrices_and_poles(self, readme, route):
        model, _ = readme
        rom = route(model, README_SIGMAS, README_RIGHT_DIRS, README_RHOS, README_LEFT_DIRS)
        for arr in (rom.E, rom.A, rom.B, rom.C):
            assert not np.any(arr.imag)
        poles = pole_residue(rom).poles
        flat = poles[np.abs(poles.imag) < 1e-8 * np.abs(poles)]
        assert flat.size and not np.any(flat.imag)

    def test_same_transfer_function_as_complex_realization(self, readme):
        _, ds = readme
        rom = assemble(ds)
        ref = ReducedModel(*_matrices(ds), ds.left_values, ds.right_values,
                           ds.u_grid, ds.y_grid)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = complex(rng.uniform(0.5, 20.0), rng.uniform(-20.0, 20.0))
            p = rng.standard_normal(ds.u_grid.size) + 1j * rng.standard_normal(ds.u_grid.size)
            gap = rel_gap(rom.eval_tf(s, p), ref.eval_tf(s, p), ds.y_grid)
            assert gap <= np.finfo(float).eps * ref.e_cond

    @ROUTES
    def test_unpaired_point_keeps_complex_realization(self, readme, route):
        model, _ = readme
        rom = route(model, README_SIGMAS[:3], README_RIGHT_DIRS[:3],
                    README_RHOS[:3], README_LEFT_DIRS[:3])
        assert np.any(rom.E.imag)

    def test_projection_without_data_keeps_complex_realization(self, readme):
        model, _ = readme
        V, W, _ = build_bases(model, README_SIGMAS, README_RIGHT_DIRS,
                              README_RHOS, README_LEFT_DIRS)
        rom = project_explicit(model, V, W)
        assert rom.data is None and np.any(rom.E.imag)

    def test_interpolation_residuals_at_round_off(self, readme):
        # applying the pencil's SVD factors reproduces the README data to
        # about 7e-14; an explicit pencil inverse (LU or SVD-formed) reads
        # 2.4e-12 or more here and fails, though it passes the mpmath bound below
        _, ds = readme
        residuals = interpolation_residuals(assemble(ds), ds)
        assert max(np.max(res) for res in residuals) <= 1000 * np.finfo(float).eps

    def test_pencil_solve_matches_50_digit_evaluation(self, readme):
        # the pencil solve is backward stable, so its error at a sample point
        # stays within a small multiple of eps * cond(sigma E - A)
        mpmath = pytest.importorskip("mpmath")
        _, ds = readme
        rom = assemble(ds)

        def mp_matrix(arr):
            return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in arr])

        for s, p in zip(README_SIGMAS, ds.P):
            with mpmath.workdps(50):
                u = mp_matrix(((np.conj(rom.B) * ds.u_grid.weights) @ p)[:, None])
                x = mpmath.lu_solve(mpmath.mpc(s) * mp_matrix(rom.E) - mp_matrix(rom.A), u)
                want = np.array([complex(mpmath.fsum(mpmath.mpc(complex(c)) * xi
                                                     for c, xi in zip(col, x)))
                                 for col in rom.C.T])
            gap = np.linalg.norm(rom.eval_tf(s, p) - want) / np.linalg.norm(want)
            assert gap <= 10 * np.finfo(float).eps * np.linalg.cond(s * rom.E - rom.A)
