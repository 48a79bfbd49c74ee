import json
from dataclasses import replace

import numpy as np
import pytest

from opmor.errors import DatasetError, ParseError, PoleProximityError
from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.heat2d import FullModel, eigenvalue
from opmor.loewner import assemble
from opmor.rom import conjugate_transform
from opmor.samples import collect, directions, load, make_direction, save


@pytest.fixture(scope="module")
def model():
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 16),
        4,
    )


class TestDirections:
    def test_mode_spec(self, model):
        d = make_direction("mode:2,3", model.con_grid)
        x, y = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        np.testing.assert_allclose(d, 2 * np.sin(2 * np.pi * x) * np.sin(3 * np.pi * y))

    def test_const_spec_normalized(self, model):
        d = make_direction("const", model.con_grid)
        assert row_norms(d, model.con_grid) == pytest.approx(1.0, rel=1e-14)
        assert np.ptp(d.real) == pytest.approx(0.0, abs=1e-15)

    def test_random_spec_deterministic(self, model):
        a = make_direction("random:42", model.con_grid)
        b = make_direction("random:42", model.con_grid)
        c = make_direction("random:43", model.con_grid)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert row_norms(a, model.con_grid) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("bad", ["mode:1", "random:x", "gauss", "mode:a,b", 7])
    def test_bad_specs(self, model, bad):
        with pytest.raises(ValueError):
            make_direction(bad, model.con_grid)

    def test_specs_and_vectors_become_rows(self, model):
        f = make_direction("random:3", model.con_grid)
        rows = directions(["const", f], model.con_grid, "right")
        assert rows.shape == (2, model.con_grid.size)
        np.testing.assert_array_equal(rows[0], make_direction("const", model.con_grid))
        np.testing.assert_array_equal(rows[1], f)
        assert directions([], model.con_grid, "right").shape == (0, model.con_grid.size)

    def test_rows_pass_through(self, model):
        rows = directions(["mode:1,1", "random:4"], model.con_grid, "right")
        np.testing.assert_array_equal(directions(rows, model.con_grid, "right"), rows)
        with pytest.raises(ValueError):
            directions(rows[:, :-1], model.con_grid, "right")

    def test_zero_row_named_by_side(self, model):
        rows = directions(["const", "const"], model.obs_grid, "left")
        rows[1] = 0.0
        with pytest.raises(ValueError, match="left direction 1 is zero"):
            directions(rows, model.obs_grid, "left")


class TestCollect:
    def test_distinct_points_no_hermite(self, model):
        ds = collect(model, [1.0, 2.0], ["const", "mode:1,1"], [3.0, 4.0],
                     ["const", "mode:1,1"])
        assert ds.r == 2
        assert ds.hermites == {}
        # values are exactly the model evaluations
        np.testing.assert_array_equal(ds.right_values[0], model.apply_tf(1.0, ds.P[0]))
        np.testing.assert_array_equal(ds.left_values[1], model.apply_tf_adjoint(4.0, ds.Q[1]))

    def test_coincident_pair_gets_hermite(self, model):
        ds = collect(model, [1.0, 5.0], ["const", "const"], [1.0, 7.0],
                     ["const", "const"])
        assert list(ds.hermites) == [(0, 0)]
        want = inner_product(model.apply_tf_derivative(1.0, ds.P[0]), ds.Q[0], ds.y_grid)
        assert ds.hermites[0, 0] == want

    def test_dataset_is_read_only(self, model):
        # the checks run once, at construction, so nothing may change after
        ds = collect(model, [1.0, 5.0], ["const", "const"], [1.0, 7.0],
                     ["const", "const"])
        with pytest.raises(ValueError, match="read-only"):
            ds.Q[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ds.right_values[0] = 0
        with pytest.raises(TypeError):
            ds.hermites[0, 0] = 1.0

    def test_zero_direction_rejected(self, model):
        z = np.zeros(model.con_grid.size)
        with pytest.raises(ValueError, match="direction 1 is zero"):
            collect(model, [1.0, 2.0], ["const", z], [3.0, 4.0], ["const", "const"])

    def test_point_on_spectrum_rejected(self, model):
        with pytest.raises(PoleProximityError):
            collect(model, [eigenvalue(1, 1)], ["const"], [3.0], ["const"])

    def test_near_coincidence_warns(self, model):
        with pytest.warns(UserWarning, match="nearly coincident"):
            ds = collect(model, [1.0 + 5e-8], ["const"], [1.0], ["const"])
        assert ds.hermites == {}

    def test_length_mismatch(self, model):
        with pytest.raises(ValueError):
            collect(model, [1.0, 2.0], ["const"], [3.0], ["const"])


def paired(ds):
    """Both sides of the dataset have a conjugate pair transform."""
    return (conjugate_transform(ds.sigmas, ds.P, ds.u_grid) is not None
            and conjugate_transform(ds.rhos, ds.Q, ds.y_grid) is not None)


class TestConjugateTransform:
    POINTS = [1.0, 2.0 + 1.0j, 4.0, 2.0 - 1.0j]

    def dirs(self, model):
        d = make_direction("random:7", model.con_grid)
        return np.array([make_direction("mode:1,1", model.con_grid), d,
                         make_direction("const", model.con_grid), np.conj(d)])

    def test_unitary_and_realizes_closed_data(self, model):
        P = self.dirs(model)
        T = conjugate_transform(self.POINTS, P, model.con_grid)
        np.testing.assert_allclose(T.conj().T @ T, np.eye(4), atol=1e-15)
        real = T.T @ P
        assert np.max(np.abs(real.imag)) <= 1e-15 * np.max(np.abs(real))
        # a pair maps to sqrt(2) times the real and imaginary parts of its first row
        np.testing.assert_allclose(real[[1, 3]].real, np.sqrt(2) * np.array(
            [P[1].real, P[1].imag]), rtol=1e-15, atol=1e-15)

    def test_unpaired_point(self, model):
        P = self.dirs(model)
        assert conjugate_transform(self.POINTS[:3], P[:3], model.con_grid) is None

    def test_pair_with_unconjugated_directions(self, model):
        P = self.dirs(model)
        P[3] = P[1]
        assert conjugate_transform(self.POINTS, P, model.con_grid) is None

    def test_open_set_detected(self, model):
        ds = collect(model, [3.0 + 2.0j], ["random:5"], [3.0 + 2.0j], ["random:6"])
        assert not paired(ds)
        real = collect(model, [1.0], ["const"], [2.0], ["const"])
        assert paired(real)

    def test_partner_within_conjugate_rtol_is_paired(self, model):
        # 5e-13 off the exact conjugate is a partner under CONJUGATE_RTOL, so
        # the collected data pair and the assembled pencil is real
        ds = collect(
            model, [1.0, 5.0 + 1.0j, 5.0 - 1.0j + 5e-13j], ["mode:1,1", "mode:2,1", "mode:2,1"],
            [1.5, 2.5, 3.5], ["mode:1,1", "mode:1,2", "const"],
        )
        assert ds.r == 3
        assert paired(ds)
        assert not np.any(assemble(ds).E.imag)

    # (points, rows as indices into [mode:1,1, const, d, e, conj d, conj e],
    # each sample's partner); in the duplicate case sample 0's first conjugate
    # point, sample 1, carries another direction, so its partner is sample 3
    CASES = {
        "distinct": (POINTS, [0, 2, 1, 4], [0, 3, 2, 1]),
        "duplicate": ([2.0 + 1.0j, 2.0 - 1.0j, 2.0 + 1.0j, 2.0 - 1.0j], [2, 3, 5, 4],
                      [3, 2, 1, 0]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_partner_matches_point_and_direction(self, model, case):
        points, pick, partner = self.CASES[case]
        grid = model.con_grid
        d, e = make_direction("random:7", grid), make_direction("random:8", grid)
        rows = np.array([make_direction("mode:1,1", grid), make_direction("const", grid),
                         d, e, np.conj(d), np.conj(e)])[pick]
        T = conjugate_transform(points, rows, grid)
        np.testing.assert_allclose(T.conj().T @ T, np.eye(4), atol=1e-15)
        assert [set(np.flatnonzero(T[:, k])) for k in range(4)] == [{k, partner[k]}
                                                                    for k in range(4)]
        real = T.T @ rows
        assert np.max(np.abs(real.imag)) <= 1e-15 * np.max(np.abs(real))


class TestRoundTrip:
    def test_bit_exact(self, model, tmp_path):
        ds = collect(
            model,
            [1.0, 2.0 + 0.5j, 4.0],
            ["const", "random:3", "mode:2,1"],
            [1.0, 3.0, 5.0 - 1.0j],
            ["mode:1,1", "const", "random:9"],
        )
        path = tmp_path / "ds.json"
        save(ds, path)
        back = load(path)
        assert back.r == ds.r
        assert back.coincidence_tol == ds.coincidence_tol
        assert np.array_equal(ds.sigmas, back.sigmas)
        assert np.array_equal(ds.P, back.P)
        assert np.array_equal(ds.right_values, back.right_values)
        assert ds.y_grid == back.y_grid
        assert np.array_equal(ds.rhos, back.rhos)
        assert np.array_equal(ds.Q, back.Q)
        assert np.array_equal(ds.left_values, back.left_values)
        assert list(back.hermites.items()) == list(ds.hermites.items())

    def test_save_is_deterministic(self, model, tmp_path):
        ds = collect(model, [1.0], ["const"], [2.0], ["const"])
        save(ds, tmp_path / "a.json")
        save(ds, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 1, "rights": [')
        with pytest.raises(ParseError, match="line"):
            load(path)

    def test_missing_left_sample(self, model, tmp_path):
        ds = collect(model, [1.0, 2.0], ["const", "const"], [3.0, 4.0],
                     ["const", "const"])
        path = tmp_path / "ds.json"
        save(ds, path)
        obj = json.loads(path.read_text())
        del obj["lefts"][1]
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match="left sample 1 is missing"):
            load(path)

    def test_declared_order_mismatch(self, model, tmp_path):
        ds = collect(model, [1.0], ["const"], [2.0], ["const"])
        path = tmp_path / "ds.json"
        save(ds, path)
        obj = json.loads(path.read_text())
        obj["r"] = 3
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match="declared order"):
            load(path)

    def test_missing_hermite_for_coincident_pair(self, model, tmp_path):
        ds = collect(model, [1.0], ["const"], [1.0], ["const"])
        path = tmp_path / "ds.json"
        save(ds, path)
        obj = json.loads(path.read_text())
        obj["hermites"] = []
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match="no hermite"):
            load(path)

    def test_spurious_hermite_rejected(self, model):
        ds = collect(model, [1.0], ["const"], [2.0], ["const"])
        with pytest.raises(DatasetError, match="does not match any coincident pair"):
            replace(ds, hermites={(0, 0): 1.0})

    def test_different_quad_order_loads_but_mismatches_on_use(self, model, tmp_path):
        # a dataset from a coarser grid loads fine; its rows have the wrong
        # length for the current model's grids and fail at first contact
        coarse = FullModel(
            QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 12),
            QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 12),
            4,
        )
        ds = collect(coarse, [1.0], ["const"], [2.0], ["const"])
        path = tmp_path / "ds.json"
        save(ds, path)
        back = load(path)
        assert back.u_grid.order == 12
        p0 = back.P[0]
        with pytest.raises(ValueError):
            model.apply_tf(1.0, p0)
        with pytest.raises(ValueError):
            inner_product(p0, np.ones(model.con_grid.size), model.con_grid)
