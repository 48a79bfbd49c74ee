import json

import numpy as np
import pytest

from opmor import h2
from opmor.errors import ConditioningError, ParseError, SemiSimplicityError, SingularSolveError
from opmor.funcspace import Patch, QuadratureGrid, inner_product, row_norms
from opmor.heat2d import FullModel
from opmor.jsonio import family_to_json
from opmor.loewner import assemble
from opmor.rom import ReducedModel, load, pole_residue, save, simulate
from opmor.samples import collect, directions

from oracles import RankOneModel

U_GRID = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8)
Y_GRID = QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 8)


def unit_const(grid):
    f = np.ones(grid.size, dtype=np.complex128)
    return f / row_norms(f, grid)


def random_row(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)


def rel_gap(got, want, grid):
    return row_norms(got - want, grid) / row_norms(want, grid)


def diag_rom(poles, b_rows, c_rows):
    """The diagonal model sum_i <., b_i> c_i / (s - poles[i]) with rows on
    U_GRID and Y_GRID."""
    r = len(poles)
    return ReducedModel(np.eye(r), np.diag(poles), b_rows, c_rows, U_GRID, Y_GRID)


@pytest.fixture(scope="module")
def toy():
    return RankOneModel(U_GRID, Y_GRID, unit_const(U_GRID), unit_const(Y_GRID), -1.0)


@pytest.fixture(scope="module")
def toy_rom(toy):
    return assemble(collect(toy, [1.0], [toy.p], [2.0], [toy.q]))


@pytest.fixture(scope="module")
def heat():
    return FullModel(
        QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 20),
        QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 20),
        6,
    )


@pytest.fixture(scope="module")
def heat_rom(heat):
    ds = collect(
        heat,
        [1.0, 3.0, 8.0],
        ["mode:1,1", "mode:1,2", "const"],
        [2.0, 5.0, 10.0],
        ["mode:1,1", "const", "mode:2,1"],
    )
    return assemble(ds)


class TestEvalTf:
    def test_r1_direct_formula(self):
        lam = -2.0 + 1.0j
        b = random_row(U_GRID, 1)
        c = random_row(Y_GRID, 2)
        rom = diag_rom([lam], [b], [c])
        p = random_row(U_GRID, 3)
        s = 1.0 + 0.5j
        got = rom.eval_tf(s, p)
        want = inner_product(p, b, U_GRID) / (s - lam) * c
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_singular_at_pole(self, toy_rom):
        with pytest.raises(SingularSolveError):
            toy_rom.eval_tf(-1.0, unit_const(U_GRID))

    def test_pairing_identity(self, heat_rom):
        rng = np.random.default_rng(9)
        for k in range(20):
            s = complex(rng.uniform(0.5, 6), rng.uniform(-4, 4))
            p = random_row(heat_rom.u_grid, 50 + k)
            q = random_row(heat_rom.y_grid, 80 + k)
            lhs = inner_product(heat_rom.eval_tf(s, p), q, heat_rom.y_grid)
            rhs = inner_product(p, heat_rom.eval_tf_adjoint(s, q), heat_rom.u_grid)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_derivative_finite_difference(self, heat_rom):
        p = random_row(heat_rom.u_grid, 4)
        s = 2.0 + 1.0j
        # Five-point stencil. Relative to |G'|, its truncation error is about
        # 4 (h/d)^4 and its roundoff about 1.5 eps d/h, with d the distance
        # from s to the nearest pole (19.5 here). The two balance at
        # h ~ d eps^(1/5) = 1.4e-2, leaving ~eps^(4/5) = 3e-13 times the error
        # growth of eval_tf (cond E = 2.2e5): far below the bound. A central
        # difference comes within 3x of the bound even at its best step.
        poles = np.linalg.eigvals(np.linalg.solve(heat_rom.E, heat_rom.A))
        h = np.min(np.abs(s - poles)) * np.finfo(float).eps ** 0.2
        f = heat_rom.eval_tf
        near, far = f(s + h, p) - f(s - h, p), f(s + 2 * h, p) - f(s - 2 * h, p)
        fd = (near * 8 - far) * (1 / (12 * h))
        got = heat_rom.eval_tf_derivative(s, p)
        assert rel_gap(fd, got, heat_rom.y_grid) < 1e-8

    def test_zero_direction(self, heat_rom):
        grid = heat_rom.y_grid
        out = heat_rom.eval_tf_adjoint(1.0, np.zeros(grid.size))
        assert np.all(out == 0)

    def test_realization_invariance(self, heat_rom):
        # (M E K, M A K, M B, C K) has the same transfer function for any
        # invertible M, K
        rng = np.random.default_rng(11)
        r = heat_rom.r
        M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        K = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        twisted = ReducedModel(
            M @ heat_rom.E @ K,
            M @ heat_rom.A @ K,
            np.conj(M) @ heat_rom.B,
            K.T @ heat_rom.C,
            heat_rom.u_grid,
            heat_rom.y_grid,
        )
        p = random_row(heat_rom.u_grid, 12)
        for k in range(10):
            s = complex(rng.uniform(0.5, 8), rng.uniform(-5, 5))
            a = heat_rom.eval_tf(s, p)
            b = twisted.eval_tf(s, p)
            assert rel_gap(b, a, heat_rom.y_grid) < 1e-10


def spy_linalg(monkeypatch):
    """Count np.linalg.svd calls from here on; solve, inv and lstsq raise."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the pencil's SVD factors must do the solve")

    monkeypatch.setattr(np.linalg, "svd", counted)
    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    return calls


class TestOneFactorization:
    @pytest.mark.parametrize("method", ["eval_tf", "eval_tf_adjoint", "eval_tf_derivative"])
    def test_one_svd_per_point_evaluation(self, heat_rom, method, monkeypatch):
        # the pencil factors of a point are kept with the model: the first
        # evaluation there, of kind `method`, makes one SVD, and a repeated
        # point of any kind makes none, with values bitwise equal to a fresh
        # model's
        assert pole_residue(heat_rom) is pole_residue(heat_rom)

        def fresh():
            return ReducedModel(heat_rom.E, heat_rom.A, heat_rom.B, heat_rom.C,
                                heat_rom.u_grid, heat_rom.y_grid)

        grids = {"eval_tf": heat_rom.u_grid, "eval_tf_adjoint": heat_rom.y_grid,
                 "eval_tf_derivative": heat_rom.u_grid}
        kinds = [method] + [m for m in grids if m != method]
        points = [0.5, 4.0 + 3.0j, 20.0]
        refs = {(m, k): getattr(fresh(), m)(s, random_row(grids[m], k))
                for k, s in enumerate(points) for m in kinds}
        rom = fresh()
        calls = spy_linalg(monkeypatch)
        for k, s in enumerate(points):
            for m in kinds:
                for _ in range(2):
                    got = getattr(rom, m)(s, random_row(grids[m], k))
                    assert calls == [(rom.r, rom.r)] * (k + 1)
                    assert np.array_equal(got, refs[m, k])

    def test_h2_quadrature_one_svd_per_node(self, heat, heat_rom, monkeypatch):
        # the stability check makes the one solve, against E for the
        # pencil's eigenvalues; every node's work goes through one SVD
        nodes, rule = [], h2.frequency_rule
        monkeypatch.setattr(h2, "frequency_rule", lambda n: nodes.append(n) or rule(n))
        solve, solves = np.linalg.solve, []

        def counted_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        calls = spy_linalg(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        assert h2.h2_error_quadrature(heat, heat_rom) > 0
        assert len(nodes) >= 2 and len(calls) == sum(nodes)
        assert solves == [(heat_rom.r, heat_rom.r)]

    def test_h2_quadrature_keeps_no_factors(self, heat, heat_rom):
        # the oracle factors its nodes itself; the model keeps only the
        # points its callers evaluate
        kept = dict(heat_rom._factors)
        assert h2.h2_error_quadrature(heat, heat_rom) > 0
        assert heat_rom._factors.keys() == kept.keys()


class TestPoleResidue:
    def test_already_diagonal(self):
        poles = [-1.0, -3.0, -7.0]
        bs = [random_row(U_GRID, 20 + k) for k in range(3)]
        cs = [random_row(Y_GRID, 30 + k) for k in range(3)]
        rom = diag_rom(poles, bs, cs)
        pr = pole_residue(rom)
        np.testing.assert_allclose(pr.poles, sorted(poles), rtol=1e-14)
        # sorted ascending by real part: order reversed vs input
        for k, idx in enumerate([2, 1, 0]):
            np.testing.assert_allclose(pr.input_factors[k], bs[idx], rtol=1e-12)
            np.testing.assert_allclose(pr.output_factors[k], cs[idx], rtol=1e-12)

    def test_real_pencil_gives_exact_conjugate_pairs(self):
        # a real similarity transform of blockdiag([[-3, 2], [-2, -3]], -1):
        # the pair is listed -2j first, and its poles and residue rows are
        # bitwise conjugate; the real pole's residue rows are real
        rng = np.random.default_rng(17)
        S = rng.standard_normal((3, 3))
        A = np.zeros((3, 3))
        A[:2, :2] = [[-3.0, 2.0], [-2.0, -3.0]]
        A[2, 2] = -1.0
        rom = ReducedModel(np.eye(3), S @ A @ np.linalg.inv(S),
                           rng.standard_normal((3, U_GRID.size)),
                           rng.standard_normal((3, Y_GRID.size)), U_GRID, Y_GRID)
        pr = pole_residue(rom)
        np.testing.assert_allclose(pr.poles, [-3.0 - 2.0j, -3.0 + 2.0j, -1.0], rtol=1e-13)
        assert pr.poles[1] == np.conj(pr.poles[0])
        for rows in (pr.input_factors, pr.output_factors):
            assert np.array_equal(rows[1], np.conj(rows[0]))
            assert not np.any(rows[2].imag)

    def test_toy_single_pole(self, toy, toy_rom):
        pr = pole_residue(toy_rom)
        assert pr.poles[0] == pytest.approx(-1.0, rel=1e-12)
        # residue pair recovers <., p> q
        f = random_row(U_GRID, 5)
        want = inner_product(f, toy.p, U_GRID) * toy.q
        got = inner_product(f, pr.input_factors[0], U_GRID) * pr.output_factors[0]
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_jordan_block_rejected(self):
        lam = -2.0
        rom = ReducedModel(
            np.eye(2),
            np.array([[lam, 1.0], [0.0, lam]]),
            [random_row(U_GRID, 1), random_row(U_GRID, 2)],
            [random_row(Y_GRID, 3), random_row(Y_GRID, 4)],
            U_GRID,
            Y_GRID,
        )
        with pytest.raises(SemiSimplicityError) as ei:
            pole_residue(rom)
        assert ei.value.poles is not None

    def test_reconstruction_identity(self, heat_rom):
        pr = pole_residue(heat_rom)
        assert pr.poles.size == heat_rom.r  # degree bound: exactly r finite poles
        rng = np.random.default_rng(6)
        p = random_row(heat_rom.u_grid, 7)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 6), rng.uniform(-4, 4))
            a = heat_rom.eval_tf(s, p)
            b = pr.apply_tf(s, p)
            assert rel_gap(b, a, heat_rom.y_grid) < 1e-9


class TestConditioning:
    def test_ill_conditioned_e_rejected(self):
        # the constructor is the one conditioning check: cond E = 1e13 is
        # finite but above rom.COND_LIMIT
        with pytest.raises(ConditioningError) as ei:
            ReducedModel(
                np.diag([1.0, 1e-13]),
                -np.eye(2),
                [random_row(U_GRID, 1), random_row(U_GRID, 2)],
                [random_row(Y_GRID, 3), random_row(Y_GRID, 4)],
                U_GRID,
                Y_GRID,
            )
        assert ei.value.cond_estimate == pytest.approx(1e13, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_singular_or_non_finite_e_rejected(self, bad):
        ports = ([random_row(U_GRID, 1)] * 2, [random_row(Y_GRID, 3)] * 2)
        with pytest.raises(ConditioningError) as ei:
            ReducedModel(np.diag([1.0, bad]), -np.eye(2), *ports, U_GRID, Y_GRID)
        assert ei.value.cond_estimate == np.inf

    def test_one_svd_of_e(self, heat_rom, monkeypatch):
        # cond(E) and ||E||_2 are read off one singular-value decomposition;
        # only ||A||_2 still goes through np.linalg.norm
        calls = spy_linalg(monkeypatch)
        norm = np.linalg.norm

        def norm_of_a(x, *args):
            assert not np.array_equal(x, heat_rom.E)
            return norm(x, *args)

        monkeypatch.setattr(np.linalg, "cond", None)
        monkeypatch.setattr(np.linalg, "norm", norm_of_a)
        rom = ReducedModel(heat_rom.E, heat_rom.A, heat_rom.B, heat_rom.C,
                           heat_rom.u_grid, heat_rom.y_grid)
        assert calls == [heat_rom.E.shape]
        assert rom.e_cond == heat_rom.e_cond


class TestStability:
    def test_stable(self, toy_rom):
        worst = np.max(pole_residue(toy_rom).poles.real)
        assert worst < 0
        assert -worst == pytest.approx(1.0, rel=1e-12)

    def test_unstable(self):
        rom = diag_rom([0.1, -1.0], [random_row(U_GRID, 1), random_row(U_GRID, 2)],
                       [random_row(Y_GRID, 3), random_row(Y_GRID, 4)])
        worst = np.max(pole_residue(rom).poles.real)
        assert worst >= 0
        assert -worst == pytest.approx(-0.1, rel=1e-12)

    def test_heat_loewner_rom_stable(self, heat_rom):
        assert np.max(pole_residue(heat_rom).poles.real) < 0


class TestSimulate:
    def test_zero_input(self, toy_rom):
        u = np.zeros((11, U_GRID.size))
        y = simulate(toy_rom, u, T=1.0, dt=0.1)
        assert y.shape == (11, Y_GRID.size)
        assert np.all(y == 0)

    def test_step_reaches_steady_state(self, toy, toy_rom):
        # pole at -1: transient decays like e^{-t}; at T = 16 it is ~1e-7
        # of the steady state, matching eval_tf(0, p0) to that level
        p0 = toy.p
        dt = 0.05
        T = 16.0
        n = int(round(T / dt))
        u = np.tile(p0, (n + 1, 1))
        y = simulate(toy_rom, u, T=T, dt=dt)
        want = toy_rom.eval_tf(0.0, p0)
        assert rel_gap(y[-1], want, Y_GRID) < 2e-7

    def test_exact_recovery_matches_full_simulation(self):
        # single-mode heat model is rank one, so the r=1 Loewner model is an
        # exact realization; both simulations must agree
        heat = FullModel(
            QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16),
            QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 16),
            1,
        )
        rom = assemble(collect(heat, [1.0], ["const"], [2.0], ["const"]))
        dt = 0.01
        T = 1.0
        n = int(round(T / dt))
        rng = np.random.default_rng(3)
        coef = rng.standard_normal(n + 1)
        u = np.tile(coef[:, None], (1, heat.con_grid.size))
        y_full = heat.simulate(u, T=T, dt=dt)
        y_rom = simulate(rom, u, T=T, dt=dt)
        scale = row_norms(y_full, heat.obs_grid).max()
        assert np.all(row_norms(y_full - y_rom, heat.obs_grid) < 1e-6 * scale)

    def test_unstable_warns(self):
        rom = diag_rom([0.5], [unit_const(U_GRID)], [unit_const(Y_GRID)])
        u = np.tile(unit_const(U_GRID), (3, 1))
        with pytest.warns(UserWarning, match="unstable"):
            simulate(rom, u, T=0.2, dt=0.1)


# Every port takes a node-value row on its grid; a row with another node
# count is caught by numpy's reshape or matmul, wherever it enters.
WRONG_LENGTH_CASES = [f"{kind}.{call}" for kind in ("full", "pole_residue", "reduced")
                      for call in ("tf", "tf_adjoint", "tf_derivative")]
WRONG_LENGTH_CASES += ["full.simulate", "reduced.simulate", "directions"]


@pytest.mark.parametrize("case", WRONG_LENGTH_CASES)
def test_row_of_wrong_length_rejected(heat, heat_rom, case):
    # both ports have order-20 grids here; the row comes from an order-21 grid
    finer = QuadratureGrid(heat.con_grid.patch, heat.con_grid.order + 1)
    row = np.ones(finer.size, dtype=np.complex128)
    kind, _, call = case.partition(".")
    model = {"full": heat, "pole_residue": pole_residue(heat_rom), "reduced": heat_rom}.get(kind)
    with pytest.raises(ValueError):
        if kind == "directions":
            directions([row], heat.con_grid, "right")
        elif case == "full.simulate":
            heat.simulate(np.tile(row, (3, 1)), T=0.02, dt=0.01)
        elif case == "reduced.simulate":
            simulate(heat_rom, np.tile(row, (3, 1)), T=0.02, dt=0.01)
        else:
            prefix = "eval_" if kind == "reduced" else "apply_"
            getattr(model, prefix + call)(1.0, row)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, heat_rom, tmp_path):
        path = tmp_path / "rom.json"
        save(heat_rom, path)
        back = load(path)
        assert back.r == heat_rom.r
        np.testing.assert_array_equal(back.E, heat_rom.E)
        np.testing.assert_array_equal(back.A, heat_rom.A)
        assert np.array_equal(back.B, heat_rom.B)
        assert back.u_grid == heat_rom.u_grid
        assert np.array_equal(back.C, heat_rom.C)
        assert back.provenance == heat_rom.provenance

    @pytest.mark.parametrize("real, sigmas, rhos", [
        (True, [1.0, 2.0 + 1.0j, 2.0 - 1.0j], [1.5, 3.0 + 1.0j, 3.0 - 1.0j]),
        (False, [1.0, 2.0 + 1.0j, 4.0], [1.5, 3.0 + 1.0j, 5.0]),
    ], ids=["real", "complex"])
    def test_data_round_trip_bit_exact(self, heat, tmp_path, real, sigmas, rhos):
        # conjugate-closed data assemble to a real realization, the rest to
        # a complex one; either way the data come back bit for bit
        rom = assemble(collect(heat, sigmas, ["mode:1,1", "mode:1,2", "mode:1,2"],
                               rhos, ["mode:1,1", "mode:2,1", "mode:2,1"]))
        assert rom.E.imag.any() != real
        path = tmp_path / "rom.json"
        save(rom, path)
        back = load(path)
        assert len(back.data) == 4
        for got, want in zip(back.data, rom.data):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert back.provenance == rom.provenance

    @pytest.mark.parametrize("r", [4.7, "4", True])
    def test_declared_order_must_be_an_integer(self, heat_rom, tmp_path, r):
        path = tmp_path / "rom.json"
        save(heat_rom, path)
        obj = json.loads(path.read_text())
        obj["r"] = r
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="r must be a positive integer"):
            load(path)

    @pytest.mark.parametrize("key, point", [("sigmas", [float("nan"), 0.0]),
                                            ("rhos", [1.0, float("inf")])])
    def test_non_finite_point_rejected(self, heat_rom, tmp_path, key, point):
        path = tmp_path / "rom.json"
        save(heat_rom, path)
        obj = json.loads(path.read_text())
        obj["provenance"][key][1] = point
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=rf"provenance.{key}\[1\] must be a finite point"):
            load(path)

    def test_directions_off_the_port_grids_rejected(self, heat_rom, tmp_path):
        # left directions on the input grid: one grid, but not the output port's
        path = tmp_path / "rom.json"
        save(heat_rom, path)
        obj = json.loads(path.read_text())
        obj["provenance"]["left_dirs"] = obj["provenance"]["right_dirs"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="do not live on the port grids"):
            load(path)

    def test_declared_order_checked(self, toy_rom, tmp_path):
        path = tmp_path / "rom.json"
        save(toy_rom, path)
        obj = json.loads(path.read_text())
        obj["r"] = 5
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="declared order"):
            load(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "rom.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)

    @pytest.mark.parametrize("family", ["b_rows", "c_cols"])
    def test_mixed_grids_rejected(self, heat_rom, tmp_path, family):
        path = tmp_path / "rom.json"
        save(heat_rom, path)
        obj = json.loads(path.read_text())
        grid = heat_rom.u_grid if family == "b_rows" else heat_rom.y_grid
        other = QuadratureGrid(grid.patch, grid.order + 1)
        obj[family][1] = family_to_json(np.ones((1, other.size)), other)[0]
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="one grid"):
            load(path)
