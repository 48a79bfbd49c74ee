import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor import irka
from opmor.errors import PoleProximityError
from opmor.funcspace import Patch, QuadratureGrid, inner_product, restrict_mode, row_norms
from opmor.heat2d import FullModel, default_quad_order, eigenvalue
from opmor.h2 import h2_error, h2_norm, hs_norm, optimality_residuals
from opmor.models import PoleFactorModel, phi12
from opmor.projection import build_bases, project_explicit
from opmor.rom import pole_residue

from oracles import full_model_h2_sq

CON = Patch(0.1, 0.3, 0.1, 0.3)
OBS = Patch(0.6, 0.8, 0.6, 0.8)


def make_model(n_max, order=None):
    order = order or default_quad_order(n_max)
    return FullModel(QuadratureGrid(CON, order), QuadratureGrid(OBS, order), n_max)


def random_direction(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)


def ones_row(grid):
    return np.ones(grid.size, dtype=np.complex128)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue(1, 1) == pytest.approx(-2 * np.pi**2)
        assert eigenvalue(1, 1) == pytest.approx(-19.7392088, abs=1e-6)
        assert eigenvalue(2, 3) == pytest.approx(-13 * np.pi**2)

    @given(n=st.integers(1, 50), m=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_sign(self, n, m):
        assert eigenvalue(n, m) == eigenvalue(m, n)
        assert eigenvalue(n, m) <= -2 * np.pi**2

    def test_domain(self):
        with pytest.raises(ValueError):
            eigenvalue(0, 1)
        with pytest.raises(ValueError):
            eigenvalue(np.array([1, 2]), np.array([1, 0]))

    def test_arrays_match_scalars(self):
        n, m = np.array([1, 2, 5]), np.array([3, 1, 5])
        assert eigenvalue(n, m).tolist() == [eigenvalue(1, 3), eigenvalue(2, 1), eigenvalue(5, 5)]

    def test_truncation_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            FullModel(QuadratureGrid(CON, 16), QuadratureGrid(OBS, 16), 0)


class TestModelStructure:
    def test_mode_order_lexicographic(self):
        model = make_model(3)
        assert [tuple(nm) for nm in model.modes[:4]] == [(1, 1), (1, 2), (1, 3), (2, 1)]
        assert model.poles.shape == (9,)
        assert np.all(np.real(model.poles) < 0)
        assert np.max(np.real(model.poles)) == pytest.approx(-2 * np.pi**2)

    @pytest.mark.parametrize("n_max, order", [(1, 16), (7, 18), (12, 28)])
    def test_tables_match_per_mode_construction_bitwise(self, n_max, order):
        # the Kronecker tables against one restrict_mode/eigenvalue call per mode
        obs = Patch(0.55, 0.8, 0.6, 0.85)
        model = FullModel(QuadratureGrid(CON, order), QuadratureGrid(obs, order + 1), n_max)
        modes = [(n, m) for n in range(1, n_max + 1) for m in range(1, n_max + 1)]
        assert model.modes.tolist() == [list(nm) for nm in modes]
        for got, grid in ((model.input_factors, model.con_grid),
                          (model.output_factors, model.obs_grid)):
            want = np.array([restrict_mode(n, m, grid) for n, m in modes], dtype=np.complex128)
            assert got.tobytes() == want.tobytes()
        want = np.array([eigenvalue(n, m) for n, m in modes], dtype=np.complex128)
        assert model.poles.tobytes() == want.tobytes()

    def test_hs_tail_budget_decays(self):
        # sum over n^2+m^2 > K of 1/(n^2+m^2)^2 is O(1/K); check the partial
        # sums actually shrink as documented
        def tail(k_cut, big=200):
            n = np.arange(1, big)[:, None]
            m = np.arange(1, big)[None, :]
            s = n**2 + m**2
            return np.sum(np.where(s > k_cut, 1.0 / s.astype(float) ** 2, 0.0))

        assert tail(50) < 0.04
        assert tail(200) < tail(50) / 3
        assert tail(800) < tail(200) / 3


class TestApplyTf:
    def test_zero_direction(self):
        model = make_model(4)
        grid = model.con_grid
        out = model.apply_tf(1.0, np.zeros(grid.size))
        assert np.all(out == 0)
        assert out.shape == (model.obs_grid.size,)

    def test_single_mode_oracle(self):
        # independent oracle: assemble the one-term series by raw quadrature,
        # no model code involved
        model = make_model(1)
        p = random_direction(model.con_grid, 1)
        s = 2.0 + 0.7j
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        coef = np.sum(model.con_grid.weights * p * phi_con)
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        phi_obs = 2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        want = coef / (s + 2 * np.pi**2) * phi_obs
        got = model.apply_tf(s, p)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_real_data_real_output(self):
        model = make_model(6)
        p = np.random.default_rng(2).standard_normal(model.con_grid.size)
        out = model.apply_tf(3.0, p)
        assert np.max(np.abs(out.imag)) < 1e-13 * np.max(np.abs(out.real))

    def test_resolvent_symmetry(self):
        model = make_model(5)
        p = random_direction(model.con_grid, 3)
        s = 1.5 + 2.0j
        a = model.apply_tf(np.conj(s), np.conj(p))
        b = model.apply_tf(s, p)
        np.testing.assert_allclose(a, np.conj(b), rtol=1e-13)

    def test_pole_proximity_error_carries_mode(self):
        model = make_model(3)
        p = ones_row(model.con_grid)
        with pytest.raises(PoleProximityError) as ei:
            model.apply_tf(eigenvalue(2, 1), p)
        # (1,2) and (2,1) share the eigenvalue; either label is the offender
        assert ei.value.mode in {(1, 2), (2, 1)}
        with pytest.raises(PoleProximityError):
            model.apply_tf(eigenvalue(1, 1) + 1e-9, p)
        # just outside the default tolerance: allowed
        model.apply_tf(eigenvalue(1, 1) + 1e-7, p)

    def test_point_just_right_of_the_rightmost_pole_is_checked(self):
        # inside 2 pole_tol of max Re lam the early exit must not fire
        model = make_model(3)
        p = ones_row(model.con_grid)
        with pytest.raises(PoleProximityError) as ei:
            model.apply_tf(eigenvalue(1, 1) + 0.5 * model.pole_tol, p)
        assert ei.value.mode == (1, 1)
        rom, _ = irka.run(make_model(6), irka.IrkaConfig(r=2))
        form = pole_residue(rom)
        pole = form.poles[np.argmax(form.poles.real)]
        with pytest.raises(PoleProximityError) as ei:
            form.apply_tf(pole + 0.5 * form.pole_tol, ones_row(form.con_grid))
        assert ei.value.pole == pole

    def test_truncation_tail_bound(self):
        # for the constant direction the mode coefficients are bounded by
        # 8/(nm pi^2), so the transfer tail beyond n_max = k at Re(s) >= 0 is
        # below sum_{n or m > k} 8/(nm pi^2) * 1/(pi^2(n^2+m^2)) * 1
        # (output factors have unit L2(square) norm, so patch norm <= 1)
        s = 1.0 + 1.0j
        for k in (4, 8):
            small = make_model(k, order=default_quad_order(16))
            big = make_model(2 * k, order=default_quad_order(16))
            p = ones_row(small.con_grid)
            diff = row_norms(big.apply_tf(s, p) - small.apply_tf(s, p), small.obs_grid)
            n = np.arange(1, 400)[:, None]
            m = np.arange(1, 400)[None, :]
            beyond = (n > k) | (m > k)
            budget = np.sum(
                np.where(
                    beyond,
                    8.0 / (n * m * np.pi**2) / (np.pi**2 * (n**2 + m**2)),
                    0.0,
                )
            )
            assert diff < budget


class TestAdjoint:
    def test_single_mode_oracle(self):
        model = make_model(1)
        q = random_direction(model.obs_grid, 4)
        s = 1.0 + 3.0j
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        phi_obs = 2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        coef = np.sum(model.obs_grid.weights * q * phi_obs)
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        want = np.conj(1.0 / (s + 2 * np.pi**2)) * coef * phi_con
        got = model.apply_tf_adjoint(s, q)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_pairing_identity(self):
        model = make_model(6)
        rng = np.random.default_rng(5)
        for k in range(20):
            s = complex(rng.uniform(0.5, 5), rng.uniform(-5, 5))
            p = random_direction(model.con_grid, 100 + k)
            q = random_direction(model.obs_grid, 200 + k)
            lhs = inner_product(model.apply_tf(s, p), q, model.obs_grid)
            rhs = inner_product(p, model.apply_tf_adjoint(s, q), model.con_grid)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerivative:
    def test_single_mode_oracle(self):
        model = make_model(1)
        p = random_direction(model.con_grid, 6)
        s = 4.0 - 2.0j
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        coef = np.sum(model.con_grid.weights * p * phi_con)
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        phi_obs = 2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        want = -coef / (s + 2 * np.pi**2) ** 2 * phi_obs
        got = model.apply_tf_derivative(s, p)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_finite_difference_oracle(self):
        model = make_model(8)
        p = random_direction(model.con_grid, 7)
        s = 2.0 + 1.0j
        # Five-point stencil. Relative to |G'|, its truncation error is about
        # 4 (h/d)^4 and its roundoff about 1.5 eps d/h, with d the distance
        # from s to the nearest pole (21.8 here, at -2 pi^2). The two balance
        # at h ~ d eps^(1/5) = 1.6e-2, leaving ~eps^(4/5) = 3e-13.
        h = np.min(np.abs(s - model.poles)) * np.finfo(float).eps ** 0.2
        f = model.apply_tf
        near, far = f(s + h, p) - f(s - h, p), f(s + 2 * h, p) - f(s - 2 * h, p)
        fd = (near * 8 - far) * (1 / (12 * h))
        got = model.apply_tf_derivative(s, p)
        assert row_norms(got - fd, model.obs_grid) < 1e-8 * row_norms(got, model.obs_grid)


class TestPhiHelpers:
    def test_against_reference_values(self):
        # reference: straightforward high-precision series at spread-out points
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        zs = [1e-6, -1e-3, 0.5j, -2.0 + 1.0j, -50.0, 1e-9 + 1e-9j]
        # one call on the mixed array: both branches of the |z| < 1e-2 mask
        for z, got1, got2 in zip(zs, *phi12(zs)):
            mz = mpmath.mpc(z)
            want1 = complex((mpmath.exp(mz) - 1) / mz)
            want2 = complex((mpmath.exp(mz) - 1 - mz) / mz**2)
            assert complex(got1) == pytest.approx(want1, rel=1e-13)
            assert complex(got2) == pytest.approx(want2, rel=1e-13)

    def test_at_zero(self):
        got1, got2 = phi12(0.0)
        assert complex(got1) == pytest.approx(1.0)
        assert complex(got2) == pytest.approx(0.5)


class TestSimulate:
    def test_zero_input(self):
        model = make_model(3)
        n = 20
        u = np.zeros((n + 1, model.con_grid.size))
        y = model.simulate(u, dt=0.01)
        assert y.shape == (n + 1, model.obs_grid.size)
        assert np.all(y == 0)

    def test_exponential_input_analytic_convolution(self):
        # single mode, u(t) = e^{-t} p0:
        # y(t) = <1_con p0, phi_11> (e^{lam t} - e^{-t})/(lam + 1) phi_11|obs
        model = make_model(1)
        p0 = ones_row(model.con_grid)
        dt = 5e-4
        T = 1.0
        n = int(round(T / dt))
        u = np.exp(-np.arange(n + 1) * dt)[:, None] * p0
        y = model.simulate(u, dt=dt)
        lam = eigenvalue(1, 1)
        coef = np.sum(
            model.con_grid.weights
            * 2
            * np.sin(np.pi * model.con_grid.nodes[:, 0])
            * np.sin(np.pi * model.con_grid.nodes[:, 1])
        )
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        want = coef * (np.exp(lam * T) - np.exp(-T)) / (lam + 1) * (
            2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        )
        np.testing.assert_allclose(y[-1], want, rtol=1e-6)

    def test_step_input_reaches_dc_gain(self):
        model = make_model(6)
        p0 = ones_row(model.con_grid)
        dt = 0.01
        T = 2.0
        n = int(round(T / dt))
        u = np.tile(p0, (n + 1, 1))
        y = model.simulate(u, dt=dt)
        dc = model.apply_tf(0.0, p0)
        assert row_norms(y[-1] - dc, model.obs_grid) < 1e-4

    def test_sinusoid_matches_frequency_response(self):
        # steady state of u(t) = sin(w t) p0 has nodewise amplitude
        # |G(iw)[p0]|; project the last full period onto sin/cos
        model = make_model(4)
        p0 = ones_row(model.con_grid)
        w = 2 * np.pi
        dt = 1.0 / 400
        T = 2.0
        n = int(round(T / dt))
        u = np.sin(w * np.arange(n + 1) * dt)[:, None] * p0
        y = model.simulate(u, dt=dt)
        vals = y.real
        t = np.arange(n + 1) * dt
        last = t >= 1.0
        tl = t[last]
        a = 2 * np.trapezoid(vals[last] * np.sin(w * tl)[:, None], tl, axis=0)
        b = 2 * np.trapezoid(vals[last] * np.cos(w * tl)[:, None], tl, axis=0)
        amp = np.hypot(a, b)
        want = np.abs(model.apply_tf(1j * w, p0))
        assert np.max(np.abs(amp - want)) < 1e-3 * np.max(want)

    def test_input_validation(self):
        model = make_model(2)
        u = np.tile(ones_row(model.con_grid), (3, 1))
        with pytest.raises(ValueError, match="time step must be positive"):
            model.simulate(u, dt=-0.01)
        for short in ([], u[:1]):
            with pytest.raises(ValueError, match="need at least two input samples"):
                model.simulate(short, dt=0.01)
        finer = QuadratureGrid(model.con_grid.patch, model.con_grid.order + 1)
        with pytest.raises(ValueError):
            model.simulate(np.tile(ones_row(finer), (3, 1)), dt=0.01)

    def test_prefix_is_the_shorter_run(self):
        # the march reads each input row once, in order: simulating the first
        # n rows gives the first n output rows, bit for bit
        model = make_model(12)
        u = random_rows(model.con_grid, 41, 9)
        y = model.simulate(u, dt=0.02)
        for n in (2, 7, 40):
            assert np.array_equal(model.simulate(u[:n], dt=0.02), y[:n])


# The separable path sums the same products of O(1) factors as the dense
# tables, in another order. A pairing sums q^2 node terms (q = 64 nodes per
# axis at n_modes 30, so 4096) and an expansion up to 900 mode terms, so at
# most 900 q^2 products feed one output value. Random-walk round-off puts
# the gap near u (sqrt(q^2) + sqrt(900)) ~ 1e-14 relative to the output for
# random directions, whose sums cancel little; the cases below measure
# <= 2.3e-14. 1e-13 keeps a 4x margin, while a wrong weight, a swapped axis
# or a transposed table moves the results at O(1).
SEPARABLE_RTOL = 1e-13


def rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.fixture(scope="module", params=[12, 30])
def separable_pair(request):
    """A FullModel on patches of unequal size and order, and a plain
    PoleFactorModel over the same dense tables: the dense oracle."""
    n_max = request.param
    order = default_quad_order(n_max)
    model = FullModel(QuadratureGrid(CON, order),
                      QuadratureGrid(Patch(0.45, 0.9, 0.6, 0.75), order + 3), n_max)
    dense = PoleFactorModel(model.con_grid, model.obs_grid, model.poles,
                            model.input_factors, model.output_factors)
    return model, dense


EPS = np.finfo(float).eps
NORM_OMEGAS = [0.0, 1.0, 37.0, 1e3, 1.4e4, 1e6]


def abs_axis_grams(model):
    """Per axis, the product of the two ports' 1-D Grams of |Sx| (or |Sy|):
    their Kronecker product bounds every |GU[k,l] GY[k,l]| and the node sums
    that form it."""
    return [(np.abs(model._con_pairing[a]) @ np.abs(model._con_expansion[a]))
            * (np.abs(model._obs_pairing[a]) @ np.abs(model._obs_expansion[a])) for a in (0, 1)]


def series_terms(hx, hy, lam, s):
    """Every term of the hs(s)^2 series, or of the ||G||^2 series for s None,
    over axis Grams hx, hy and poles lam[n, m], as an (n, m, n', m') array in
    the precision of its inputs."""
    gram = hx[:, None, :, None] * hy[None, :, None, :]
    if s is None:
        return gram / -(lam[:, :, None, None] + lam[None, None])
    a = 1 / (s - lam)
    return a[:, :, None, None] * gram * np.conj(a)[None, None]


def random_rows(grid, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((r, grid.size)) + 1j * rng.standard_normal((r, grid.size))


class TestSeparablePath:
    POINTS = [3.0, 2.5 + 40j, -1.0 - 7j]

    def test_maps_match_dense_tables(self, separable_pair):
        model, dense = separable_pair
        P, Q = random_rows(model.con_grid, 3, 1), random_rows(model.obs_grid, 3, 2)
        rng = np.random.default_rng(3)
        K = model.poles.size
        coef = rng.standard_normal((3, K)) + 1j * rng.standard_normal((3, K))
        for name, rows in (("pair_con", P), ("pair_obs", Q),
                           ("expand_con", coef), ("expand_obs", coef)):
            want = getattr(dense, name)(rows)
            stacked = getattr(model, name)(rows)
            assert stacked.shape == want.shape
            assert rel_gap(stacked, want) < SEPARABLE_RTOL, name
            single = getattr(model, name)(rows[1])
            assert single.shape == want[1].shape
            assert rel_gap(single, want[1]) < SEPARABLE_RTOL, name

    def test_evaluations_match_dense_tables(self, separable_pair):
        model, dense = separable_pair
        ps, qs = random_rows(model.con_grid, 3, 4), random_rows(model.obs_grid, 3, 5)
        for s, p, q in zip(self.POINTS, ps, qs):
            for got, want in ((model.apply_tf(s, p), dense.apply_tf(s, p)),
                              (model.apply_tf_adjoint(s, q), dense.apply_tf_adjoint(s, q)),
                              (model.apply_tf_derivative(s, p),
                               dense.apply_tf_derivative(s, p))):
                assert got.shape == want.shape
                assert rel_gap(got, want) < SEPARABLE_RTOL

    def test_adjoint_identity(self, separable_pair):
        model, _ = separable_pair
        p = random_rows(model.con_grid, 1, 6)[0]
        q = random_rows(model.obs_grid, 1, 7)[0]
        for s in self.POINTS:
            lhs = inner_product(model.apply_tf(s, p), q, model.obs_grid)
            rhs = inner_product(p, model.apply_tf_adjoint(s, q), model.con_grid)
            assert abs(lhs - rhs) < SEPARABLE_RTOL * abs(lhs)

    def test_simulate_matches_dense_tables(self, separable_pair):
        model, dense = separable_pair
        u = random_rows(model.con_grid, 6, 8)
        got, want = model.simulate(u, dt=0.01), dense.simulate(u, dt=0.01)
        assert got.shape == want.shape
        scale = np.linalg.norm(want, axis=1).max()
        assert np.linalg.norm(got - want, axis=1).max() <= SEPARABLE_RTOL * scale

    def test_norms_match_dense_contraction(self, separable_pair):
        # a floating-point sum of n terms is within n eps times the sum of their
        # magnitudes (Higham, Accuracy and Stability, sec. 4.2). The dense side
        # sums K^2 products of node sums, the separable side fewer; |Sx|, |Sy|
        # Grams bound the magnitudes. The dense side carries the gap: 8.1e-12
        # relative at n_max 30, omega 1e3, where the terms cancel by 2.1e6.
        model, dense = separable_pair
        n_terms = model.poles.size ** 2 + model.con_grid.size + model.obs_grid.size
        hx, hy = abs_axis_grams(model)
        lam = model.poles.real.reshape(model.n_max, model.n_max)
        for s in [1j * w for w in NORM_OMEGAS] + [None]:
            got = model.h2_sq if s is None else model.hs_sq(s)
            want = dense.h2_sq if s is None else dense.hs_sq(s)
            magnitude = np.sum(np.abs(series_terms(hx, hy, lam, s)))
            assert abs(got - want) <= 2 * n_terms * EPS * magnitude, s

    @pytest.mark.parametrize("n_max", [1, 2, 12, 30])
    def test_h2_sq_workspace_is_the_series_bitwise(self, n_max):
        model = make_model(n_max)
        assert model.h2_sq.hex() == full_model_h2_sq(model).hex()

    def test_norms_match_extended_precision(self, separable_pair):
        # the series again, in long double over the same 1-D Grams, so only the
        # contraction's rounding differs: N^2 + 2N terms deep plus a few
        # roundings per term. Measured: within 9.3e-15 relative at every point.
        model, _ = separable_pair
        n = model.n_max
        n_terms = n * n + 2 * n + 4
        hx, hy = (h.astype(np.longdouble) for h in (model._hx, model._hy))
        lam = model.poles.real.astype(np.longdouble).reshape(n, n)
        for s in [1j * w for w in NORM_OMEGAS] + [None]:
            got = model.h2_sq if s is None else model.hs_sq(s)
            terms = series_terms(hx, hy, lam, None if s is None else np.clongdouble(s))
            want = np.sum(terms).real
            assert abs(got - want) <= n_terms * EPS * np.sum(np.abs(terms)), s


DENSE_TABLES = ("input_factors", "output_factors", "_in_pair", "_out_pair")


class TestDenseTablesOnDemand:
    """The K x nodes mode tables (236 MB at n_max 30) are built only when read."""

    def test_workflow_builds_no_dense_table(self):
        model = make_model(30)
        assert h2_norm(model) > 0
        rom, report = irka.run(model, irka.IrkaConfig(r=2, max_iter=3))
        assert report.iterations == 3
        assert h2_error(model, rom) >= 0
        assert optimality_residuals(model, rom).max_residual >= 0
        u = np.tile(ones_row(model.con_grid), (3, 1))
        assert len(model.simulate(u, dt=0.01)) == 3
        project_explicit(model, *build_bases(model, [1.0, 3.0], ["mode:1,1", "mode:2,1"],
                                             [2.0, 4.0], ["mode:1,2", "mode:2,2"]))
        assert not set(DENSE_TABLES) & set(vars(model))

    def test_workflow_builds_no_k_squared_array(self):
        # the norms contract N x N axis Grams: at n_max 30 a K x K real array
        # alone is 6.2 MiB, and the traced peak stays below it
        model = make_model(30)
        tracemalloc.start()
        try:
            assert h2_norm(model) > 0
            rom, report = irka.run(model, irka.IrkaConfig(r=2, max_iter=3))
            assert report.iterations == 3
            assert h2_error(model, rom) >= 0
            assert optimality_residuals(model, rom).max_residual >= 0
            assert hs_norm(model, 1j) > 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.poles.size ** 2 * 8

    def test_tables_are_built_once_read_only(self):
        model = make_model(4)
        for name in DENSE_TABLES:
            table = getattr(model, name)
            assert getattr(model, name) is table
            assert not table.flags.writeable
        assert model.input_factors.shape == (16, model.con_grid.size)
        assert model.output_factors.shape == (16, model.obs_grid.size)

    @pytest.mark.parametrize("n_max", [12, 30])
    def test_default_init_matches_table_rows_bitwise(self, n_max):
        # unit coefficient rows, expanded, are the table rows bit for bit; the
        # tables are built only after every init has run
        order = default_quad_order(n_max)
        model = FullModel(QuadratureGrid(CON, order),
                          QuadratureGrid(Patch(0.45, 0.9, 0.6, 0.75), order + 3), n_max)
        inits = {r: irka._default_init(model, r) for r in (1, 2, 6)}
        assert not set(DENSE_TABLES) & set(vars(model))
        for r, (_, rights, lefts) in inits.items():
            want_rights = irka._fix_phase(model.input_factors[:r], model.con_grid)
            want_lefts = irka._fix_phase(model.output_factors[:r], model.obs_grid)
            assert rights.dtype == lefts.dtype == np.complex128
            assert rights.tobytes() == want_rights.tobytes()
            assert lefts.tobytes() == want_lefts.tobytes()
