import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor.errors import GridMismatchError, PoleProximityError
from opmor.funcspace import (
    FunctionVector,
    Patch,
    QuadratureGrid,
    constant,
    inner_product,
    restrict_mode,
)
from opmor.heat2d import FullModel, default_quad_order, eigenvalue
from opmor.models import phi1, phi2

CON = Patch(0.1, 0.3, 0.1, 0.3)
OBS = Patch(0.6, 0.8, 0.6, 0.8)


def make_model(n_max, order=None):
    order = order or default_quad_order(n_max)
    return FullModel(QuadratureGrid(CON, order), QuadratureGrid(OBS, order), n_max)


def random_direction(grid, seed):
    rng = np.random.default_rng(seed)
    return FunctionVector(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


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
        out = model.apply_tf(1.0, FunctionVector(grid, np.zeros(grid.size)))
        assert np.all(out.values == 0)
        assert out.grid == model.obs_grid

    def test_single_mode_oracle(self):
        # independent oracle: assemble the one-term series by raw quadrature,
        # no model code involved
        model = make_model(1)
        p = random_direction(model.con_grid, 1)
        s = 2.0 + 0.7j
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        coef = np.sum(model.con_grid.weights * p.values * phi_con)
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        phi_obs = 2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        want = coef / (s + 2 * np.pi**2) * phi_obs
        got = model.apply_tf(s, p)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_real_data_real_output(self):
        model = make_model(6)
        p = FunctionVector(
            model.con_grid, np.random.default_rng(2).standard_normal(model.con_grid.size)
        )
        out = model.apply_tf(3.0, p)
        assert np.max(np.abs(out.values.imag)) < 1e-13 * np.max(np.abs(out.values.real))

    def test_resolvent_symmetry(self):
        model = make_model(5)
        p = random_direction(model.con_grid, 3)
        s = 1.5 + 2.0j
        a = model.apply_tf(np.conj(s), FunctionVector(p.grid, np.conj(p.values)))
        b = model.apply_tf(s, p)
        np.testing.assert_allclose(a.values, np.conj(b.values), rtol=1e-13)

    def test_pole_proximity_error_carries_mode(self):
        model = make_model(3)
        p = constant(model.con_grid)
        with pytest.raises(PoleProximityError) as ei:
            model.apply_tf(eigenvalue(2, 1), p)
        # (1,2) and (2,1) share the eigenvalue; either label is the offender
        assert ei.value.mode in {(1, 2), (2, 1)}
        with pytest.raises(PoleProximityError):
            model.apply_tf(eigenvalue(1, 1) + 1e-9, p)
        # just outside the default tolerance: allowed
        model.apply_tf(eigenvalue(1, 1) + 1e-7, p)

    def test_grid_mismatch(self):
        model = make_model(2)
        with pytest.raises(GridMismatchError):
            model.apply_tf(1.0, constant(model.obs_grid))

    def test_truncation_tail_bound(self):
        # for the constant direction the mode coefficients are bounded by
        # 8/(nm pi^2), so the transfer tail beyond n_max = k at Re(s) >= 0 is
        # below sum_{n or m > k} 8/(nm pi^2) * 1/(pi^2(n^2+m^2)) * 1
        # (output factors have unit L2(square) norm, so patch norm <= 1)
        s = 1.0 + 1.0j
        for k in (4, 8):
            small = make_model(k, order=default_quad_order(16))
            big = make_model(2 * k, order=default_quad_order(16))
            p = constant(small.con_grid)
            diff = (big.apply_tf(s, p) - small.apply_tf(s, p)).norm()
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
        coef = np.sum(model.obs_grid.weights * q.values * phi_obs)
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        want = np.conj(1.0 / (s + 2 * np.pi**2)) * coef * phi_con
        got = model.apply_tf_adjoint(s, q)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_pairing_identity(self):
        model = make_model(6)
        rng = np.random.default_rng(5)
        for k in range(20):
            s = complex(rng.uniform(0.5, 5), rng.uniform(-5, 5))
            p = random_direction(model.con_grid, 100 + k)
            q = random_direction(model.obs_grid, 200 + k)
            lhs = inner_product(model.apply_tf(s, p), q)
            rhs = inner_product(p, model.apply_tf_adjoint(s, q))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerivative:
    def test_single_mode_oracle(self):
        model = make_model(1)
        p = random_direction(model.con_grid, 6)
        s = 4.0 - 2.0j
        xc, yc = model.con_grid.nodes[:, 0], model.con_grid.nodes[:, 1]
        phi_con = 2 * np.sin(np.pi * xc) * np.sin(np.pi * yc)
        coef = np.sum(model.con_grid.weights * p.values * phi_con)
        xo, yo = model.obs_grid.nodes[:, 0], model.obs_grid.nodes[:, 1]
        phi_obs = 2 * np.sin(np.pi * xo) * np.sin(np.pi * yo)
        want = -coef / (s + 2 * np.pi**2) ** 2 * phi_obs
        got = model.apply_tf_derivative(s, p)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

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
        assert (got - fd).norm() < 1e-8 * got.norm()


class TestPhiHelpers:
    def test_against_reference_values(self):
        # reference: straightforward high-precision series at spread-out points
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for z in [1e-6, -1e-3, 0.5j, -2.0 + 1.0j, -50.0, 1e-9 + 1e-9j]:
            mz = mpmath.mpc(z)
            want1 = complex((mpmath.exp(mz) - 1) / mz)
            want2 = complex((mpmath.exp(mz) - 1 - mz) / mz**2)
            assert complex(phi1(z)) == pytest.approx(want1, rel=1e-13)
            assert complex(phi2(z)) == pytest.approx(want2, rel=1e-13)

    def test_at_zero(self):
        assert complex(phi1(0.0)) == pytest.approx(1.0)
        assert complex(phi2(0.0)) == pytest.approx(0.5)


class TestSimulate:
    def test_zero_input(self):
        model = make_model(3)
        n = 20
        u = [FunctionVector(model.con_grid, np.zeros(model.con_grid.size))] * (n + 1)
        y = model.simulate(u, T=0.2, dt=0.01)
        assert len(y) == n + 1
        assert all(np.all(v.values == 0) for v in y)

    def test_exponential_input_analytic_convolution(self):
        # single mode, u(t) = e^{-t} p0:
        # y(t) = <1_con p0, phi_11> (e^{lam t} - e^{-t})/(lam + 1) phi_11|obs
        model = make_model(1)
        p0 = constant(model.con_grid)
        dt = 5e-4
        T = 1.0
        n = int(round(T / dt))
        u = [np.exp(-k * dt) * p0 for k in range(n + 1)]
        y = model.simulate(u, T=T, dt=dt)
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
        np.testing.assert_allclose(y[-1].values, want, rtol=1e-6)

    def test_step_input_reaches_dc_gain(self):
        model = make_model(6)
        p0 = constant(model.con_grid)
        dt = 0.01
        T = 2.0
        n = int(round(T / dt))
        u = [p0 for _ in range(n + 1)]
        y = model.simulate(u, T=T, dt=dt)
        dc = model.apply_tf(0.0, p0)
        assert (y[-1] - dc).norm() < 1e-4

    def test_sinusoid_matches_frequency_response(self):
        # steady state of u(t) = sin(w t) p0 has nodewise amplitude
        # |G(iw)[p0]|; project the last full period onto sin/cos
        model = make_model(4)
        p0 = constant(model.con_grid)
        w = 2 * np.pi
        dt = 1.0 / 400
        T = 2.0
        n = int(round(T / dt))
        u = [np.sin(w * k * dt) * p0 for k in range(n + 1)]
        y = model.simulate(u, T=T, dt=dt)
        vals = np.array([v.values.real for v in y])
        t = np.arange(n + 1) * dt
        last = t >= 1.0
        tl = t[last]
        a = 2 * np.trapezoid(vals[last] * np.sin(w * tl)[:, None], tl, axis=0)
        b = 2 * np.trapezoid(vals[last] * np.cos(w * tl)[:, None], tl, axis=0)
        amp = np.hypot(a, b)
        want = np.abs(model.apply_tf(1j * w, p0).values)
        assert np.max(np.abs(amp - want)) < 1e-3 * np.max(want)

    def test_input_validation(self):
        model = make_model(2)
        u = [constant(model.con_grid)] * 3
        with pytest.raises(ValueError):
            model.simulate(u, T=0.02, dt=-0.01)
        with pytest.raises(ValueError):
            model.simulate([], T=0.02, dt=0.01)
        with pytest.raises(ValueError):
            model.simulate(u, T=1.0, dt=0.01)  # not enough samples
        with pytest.raises(GridMismatchError):
            model.simulate([constant(model.obs_grid)] * 3, T=0.02, dt=0.01)
