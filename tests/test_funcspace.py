import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmor.funcspace import Patch, QuadratureGrid, inner_product, restrict_mode, row_norms


def monomial_integral(lo, hi, k):
    # closed-form oracle: int_lo^hi t^k dt
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


class TestPatch:
    def test_valid(self):
        p = Patch(0.1, 0.3, 0.6, 0.8)
        assert (p.x_lo, p.x_hi, p.y_lo, p.y_hi) == (0.1, 0.3, 0.6, 0.8)

    @pytest.mark.parametrize(
        "coords",
        [
            (0.3, 0.1, 0.6, 0.8),  # reversed x
            (0.1, 0.3, 0.8, 0.6),  # reversed y
            (-0.1, 0.3, 0.6, 0.8),  # outside square
            (0.1, 1.2, 0.6, 0.8),
            (0.2, 0.2, 0.6, 0.8),  # degenerate
        ],
    )
    def test_invalid(self, coords):
        with pytest.raises(ValueError):
            Patch(*coords)


class TestQuadratureGrid:
    def test_node_count_and_weight_sum(self):
        grid = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16)
        assert grid.size == 256
        assert grid.weights.shape == (256,)
        assert grid.nodes.shape == (256, 2)
        # weights integrate the constant 1 exactly: total = patch area
        assert np.sum(grid.weights) == pytest.approx(0.04, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 5, 16])
    def test_monomial_exactness(self, order):
        # tensor rule of given order is exact through degree 2*order-1 per axis
        patch = Patch(0.2, 0.7, 0.4, 0.9)
        grid = QuadratureGrid(patch, order)
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        for a in (0, 1, 2 * order - 1):
            for b in (0, 2 * order - 1):
                got = np.sum(grid.weights * x**a * y**b)
                want = monomial_integral(0.2, 0.7, a) * monomial_integral(0.4, 0.9, b)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-16)

    def test_equality_by_patch_and_order(self):
        a = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8)
        b = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 8)
        c = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 9)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 0)

    def test_nodes_inside_patch(self):
        grid = QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 12)
        assert np.all(grid.nodes >= 0.6) and np.all(grid.nodes <= 0.8)
        assert np.all(grid.weights > 0)


@pytest.fixture
def grid():
    return QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 16)


def ones(grid):
    return np.ones(grid.size, dtype=np.complex128)


def random_row(rng, grid, scale=1.0):
    return rng.standard_normal(grid.size) * scale


class TestNodeRows:
    def test_shape_check(self, grid):
        # a row is read on the grid it comes with; a wrong length cannot pair
        with pytest.raises(ValueError):
            inner_product(np.zeros(3), ones(grid), grid)

    def test_same_patch_different_order_rejected(self, grid):
        finer = QuadratureGrid(grid.patch, grid.order + 4)
        with pytest.raises(ValueError):
            inner_product(ones(grid), ones(finer), grid)

    def test_stacked_norms_equal_single_norms_bitwise(self, grid):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((4, grid.size)) + 1j * rng.standard_normal((4, grid.size))
        stacked = row_norms(rows, grid)
        assert stacked.shape == (4,)
        assert all(stacked[k] == row_norms(rows[k], grid) for k in range(4))


class TestInnerProduct:
    def test_constant_on_square_patch(self, grid):
        # <1, 1> over [0.1,0.3]^2 is the area
        one = ones(grid)
        assert inner_product(one, one, grid) == pytest.approx(0.04, rel=1e-14)
        assert row_norms(one, grid) == pytest.approx(0.2, rel=1e-14)

    def test_conjugate_symmetry_and_linearity_random(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            g = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            ip = inner_product(f, g, grid)
            assert ip == pytest.approx(np.conj(inner_product(g, f, grid)), rel=1e-12)
            # Cauchy-Schwarz with round-off slack
            assert abs(ip) <= row_norms(f, grid) * row_norms(g, grid) * (1 + 1e-12)

    @given(
        alpha=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_first_slot_linearity(self, alpha, seed):
        grid = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 4)
        rng = np.random.default_rng(seed)
        f = random_row(rng, grid, 1 + 1j)
        g = random_row(rng, grid, 1 - 2j)
        h = random_row(rng, grid)
        lhs = inner_product(alpha * f + g, h, grid)
        rhs = alpha * inner_product(f, h, grid) + inner_product(g, h, grid)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_bit_reproducible(self, grid):
        rng = np.random.default_rng(3)
        f = random_row(rng, grid, 1 + 0.5j)
        g = random_row(rng, grid)
        assert inner_product(f, g, grid) == inner_product(f.copy(), g.copy(), grid)


class TestModes:
    def test_orthonormal_on_unit_square(self):
        # modes are orthonormal over the full square; order 28 resolves all
        # pairwise products of modes up to (8, 8) to near machine precision
        grid = QuadratureGrid(Patch(0.0, 1.0, 0.0, 1.0), 28)
        pairs = [(1, 1), (2, 3), (8, 8), (5, 1)]
        for n, m in pairs:
            for k, l in pairs:
                got = inner_product(restrict_mode(n, m, grid), restrict_mode(k, l, grid), grid)
                want = 1.0 if (n, m) == (k, l) else 0.0
                assert got == pytest.approx(want, abs=1e-12)

    def test_mode_norm_near_one_at_model_order(self):
        # a full-square grid at the patch default order is only good to a few
        # digits for the highest modes; looser check documents the tolerance
        grid = QuadratureGrid(Patch(0.0, 1.0, 0.0, 1.0), 20)
        assert row_norms(restrict_mode(8, 8, grid), grid) == pytest.approx(1.0, abs=1e-5)
        assert row_norms(restrict_mode(1, 1, grid), grid) == pytest.approx(1.0, abs=1e-13)

    def test_mode_indices_validated(self, grid):
        with pytest.raises(ValueError):
            restrict_mode(0, 1, grid)
        with pytest.raises(ValueError):
            restrict_mode(1, -2, grid)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (12, 12), (7, 3)])
    def test_patch_coefficient_constant_closed_form(self, n, m):
        # oracle: int_a^b int_a^b 2 sin(n pi x) sin(m pi y) dx dy
        #       = 2 (cos(n pi a) - cos(n pi b)) (cos(m pi a) - cos(m pi b)) / (n m pi^2)
        a, b = 0.1, 0.3
        grid = QuadratureGrid(Patch(a, b, a, b), 28)
        p = ones(grid)
        want = (
            2.0
            * (np.cos(n * np.pi * a) - np.cos(n * np.pi * b))
            * (np.cos(m * np.pi * a) - np.cos(m * np.pi * b))
            / (n * m * np.pi**2)
        )
        got = inner_product(p, restrict_mode(n, m, grid), grid)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_coefficient_refines_with_order(self):
        # doubling the order moves the coefficient by less than 1e-12 once the
        # mode is resolved
        a, b = 0.1, 0.3
        grids = [QuadratureGrid(Patch(a, b, a, b), q) for q in (28, 56)]
        c28, c56 = (inner_product(ones(g), restrict_mode(9, 9, g), g) for g in grids)
        assert abs(c28 - c56) < 1e-12
