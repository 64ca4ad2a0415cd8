import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prophet_sharp import (
    DiscreteDistribution,
    Generator,
    KernelKind,
    err_bound_diff,
    err_bound_ratio,
    kernel_a,
    kernel_r,
    lipschitz_a,
    lipschitz_r,
    pareto_band,
    payoff_matrix,
    prophet_weights,
    reward_weights,
    stop_weight,
    support_cutoff,
)
from prophet_sharp.dist import grid_distribution, lfd_from_mu_ratio
from prophet_sharp.kernel import check_grid, stop_weight_sums
from prophet_sharp.reward import (
    ThresholdRule,
    growth_bound_check,
    optimal_rule,
    ratio_floor,
    reward_v1,
)
from prophet_sharp.sim import SimConfig


def kernel_r_minform(x, y, n):
    """Second, independent implementation: the min-form display."""
    if x == y == 1.0:
        return 1.0
    if y == 1.0:
        return (1 - x**n) / (1 - x) / n
    return (1 - x ** (n - 1)) / (1 - y**n) * min(1.0, (1 - y) / (1 - x)) + x ** (n - 1) * (
        1 - y
    ) / (1 - y**n) if x < 1.0 else (1 - y) / (1 - y**n)


def kernel_a_minform(x, y, n):
    if x == 1.0:
        return 1 - y**n - (1 - y)  # min term vanishes with 1-x^{n-1}=0... x=1: below
    return 1 - y**n - (1 - x ** (n - 1)) * min(1.0, (1 - y) / (1 - x)) - x ** (n - 1) * (1 - y)


class TestKernelR:
    def test_diagonal_is_one(self):
        for x in (0.0, 0.37, 0.5, 1.0):
            assert kernel_r(x, x, 5) == 1.0

    def test_hand_value(self):
        # (1 - 0.5*0.25)/(1 - 0.0625) = 14/15
        assert kernel_r(0.5, 0.25, 2) == pytest.approx(14 / 15, abs=1e-15)

    def test_zero_column(self):
        for x in (0.1, 0.5, 0.99):
            assert kernel_r(x, 0.0, 7) == 1.0

    def test_min_form_agrees(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 10):
            x, y = rng.random((2000, 2)).T
            expected = [kernel_r_minform(a, b, n) for a, b in zip(x, y)]
            np.testing.assert_allclose(kernel_r(x, y, n), expected, rtol=0.0, atol=1e-14)

    def test_positive_on_grid(self):
        for n in range(2, 13):
            g = np.linspace(0, 1, 200)
            vals = kernel_r(g[:, None], g[None, :], n)
            assert vals.min() > 0.0

    def test_discontinuity_at_corner(self):
        # along the diagonal the limit is 1; along x=1, y->1 it is 1/n
        n = 6
        assert kernel_r(1.0, 1.0, n) == 1.0
        assert kernel_r(1.0, 1 - 1e-9, n) == pytest.approx(1 / n, rel=1e-6)

    def test_branch_limits_meet_diagonal(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 10):
            y = rng.uniform(0.05, 0.9, 200)
            np.testing.assert_allclose(kernel_r(y + 1e-9, y, n), 1.0, rtol=0.0, atol=1e-6)
            np.testing.assert_allclose(kernel_r(y - 1e-9, y, n), 1.0, rtol=0.0, atol=1e-6)


class TestKernelA:
    def test_diagonal_is_zero(self):
        for x in (0.0, 0.42, 1.0):
            assert kernel_a(x, x, 4) == 0.0

    def test_hand_value(self):
        assert kernel_a(0.5, 0.25, 2) == pytest.approx(0.0625, abs=1e-16)

    def test_zero_column(self):
        for x in (0.2, 0.9):
            assert kernel_a(x, 0.0, 5) == 0.0

    def test_nonnegative_on_grid(self):
        for n in range(2, 13):
            g = np.linspace(0, 1, 200)
            vals = kernel_a(g[:, None], g[None, :], n)
            assert vals.min() >= 0.0

    def test_min_form_agrees(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 10):
            x, y = rng.random((2000, 2)).T
            expected = [kernel_a_minform(a, b, n) for a, b in zip(x, y)]
            np.testing.assert_allclose(kernel_a(x, y, n), expected, rtol=0.0, atol=1e-14)

    def test_branch_limits_meet_diagonal(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 10):
            y = rng.uniform(0.05, 0.95, 200)
            np.testing.assert_allclose(kernel_a(y + 1e-9, y, n), 0.0, rtol=0.0, atol=1e-6)


class TestArrays:
    @pytest.mark.parametrize("kernel", [kernel_r, kernel_a])
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_arrays_match_scalar_calls(self, kernel, n):
        # random points plus 0, 1/2 and 1: the diagonal, the row x = 1, the
        # column y = 1 and the corner (1, 1) are all in the grid
        pts = np.concatenate((np.random.default_rng(30 + n).random(20), [0.0, 0.5, 1.0]))
        scalar = np.array([[kernel(x, y, n) for y in pts] for x in pts])
        assert type(kernel(0.5, 0.25, n)) is float
        assert kernel(pts[:, None], pts[None, :], n).tobytes() == scalar.tobytes()

    def test_edges(self):
        # exact diagonal, the y = 1 limit g(x)/n, and the row x = 1
        n, x = 5, np.array([0.0, 0.3, 0.9, 1.0])
        np.testing.assert_array_equal(kernel_r(x, x, n), 1.0)
        np.testing.assert_array_equal(kernel_a(x, x, n), 0.0)
        np.testing.assert_array_equal(kernel_a(x, 1.0, n), 0.0)
        z = x[:3]
        np.testing.assert_allclose(kernel_r(z, 1.0, n), (1 - z**n) / (1 - z) / n, rtol=1e-15)
        np.testing.assert_allclose(kernel_r(1.0, z, n), (1 - z) / (1 - z**n), rtol=1e-15)
        np.testing.assert_allclose(kernel_a(1.0, z, n), z * (1 - z ** (n - 1)), rtol=1e-15, atol=1e-17)

    def test_rejects_points_outside_square(self):
        for x, y in ((np.array([0.5, 1.5]), 0.5), (0.5, np.array([-0.1, 0.5])), (np.nan, 0.5)):
            with pytest.raises(ValueError):
                kernel_r(x, y, 3)
            with pytest.raises(ValueError):
                kernel_a(x, y, 3)
            with pytest.raises(ValueError):
                stop_weight(x, y, 3)


@pytest.mark.parametrize("call", [
    lambda: err_bound_ratio(4.5, 100),
    lambda: err_bound_diff(2.5, 100),
    lambda: support_cutoff(4.5),
    lambda: lipschitz_a(2.5),
    lambda: lipschitz_r(2.5, 0.5),
    lambda: kernel_r(0.5, 0.25, 2.5),
    lambda: kernel_a(0.5, 0.25, 3.0),
    lambda: check_grid(2.5, 40),
    lambda: ratio_floor(1.5),
    lambda: reward_v1(DiscreteDistribution.point_mass(1.0), 2.5, ThresholdRule(0.0, 0.0)),
    lambda: growth_bound_check(DiscreteDistribution.point_mass(1.0), 1.5, 1),
    lambda: DiscreteDistribution.point_mass(1.0).expected_max(2.5),
    lambda: lfd_from_mu_ratio(np.full(3, 0.25), 2.5, 5),
    lambda: ratio_floor(True),
    lambda: stop_weight(0.5, 0.2, 2.5),
    lambda: prophet_weights(2.5, 5),
    lambda: reward_weights(2.5, 4),
    lambda: Generator(2.5, 5).matvec(np.ones(4)),
    lambda: Generator(2.5, 5).rmatvec(np.ones(4)),
], ids=["err_bound_ratio", "err_bound_diff", "support_cutoff", "lipschitz_a", "lipschitz_r",
        "kernel_r", "kernel_a", "check_grid", "ratio_floor", "reward_v1", "growth_bound_check",
        "expected_max", "lfd_from_mu_ratio", "bool", "stop_weight", "prophet_weights",
        "reward_weights", "reward_matvec", "reward_rmatvec"])
def test_rejects_non_integer_horizon(call):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        call()


COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])


@pytest.mark.parametrize("call", [
    lambda: err_bound_diff(10, 2.5),
    lambda: err_bound_ratio(10, True),
    lambda: growth_bound_check(COIN, 3, True),
    lambda: growth_bound_check(COIN, 3, 1.0),
    lambda: check_grid(10, True),
    lambda: check_grid(10, 40.0),
    lambda: grid_distribution(np.cumsum(np.ones(3)), 4.0),
    lambda: grid_distribution(np.cumsum(np.ones(0)), np.bool_(True)),
    lambda: optimal_rule(COIN, 2, mode="grid-exact", grid_size=True),
    lambda: SimConfig(trials=10.0, seed=1, n=4),
    lambda: SimConfig(trials=10, seed=1, n=np.int64(1)),
    lambda: pareto_band(40.0, 20.0, 5.0),
    lambda: reward_weights(3, 2.5),
    lambda: reward_weights(3, True),
    lambda: prophet_weights(3, -4),
    lambda: Generator(3, 2.5),
], ids=["err_bound_diff", "err_bound_ratio", "growth_bound_check_bool",
        "growth_bound_check_float", "check_grid_bool", "check_grid_float", "quantile_increments",
        "quantile_increments_numpy_bool", "optimal_rule", "sim_trials", "sim_horizon",
        "pareto_band", "reward_weights_float", "reward_weights_bool", "prophet_weights_negative",
        "Generator_float"])
def test_rejects_non_integer_size(call):
    # one predicate (kernel.check_integer): int or np.integer, never bool, >= a minimum
    with pytest.raises(ValueError, match="integer"):
        call()


class TestLipschitz:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_kernel_a_lipschitz_both_arguments(self, n):
        rng = np.random.default_rng(n)
        L = lipschitz_a(n)
        x, xp, y = rng.random((3, 100000))
        va, vb = kernel_a(x, y, n), kernel_a(xp, y, n)
        assert np.all(np.abs(va - vb) <= L * np.abs(x - xp) + 1e-12)
        vc, vd = kernel_a(y, x, n), kernel_a(y, xp, n)
        assert np.all(np.abs(vc - vd) <= L * np.abs(x - xp) + 1e-12)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_kernel_r_lipschitz_restricted(self, n):
        rng = np.random.default_rng(100 + n)
        eps = 0.15
        L = lipschitz_r(n, eps)
        x, xp = rng.uniform(0, 1 - eps, (2, 100000))
        y = rng.random(100000)
        va, vb = kernel_r(x, y, n), kernel_r(xp, y, n)
        assert np.all(np.abs(va - vb) <= L * np.abs(x - xp) + 1e-12)
        # and in y for x restricted
        yp = rng.random(100000)
        vc, vd = kernel_r(x, y, n), kernel_r(x, yp, n)
        assert np.all(np.abs(vc - vd) <= L * np.abs(y - yp) + 1e-12)

    def test_lipschitz_constants(self):
        assert lipschitz_a(2) == 1.0
        assert lipschitz_a(10) == 9.0
        assert lipschitz_r(2, 0.5) == pytest.approx(4 / 3, abs=1e-15)
        assert lipschitz_r(5, 1.0) == 4.0
        assert lipschitz_r(10, support_cutoff(10) / 10) == pytest.approx(30.7514, abs=1e-3)
        with pytest.raises(ValueError):
            lipschitz_r(5, 0.0)


class TestMatrices:
    @pytest.mark.parametrize("kind", [KernelKind.RATIO, KernelKind.DIFFERENCE])
    def test_entries_match_scalar_kernels(self, kind):
        n, N = 5, 40
        M = payoff_matrix(kind, n, N)
        assert type(M) is np.ndarray and M.dtype == np.float64 and M.flags.c_contiguous
        assert M.shape == (N - 1, N - 1)
        fn = kernel_r if kind is KernelKind.RATIO else kernel_a
        levels = np.arange(1, N) / N
        np.testing.assert_allclose(M, fn(levels[:, None], levels[None, :], n), rtol=0.0, atol=1e-14)

    def test_exact_diagonals(self):
        R = payoff_matrix("ratio", 7, 30)
        A = payoff_matrix("difference", 7, 30)
        assert np.all(np.diag(R) == 1.0)
        assert np.all(np.diag(A) == 0.0)

    def test_hand_entries(self):
        R = payoff_matrix("ratio", 2, 4)
        A = payoff_matrix("difference", 2, 4)
        assert R[1, 0] == pytest.approx(14 / 15, abs=1e-15)  # (i, j) = (2, 1)
        assert A[1, 0] == pytest.approx(0.0625, abs=1e-16)

    def test_difference_is_prophet_minus_reward(self):
        # A_N = 1 d^T - B columnwise
        n, N = 6, 25
        A = payoff_matrix("difference", n, N)
        B = reward_weights(n, N)
        d = prophet_weights(n, N)
        np.testing.assert_allclose(A, d[None, :] - B, rtol=1e-13, atol=1e-15)

    def test_ratio_is_reward_over_prophet(self):
        n, N = 6, 25
        R = payoff_matrix("ratio", n, N)
        B = reward_weights(n, N)
        d = prophet_weights(n, N)
        np.testing.assert_allclose(R, B / d[None, :], rtol=1e-13, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            payoff_matrix("ratio", 1, 10)
        with pytest.raises(ValueError):
            payoff_matrix("ratio", 5, 2)
        with pytest.raises(ValueError):
            payoff_matrix("bogus", 5, 10)

    def test_stop_weight_matches_reward_weights(self):
        # one factor form of b: the dense B, b at grid levels and the game
        # blocks agree exactly
        for n, N in ((2, 12), (4, 12), (10, 60), (25, 60)):
            B, d = reward_weights(n, N), prophet_weights(n, N)
            levels = np.arange(1, N) / N
            for i in range(1, N):
                np.testing.assert_array_equal(stop_weight(i / N, levels, n), B[i - 1])
            rows, cols = np.array([0, N // 3, N - 2]), np.arange(N - 1)
            diag = rows[:, None] == cols
            generator = Generator(n, N)
            R = generator.block("ratio", rows, cols)
            A = generator.block("difference", rows, cols)
            np.testing.assert_array_equal(R, np.where(diag, 1.0, B[rows] / d))
            np.testing.assert_array_equal(A, np.where(diag, 0.0, d - B[rows]))


@st.composite
def grid_vectors(draw):
    """(n, N, v): a horizon, a grid size and a vector on its N-1 levels."""
    n, N = draw(st.integers(2, 30)), draw(st.integers(3, 400))
    # zeros, or values far enough above underflow that y * v stays normal
    entries = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))
    return n, N, np.array(draw(st.lists(entries, min_size=N - 1, max_size=N - 1)))


@st.composite
def grid_blocks(draw):
    """(n, N, rows, cols): a horizon, a grid size and level indices of a block."""
    n, N = draw(st.integers(2, 30)), draw(st.integers(3, 120))
    levels = st.lists(st.integers(0, N - 2), min_size=1, max_size=8)
    return n, N, draw(levels), draw(levels)


class TestStructuredProducts:
    @settings(max_examples=80, deadline=None)
    @given(grid_vectors())
    @example((2, 3, np.array([0.25, 1.0])))
    def test_generator_products(self, case):
        # against the dense B, and bit for bit against the running sums of
        # stop_weight_sums at the grid levels, which the products unroll
        n, N, v = case
        generator, B, y = Generator(n, N), reward_weights(n, N), np.arange(1, N) / N
        np.testing.assert_allclose(generator.matvec(v), B @ v, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(generator.rmatvec(v), B.T @ v, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(generator.matvec(v), stop_weight_sums(y, y, v, 1 - y, n))
        np.testing.assert_array_equal(generator.d, 1 - y**n)

    @settings(max_examples=40, deadline=None)
    @given(grid_blocks())
    @example((2, 3, [1, 0, 1], [0, 1]))
    def test_generator_blocks(self, case):
        # any rows and columns, repeated and unsorted, index the dense matrix
        n, N, rows, cols = case
        generator = Generator(n, N)
        for kind in KernelKind:
            np.testing.assert_array_equal(generator.block(kind, rows, cols),
                                          payoff_matrix(kind, n, N)[np.ix_(rows, cols)])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Generator(4, 10).matvec(np.ones(10))
        with pytest.raises(ValueError):
            Generator(4, 10).rmatvec(np.ones(8))


class TestBounds:
    def test_err_diff_values(self):
        assert err_bound_diff(10, 2000) == pytest.approx(0.00225, abs=1e-18)
        assert err_bound_diff(2, 77) == pytest.approx(1 / 154, abs=1e-18)
        assert err_bound_diff(10, 13000) == pytest.approx(3.4615e-4, abs=1e-8)

    def test_err_ratio_values(self):
        assert err_bound_ratio(10, 2000) == pytest.approx(0.0078, abs=1e-4)
        assert err_bound_ratio(100, 13500) == pytest.approx(0.0094, abs=1e-4)
        # n=4 is the domain edge: denominator (1-1/e)^2 - 1/3 > 0
        assert err_bound_ratio(4, 100) > 0
        with pytest.raises(ValueError):
            err_bound_ratio(3, 100)

    def test_support_cutoff_values(self):
        assert support_cutoff(10) == pytest.approx(0.3404, abs=1e-4)
        assert support_cutoff(4) == pytest.approx(0.06854, abs=1e-4)
        # n -> infinity limit: -ln(1 - (1-1/e)^2)
        assert support_cutoff(10**9) == pytest.approx(0.510120, abs=1e-5)
        assert 0.0 < support_cutoff(4) < 1.0
        with pytest.raises(ValueError):
            support_cutoff(3)
