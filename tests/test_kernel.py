import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophet_sharp import (
    KernelKind,
    PayoffMatrix,
    err_bound_diff,
    err_bound_ratio,
    kernel_a,
    kernel_r,
    lipschitz_a,
    lipschitz_r,
    payoff_matrix,
    prophet_weights,
    reward_matvec,
    reward_rmatvec,
    reward_weights,
    stop_weight,
    support_cutoff,
)


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
            for _ in range(2000):
                x, y = rng.random(2)
                assert kernel_r(x, y, n) == pytest.approx(kernel_r_minform(x, y, n), abs=1e-14)

    def test_positive_on_grid(self):
        for n in range(2, 13):
            g = np.linspace(0, 1, 200)
            vals = np.array([[kernel_r(x, y, n) for y in g] for x in g])
            assert vals.min() > 0.0

    def test_discontinuity_at_corner(self):
        # along the diagonal the limit is 1; along x=1, y->1 it is 1/n
        n = 6
        assert kernel_r(1.0, 1.0, n) == 1.0
        assert kernel_r(1.0, 1 - 1e-9, n) == pytest.approx(1 / n, rel=1e-6)

    def test_branch_limits_meet_diagonal(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 10):
            for _ in range(200):
                y = rng.uniform(0.05, 0.9)
                assert kernel_r(y + 1e-9, y, n) == pytest.approx(1.0, abs=1e-6)
                assert kernel_r(y - 1e-9, y, n) == pytest.approx(1.0, abs=1e-6)


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
            vals = np.array([[kernel_a(x, y, n) for y in g] for x in g])
            assert vals.min() >= 0.0

    def test_min_form_agrees(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 10):
            for _ in range(2000):
                x, y = rng.random(2)
                assert kernel_a(x, y, n) == pytest.approx(kernel_a_minform(x, y, n), abs=1e-14)

    def test_branch_limits_meet_diagonal(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 10):
            for _ in range(200):
                y = rng.uniform(0.05, 0.95)
                assert kernel_a(y + 1e-9, y, n) == pytest.approx(0.0, abs=1e-6)


class TestLipschitz:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_kernel_a_lipschitz_both_arguments(self, n):
        rng = np.random.default_rng(n)
        L = lipschitz_a(n)
        x, xp, y = rng.random((3, 100000))
        va = np.array([kernel_a(a, c, n) for a, c in zip(x, y)])
        vb = np.array([kernel_a(b, c, n) for b, c in zip(xp, y)])
        assert np.all(np.abs(va - vb) <= L * np.abs(x - xp) + 1e-12)
        vc = np.array([kernel_a(c, a, n) for a, c in zip(x, y)])
        vd = np.array([kernel_a(c, b, n) for b, c in zip(xp, y)])
        assert np.all(np.abs(vc - vd) <= L * np.abs(x - xp) + 1e-12)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_kernel_r_lipschitz_restricted(self, n):
        rng = np.random.default_rng(100 + n)
        eps = 0.15
        L = lipschitz_r(n, eps)
        x, xp = rng.uniform(0, 1 - eps, (2, 100000))
        y = rng.random(100000)
        va = np.array([kernel_r(a, c, n) for a, c in zip(x, y)])
        vb = np.array([kernel_r(b, c, n) for b, c in zip(xp, y)])
        assert np.all(np.abs(va - vb) <= L * np.abs(x - xp) + 1e-12)
        # and in y for x restricted
        yp = rng.random(100000)
        vc = np.array([kernel_r(a, c, n) for a, c in zip(x, y)])
        vd = np.array([kernel_r(a, c, n) for a, c in zip(x, yp)])
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
        M = payoff_matrix(kind, n, N).entries
        fn = kernel_r if kind is KernelKind.RATIO else kernel_a
        for i in range(1, N):
            for j in range(1, N):
                assert M[i - 1, j - 1] == pytest.approx(fn(i / N, j / N, n), abs=1e-14)

    def test_exact_diagonals(self):
        R = payoff_matrix("ratio", 7, 30).entries
        A = payoff_matrix("difference", 7, 30).entries
        assert np.all(np.diag(R) == 1.0)
        assert np.all(np.diag(A) == 0.0)

    def test_hand_entries(self):
        R = payoff_matrix("ratio", 2, 4).entries
        A = payoff_matrix("difference", 2, 4).entries
        assert R[1, 0] == pytest.approx(14 / 15, abs=1e-15)  # (i, j) = (2, 1)
        assert A[1, 0] == pytest.approx(0.0625, abs=1e-16)

    def test_difference_is_prophet_minus_reward(self):
        # A_N = 1 d^T - B columnwise
        n, N = 6, 25
        A = payoff_matrix("difference", n, N).entries
        B = reward_weights(n, N)
        d = prophet_weights(n, N)
        np.testing.assert_allclose(A, d[None, :] - B, rtol=1e-13, atol=1e-15)

    def test_ratio_is_reward_over_prophet(self):
        n, N = 6, 25
        R = payoff_matrix("ratio", n, N).entries
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

    def test_json_roundtrip(self):
        M = payoff_matrix("ratio", 3, 6)
        M2 = PayoffMatrix.from_json(M.to_json())
        assert M2.kind is KernelKind.RATIO and M2.n == 3 and M2.N == 6
        np.testing.assert_array_equal(M.entries, M2.entries)

    def test_csv_shape(self):
        M = payoff_matrix("difference", 3, 6)
        lines = M.to_csv().strip().split("\n")
        assert len(lines) == 5 and len(lines[0].split(",")) == 5

    def test_stop_weight_matches_reward_weights(self):
        n, N = 4, 12
        B = reward_weights(n, N)
        for i in range(1, N):
            row = stop_weight(i / N, np.arange(1, N) / N, n)
            np.testing.assert_allclose(row, B[i - 1], rtol=1e-15)


class TestStructuredProducts:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 30), st.integers(3, 400), st.data())
    def test_match_dense_products(self, n, N, data):
        # zeros, or values far enough above underflow that y * v stays normal
        entries = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))
        v = np.array(data.draw(st.lists(entries, min_size=N - 1, max_size=N - 1)))
        B = reward_weights(n, N)
        np.testing.assert_allclose(reward_matvec(n, N, v), B @ v, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(reward_rmatvec(n, N, v), B.T @ v, rtol=1e-12, atol=0.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            reward_matvec(4, 10, np.ones(10))
        with pytest.raises(ValueError):
            reward_rmatvec(4, 10, np.ones(8))


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
