import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

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
    sharp_regret,
    stop_weight,
    support_cutoff,
)
from prophet_sharp.dist import grid_distribution, lfd_from_mu_ratio
from prophet_sharp.kernel import (
    _grid_block,
    _kappa_level,
    _saddle_levels,
    _split,
    check_grid,
    stop_weight_sums,
)
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

    def test_below_diagonal_matches_exact_fractions(self):
        # A = y x^{n-1} - y^n for y <= x, against exact rationals, to a
        # relative 16 eps: half the points lie within a relative 1e-12 to
        # 1e-1 of the diagonal, where (1 - y^n) - b cancels (0.0 at
        # (0.010001, 0.01, 10) for 9.0036e-24) and so does
        # y (x^{n-1} - y^{n-1}) (3.2e-5 off)
        assert kernel_a(0.010001, 0.01, 10) > 0.0
        rng = np.random.default_rng(29)
        eps = Fraction(np.finfo(float).eps)
        for i in range(3000):
            n, x = int(rng.integers(2, 31)), float(rng.random())
            y = float(x * (rng.random() if i % 2 else 1 - 10.0 ** -rng.uniform(1, 12)))
            fx, fy = Fraction(x), Fraction(y)
            exact = fy * fx ** (n - 1) - fy**n
            assert abs(Fraction(kernel_a(x, y, n)) - exact) <= 16 * eps * exact, (x, y, n)

    @pytest.mark.parametrize("x,y,n,want", [
        # 200-digit mpmath values of y x^{n-1} - y^n; all but the first two
        # lie within a relative 1e-12 of the diagonal
        (1 - 2**-30, 1 - 2**-29, 10**6, 0.00093002154480690785367),
        (0.9999999, 0.9999997, 10**6, 0.16401904521227314683),
        (0.9999999999995, 0.999999999999, 10**12, 0.2386161204597079161),
        (1 - 2**-46, 1 - 2**-45, 10**12, 0.013911254956246441348),
        (0.9999, 0.9999 * (1 - 1e-13), 10**4, 3.6797543087087808877e-10),
        (1 - 2**-50, 1 - 5 * 2**-52, 2**53 + 1, 0.00029006269814002572547),
        (1 - 2**-53, 1 - 2**-52, 2**62, 4.3774910370529265523e-223),
    ])
    def test_below_diagonal_large_horizons(self, x, y, n, want):
        assert kernel_a(x, y, n) == pytest.approx(want, rel=16 * np.finfo(float).eps, abs=0.0)
        assert kernel_a(x, y, np.int64(n)) == kernel_a(x, y, n)

    def test_above_diagonal_matches_exact_fractions(self):
        # A = (1 - y^n) - (1 - y) g(x) for y > x, against exact rationals, to
        # a relative 16 eps: half the points lie within a relative 1e-12 to
        # 1e-1 above the diagonal, where that difference cancels (2.5e-3 off
        # there when computed as written), and a third within 1/n of 1
        rng = np.random.default_rng(31)
        eps = Fraction(np.finfo(float).eps)
        for i in range(2000):
            n = int(rng.integers(2, 31)) if i % 10 else int(rng.choice([200, 1000]))
            x = (float(rng.random()), 1 - 10.0 ** -rng.uniform(0, 15),
                 1 - float(rng.random()) / n)[i % 3]
            y = x * (1 + 10.0 ** -rng.uniform(1, 12)) if i % 2 else x + (1 - x) * float(rng.random())
            y = min(y, 1.0)
            if y <= x:
                continue
            fx, fy = Fraction(x), Fraction(y)
            exact = (1 - fy**n) - (1 - fy) * (1 - fx**n) / (1 - fx)
            assert abs(Fraction(kernel_a(x, y, n)) - exact) <= 16 * eps * exact, (x, y, n)

    @pytest.mark.parametrize("x,y,n,want", [
        # 200-digit mpmath values of (1 - y^n) - (1 - y)(1 - x^n)/(1 - x);
        # the first, second and fourth lie within 1/(2n) of 1
        (1 - 2**-30, 1 - 2**-31, 10**6, 1.0836963559314227329e-7),
        (0.9999997, 0.9999999, 10**6, 0.0087686489324482967754),
        (0.999999999999, 0.9999999999995, 10**12, 0.077404999781905614139),
        (1 - 2**-45, 1 - 2**-46, 10**12, 0.00009955108923471303808),
        (1 - 2**-52, 1 - 2**-53, 2**62, 0.5),
        (0.25, 0.5, 2**62, 1 / 3),
    ])
    def test_above_diagonal_large_horizons(self, x, y, n, want):
        assert kernel_a(x, y, n) == pytest.approx(want, rel=16 * np.finfo(float).eps, abs=0.0)
        assert kernel_a(x, y, np.int64(n)) == kernel_a(x, y, n)

    def test_branch_limits_meet_diagonal(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 10):
            y = rng.uniform(0.05, 0.95, 200)
            np.testing.assert_allclose(kernel_a(y + 1e-9, y, n), 0.0, rtol=0.0, atol=1e-6)


class TestHorizonsAboveFloats:
    """Above 2**53 an integer horizon may be no float: the powers x^{n-1} and
    y^n take it split into a float and an exact remainder (kernel._split)."""

    #: (x, y, n, A, R, b) as float.hex, A, R and b the nearest floats to
    #: 100-digit mpmath values of y x^{n-1} - y^n (y <= x) or
    #: (1 - y^n) - b (y > x), b / (1 - y^n), and b; a seeded sweep with n
    #: log-uniform in (2**53, 2**62] and x^{n-1} above the underflow; the
    #: first was 73 eps off with the float horizon
    PINS = [
        ("0x1.fffffffffff6ep-1", "0x1.ffffffd776653p-1", 29663500994767948,
         "0x1.3f44e83c13b06p-694", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.ffffffffffffep-1", "0x1.fffffffffd8dcp-1", 754847702827305735,
         "0x1.240d8f636ca13p-242", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.ffffffffffffcp-1", "0x1.ffffffffffffbp-1", 21271830749421451,
         "0x1.2bf4ff2cf37a6p-14", "0x1.fff6a0537412dp-1", "0x1.fff5a6993e3d7p-1"),
        ("0x1.ffffffffffffep-1", "0x1.fffffffffaa76p-1", 107167286432700120,
         "0x1.973e4e0671cb5p-35", "0x1.ffffffff9a307p-1", "0x1.ffffffff9a307p-1"),
        ("0x1.fffffffffffffp-1", "0x1.fffdbb760b70bp-1", 61109126575899110,
         "0x1.2888422de1549p-10", "0x1.ff6bbbdee90f5p-1", "0x1.ff6bbbdee90f5p-1"),
        ("0x1.fffffffffff9cp-1", "0x1.fffffffffffb1p-1", 9128584359606989,
         "0x1.ae147ae147ae1p-3", "0x1.947ae147ae148p-1", "0x1.947ae147ae148p-1"),
        ("0x1.fffffffffffffp-1", "0x1.ffffffffffffdp-1", 28194564237495322,
         "0x1.655f16e2b5751p-5", "0x1.e9a994558ea00p-1", "0x1.e99f1ccf2dc4ap-1"),
        ("0x1.fffffffffffe9p-1", "0x1.ffffffffffff3p-1", 146942585624544903,
         "0x1.bd37a6f4de9bdp-2", "0x1.21642c8590b21p-1", "0x1.21642c8590b21p-1"),
        ("0x1.fffffffffff45p-1", "0x1.fffffffffff40p-1", 11161251979756629,
         "0x1.9e61a18c2db18p-335", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.fffffffffffeep-1", "0x1.fffffffffffefp-1", 29552244396896943,
         "0x1.c71c71c71c71cp-5", "0x1.e38e38e38e38ep-1", "0x1.e38e38e38e38ep-1"),
        ("0x1.ffffffffffffep-1", "0x1.fffffffff3ddfp-1", 20293980568060554,
         "0x1.69c7e9cb1dcecp-7", "0x1.fa58e058d388cp-1", "0x1.fa58e058d388cp-1"),
        ("0x1.ffffffffffffep-1", "0x1.fed5328649a82p-1", 17172435075688191,
         "0x1.68f27b885d10dp-6", "0x1.f4b86c23bd178p-1", "0x1.f4b86c23bd178p-1"),
        ("0x1.fffffffffffffp-1", "0x1.ffffffffffffep-1", 38674933548924850,
         "0x1.b947c150f36d2p-7", "0x1.f91a8cbaf5b5dp-1", "0x1.f90272165b174p-1"),
        ("0x1.fffffffffffb8p-1", "0x1.fffffffffffd4p-1", 35094796982665427,
         "0x1.8e38e38e38e39p-2", "0x1.38e38e38e38e4p-1", "0x1.38e38e38e38e4p-1"),
        ("0x1.ffffffffffffep-1", "0x1.fffffffffffffp-1", 290113757486295426,
         "0x1.fffffffffff47p-2", "0x1.000000000002ep-1", "0x1.0000000000000p-1"),
        ("0x1.ffffffffffff3p-1", "0x1.ffffffffffff7p-1", 16903089502166449,
         "0x1.3b13ae211ba1ep-2", "0x1.62762875401f9p-1", "0x1.627627624f7a0p-1"),
        ("0x1.ffffffffffffdp-1", "0x1.fd89675f2e644p-1", 326705079018114111,
         "0x1.01306c55faebcp-157", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.fffffffffffe8p-1", "0x1.fffffffffcf01p-1", 71601267594687324,
         "0x1.b08cb78a93fe8p-276", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x1.fffffffffffedp-1", "0x1.ffffffffffffep-1", 244214293428211967,
         "0x1.ca1af286bca1bp-1", "0x1.af286bca1af28p-4", "0x1.af286bca1af28p-4"),
        ("0x1.fffffffffff72p-1", "0x1.fffffffffff80p-1", 31468317642809351,
         "0x1.93d4bb7e327a9p-4", "0x1.cd85689039b0bp-1", "0x1.cd85689039b0bp-1"),
        ("0x1.fffffffffffffp-1", "0x1.ffff62af2294bp-1", 454294603293815682,
         "0x1.2d4b1338ec165p-73", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ]

    @pytest.mark.parametrize("x,y,n,a,r,b", PINS)
    def test_within_16_eps_of_mpmath(self, x, y, n, a, r, b):
        x, y = float.fromhex(x), float.fromhex(y)
        for fn, want in ((kernel_a, a), (kernel_r, r), (stop_weight, b)):
            want = float.fromhex(want)
            assert fn(x, y, n) == pytest.approx(want, rel=16 * np.finfo(float).eps, abs=0.0), fn

    def test_split_is_exact(self):
        # e + r = k with e a float <= k; r = 0 at every k <= 2**53 and at
        # floats above it, so those horizons keep their plain powers
        rng = np.random.default_rng(59)
        ks = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**62 + 1, 2**63 - 1]
        ks += [int(k) for k in rng.integers(2, 2**63 - 1, 200, dtype=np.int64)]
        for k in ks:
            e, r = _split(k)
            assert isinstance(e, float) and int(e) + r == k and r >= 0, k
            assert (r == 0) == (k <= 2**53 or float(k) == k), k


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


class TestSaddleLevels:
    #: continuum saddle levels x*_n (ratio, regret), solved at 40 digits with
    #: mpmath (the ratio's at n = 1e4 by bisection on both equations)
    X_STAR = {
        2: (0.70710678118655, 0.5),
        3: (0.77944897202744, 0.61544632820242),
        4: (0.82231651992015, 0.68726329553044),
        10: (0.91647612719801, 0.85142703674708),
        25: (0.96347387810403, 0.93519300181686),
        100: (0.99029826982879, 0.98290535778894),
        1000: (0.99900433182184, 0.99825470477844),
        10**4: (0.99990005674594, 0.99982498955581),
    }

    @pytest.mark.parametrize("n", list(X_STAR))
    def test_matches_table(self, n):
        for kind, x_star in zip(("ratio", "difference"), self.X_STAR[n]):
            assert abs(_saddle_levels(kind, n)[0] - x_star) <= 1e-12

    def test_closed_forms_at_n2(self):
        x, (y0, top) = _saddle_levels("ratio", 2)
        assert x == pytest.approx(2**-0.5, abs=1e-12)
        assert y0 == pytest.approx(2**0.5 - 1.0, abs=1e-12) and top == 1.0
        x, atoms = _saddle_levels("difference", 2)
        assert x == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(atoms, (0.25, 0.75), atol=1e-12)

    def test_brackets_hold_every_root(self):
        # brentq raises where its fixed bracket has no sign change
        ns = list(range(2, 3001)) + [int(v) for v in np.logspace(np.log10(3001), 12, 400)]
        for n in ns:
            x, (y0, top) = _saddle_levels("ratio", n)
            assert 0.0 < y0 < x < 1.0 and top == 1.0
            x, (y1, y2) = _saddle_levels("difference", n)
            assert 0.0 < y1 < x < y2 < 1.0

    @pytest.mark.parametrize("N", [3, 4, 700, 200000])
    def test_total(self, N):
        # the start blocks _grid_block gives the sharp games (the two levels
        # around each atom, and around x*_n with two more below) and kappa
        # (two levels each side of x*_n) hold the levels that lie inside the
        # grid's range, also where one lies on a level (the n = 2 regret's
        # x* = 1/2 and atom 1/4 at N = 4), and clip the rest to the grid
        for n in (2, 3, 5, 10, 100, 10**3, 10**4, 10**6, 10**9, 10**12):
            blocks = [(_grid_block([_kappa_level(n)[0]], N, 2, 2), (_kappa_level(n)[0],))]
            for kind in KernelKind:
                x, atoms = _saddle_levels(kind, n)
                blocks += [(_grid_block([x], N, 3, 1), (x,)), (_grid_block(atoms, N, 1, 1), atoms)]
            for indices, levels in blocks:
                assert indices == sorted(set(indices))
                assert indices and 0 <= min(indices) and max(indices) <= N - 2
                grid = (np.asarray(indices) + 1.0) / N
                for z in levels:
                    if 1.0 <= z * N < N - 1:
                        assert grid.min() <= z < grid.max()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="horizon"):
            _saddle_levels("ratio", 1)
        with pytest.raises(ValueError, match="grid size"):
            sharp_regret(10, 2)


class TestKappaLevel:
    #: the level x*_n minimizing h(x)^2 = int_0^1 (C_x')^2, C_x the least
    #: concave majorant of A(x, .): solved at 90 digits with mpmath, by a
    #: root of a central difference of h^2 in its closed form (polynomials
    #: on [0, y1] and [y2, 1], the bridge between), not of the stationarity
    #: equation _kappa_level solves
    X_STAR = {
        2: 0.5,
        3: 0.64365722455391956,
        4: 0.72405818270644343,
        5: 0.77507875690065765,
        10: 0.88338653950782173,
        25: 0.95236500984175964,
        100: 0.98796825478577290,
        1000: 0.99879314606255428,
        10**4: 0.99987927784017661,
    }

    @pytest.mark.parametrize("n", list(X_STAR))
    def test_matches_table(self, n):
        assert abs(_kappa_level(n)[0] - self.X_STAR[n]) <= 1e-12

    def test_symmetric_at_n2(self):
        # A(1/2, y) = A(1/2, 1 - y) at n = 2, so the bridge is symmetric about 1/2
        x, (y1, y2) = _kappa_level(2)
        assert x == 0.5
        assert y1 == pytest.approx(0.25, abs=1e-12) and y2 == pytest.approx(0.75, abs=1e-12)

    def test_brackets_hold_every_root(self):
        # brentq raises where a fixed bracket has no sign change
        ns = list(range(2, 3001)) + [int(v) for v in np.logspace(np.log10(3001), 12, 400)]
        for n in ns:
            x, (y1, y2) = _kappa_level(n)
            assert 0.0 < y1 < x < y2 < 1.0, n

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_grid_scan_minimum_near_x_star(self, n):
        # one PAVA per level of the N-grid: the level whose kappa bound
        # sqrt(N) ||Pi_K(C^T e_i)|| is least, with C^T e_i the increments of
        # kernel_a(x_i, .) on the grid and its ends y = 0 and y = 1
        N = 2000
        y = np.arange(1, N) / N
        norms = [np.linalg.norm(isotonic_regression(
            np.diff(kernel_a(x, y, n), prepend=0.0, append=0.0), increasing=False).x) for x in y]
        best_level = int(np.argmin(norms)) + 1
        assert abs(best_level - math.floor(_kappa_level(n)[0] * N)) <= 2

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            _kappa_level(1)
