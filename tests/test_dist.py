import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_prophet, random_dist, to_csv
from prophet_sharp import (
    DiscreteDistribution,
    grid_distribution,
    lfd_from_mu_diff,
    lfd_from_mu_ratio,
)

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])


class TestValidation:
    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([-0.1, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_bad_normalization(self):
        # inputs outside 1e-12 are rejected, never silently renormalized
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5 + 1e-9]))

    def test_accepts_tiny_rounding(self):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5 + 1e-13]))

    def test_rejects_zero_prob(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("values,probs,match", [
        ([[0.0, 1.0]], [[0.5, 0.5]], "1-D"),
        ([], [], "at least one atom"),
        ([0.0, np.nan], [0.5, 0.5], "finite"),
        ([0.0, 1.0], [0.5, np.nan], "finite"),
    ], ids=["2-D", "empty", "nan-value", "nan-prob"])
    def test_rejects_malformed_arrays(self, values, probs, match):
        with pytest.raises(ValueError, match=match):
            DiscreteDistribution(np.array(values), np.array(probs))

    def test_from_atoms_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DiscreteDistribution.from_atoms([])

    @pytest.mark.parametrize("atoms", [5, [[0.5, None]], [None], [[0.5]], [[0.0, 0.5, 1.0]],
                                       [["a", 1.0]], [[0.0, [1.0]]]])
    def test_from_atoms_rejects_malformed(self, atoms):
        # non-pairs and non-numbers are a ValueError, as for every bad input
        with pytest.raises(ValueError, match="pairs of numbers"):
            DiscreteDistribution.from_atoms(atoms)


class TestCdf:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.5), (0.5, 0.5), (1.0, 1.0), (-1.0, 0.0)])
    def test_cdf_coin(self, x, expected):
        assert COIN.cdf(x) == expected

    @pytest.mark.parametrize("x,expected", [(1.0, 0.5), (2.0, 1.0), (0.0, 0.0)])
    def test_cdf_left_coin(self, x, expected):
        assert COIN.cdf_left(x) == expected

    @pytest.mark.parametrize("p,expected", [(1.0, 0.5), (0.0, 1.0), (0.5, 0.75)])
    def test_mixed_cdf_at_atom(self, p, expected):
        assert COIN.mixed_cdf(1.0, p) == expected

    def test_mixed_cdf_rejects_bad_p(self):
        with pytest.raises(ValueError):
            COIN.mixed_cdf(1.0, 1.5)

    def test_mixed_cdf_constant_at_continuity_points(self):
        for p in (0.0, 0.3, 1.0):
            assert COIN.mixed_cdf(0.5, p) == COIN.cdf(0.5)

    def test_mixed_cdf_nonincreasing_in_p_at_atoms(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            F = random_dist(rng)
            x = float(rng.choice(F.values))
            ps = np.linspace(0, 1, 11)
            vals = [F.mixed_cdf(x, p) for p in ps]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestQuantile:
    @pytest.mark.parametrize("t,expected", [
        (0.5, 0.0), (0.6, 1.0), (0.0, 0.0), (1.0, 1.0),
        (-np.inf, 0.0), (-1.0, 0.0), (-0.0, 0.0), (np.nan, 1.0), (1.5, 1.0), (np.inf, 1.0),
    ])
    def test_quantile_coin(self, t, expected):
        assert COIN.quantile(t) == expected

    def test_quantile_point_mass(self):
        assert DiscreteDistribution.point_mass(2.0).quantile(1.0) == 2.0

    def test_galois_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            F = random_dist(rng)
            for x in F.values:
                assert F.quantile(F.cdf(x)) <= x
            for t in rng.random(5):
                assert F.cdf(F.quantile(t)) >= t - 1e-15


class TestProphetValue:
    def test_coin_n2(self):
        assert COIN.expected_max(2) == 0.75

    def test_point_mass_any_n(self):
        pm = DiscreteDistribution.point_mass(3.25)
        for n in (1, 2, 7):
            assert pm.expected_max(n) == 3.25

    def test_three_atoms_n2(self):
        F = DiscreteDistribution.from_atoms([(0, 1 / 3), (1, 1 / 3), (2, 1 / 3)])
        # enumeration over the 9 equally likely pairs gives 13/9
        assert abs(F.expected_max(2) - 13 / 9) < 1e-15
        assert abs(enumerate_prophet(F, 2) - 13 / 9) < 1e-15

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            F = random_dist(rng, max_atoms=4)
            for n in (1, 2, 3, 4):
                assert abs(F.expected_max(n) - enumerate_prophet(F, n)) < 1e-12

    def test_monotone_in_n_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            F = random_dist(rng)
            values = [F.expected_max(n) for n in range(1, 8)]
            assert values[0] == pytest.approx(F.mean(), abs=1e-15)
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= F.values[-1] + 1e-12

    @pytest.mark.parametrize("probs", [[1e-13, 1.0], [1e-13, 1.0 + 5e-13]])
    def test_negligible_first_atom(self, probs):
        # the tail above the first atom rounds to (or past) 1: 1 - y^n is 1
        F = DiscreteDistribution(np.array([0.0, 1.0]), np.array(probs))
        for n in (1, 2, 5):
            assert F.expected_max(n) == 1.0

    def test_quantile_jumps_reproduce_prophet(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            F = random_dist(rng)
            levels, weights, tails = F.quantile_jumps()
            np.testing.assert_allclose(tails, 1.0 - levels, rtol=0.0, atol=1e-15)
            for n in (1, 3, 6):
                assert weights @ (1.0 - levels**n) == pytest.approx(F.expected_max(n), rel=1e-13)


class TestReconstruction:
    def test_ratio_single_jump(self):
        F = lfd_from_mu_ratio(np.array([1.0]), 2, 2)
        np.testing.assert_allclose(F.values, [0.0, 4.0 / 3.0])
        np.testing.assert_allclose(F.probs, [0.5, 0.5])

    def test_ratio_rejects_n1(self):
        with pytest.raises(ValueError):
            lfd_from_mu_ratio(np.full(3, 1 / 3), 1, 4)

    @pytest.mark.parametrize("mu,N,match", [
        ([1 / 3] * 3, 5, "length N-1"),
        ([0.5, 0.6, -0.1], 4, "nonnegative"),
        ([0.5, 0.6, 0.1], 4, "sum to 1"),
    ], ids=["length", "negative", "sum"])
    def test_ratio_rejects_bad_mu(self, mu, N, match):
        with pytest.raises(ValueError, match=match):
            lfd_from_mu_ratio(mu, 3, N)

    def test_diff_rejects_mass_above_one(self):
        with pytest.raises(ValueError, match="at most 1"):
            lfd_from_mu_diff([0.5, 0.6, 0.1], 4)

    def test_ratio_top_mass(self):
        # all mass on the last increment: two atoms, (N-1)/N of it at zero
        N = 5
        mu = np.zeros(N - 1)
        mu[-1] = 1.0
        F = lfd_from_mu_ratio(mu, 3, N)
        assert F.values[0] == 0.0
        assert F.probs[0] == pytest.approx((N - 1) / N)
        assert F.values.size == 2

    def test_ratio_prophet_value_is_mu_total(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            N = int(rng.integers(3, 30))
            mu = rng.dirichlet(np.ones(N - 1))
            n = int(rng.integers(2, 9))
            F = lfd_from_mu_ratio(mu, n, N)
            assert F.expected_max(n) == pytest.approx(1.0, abs=1e-10)

    def test_diff_examples(self):
        F = lfd_from_mu_diff(np.array([1.0, 0.0, 0.0]), 4)
        np.testing.assert_allclose(F.values, [0.0, 1.0])
        np.testing.assert_allclose(F.probs, [0.25, 0.75])
        assert lfd_from_mu_diff(np.zeros(3), 4).values.tolist() == [0.0]
        F = lfd_from_mu_diff(np.full(3, 1 / 3), 4)
        np.testing.assert_allclose(F.values, [0.0, 1 / 3, 2 / 3, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12), st.integers(2, 8))
    def test_reconstructions_always_valid(self, raw, n):
        weights = np.asarray(raw)
        total = weights.sum()
        if total <= 0:
            weights = np.ones_like(weights)
            total = weights.sum()
        mu = weights / total
        N = mu.size + 1
        for F in (lfd_from_mu_ratio(mu, n, N), lfd_from_mu_diff(mu, N)):
            assert np.all(np.diff(F.values) > 0)
            assert abs(F.probs.sum() - 1.0) < 1e-12


class TestGridTypes:
    def test_increments_roundtrip(self):
        F = grid_distribution(np.cumsum([1.0, 1.0, 1.0]), 4)
        np.testing.assert_allclose(F.values, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(F.probs, [0.25] * 4)

    def test_increments_validation(self):
        with pytest.raises(ValueError):
            grid_distribution(np.cumsum([1.0, -1.0, 1.0]), 4)
        with pytest.raises(ValueError):
            grid_distribution(np.cumsum([1.0, 1.0, 1.0]), 3)

    def test_grid_distribution_merges(self):
        F = grid_distribution(np.array([0.0, 0.0, 2.0]), 4)
        np.testing.assert_allclose(F.values, [0.0, 2.0])
        np.testing.assert_allclose(F.probs, [0.75, 0.25])


class TestSerialization:
    def test_json_roundtrip_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            F = random_dist(rng)
            G = DiscreteDistribution.from_json(F.to_json())
            assert np.array_equal(F.values, G.values)
            assert np.array_equal(F.probs, G.probs)

    def test_csv_roundtrip_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            F = random_dist(rng)
            G = DiscreteDistribution.from_csv(to_csv(F))
            assert np.array_equal(F.values, G.values)
            assert np.array_equal(F.probs, G.probs)

    def test_json_shape(self):
        obj = json.loads(COIN.to_json())
        assert obj == {"atoms": [[0.0, 0.5], [1.0, 0.5]]}

    def test_from_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(to_csv(COIN))
        G = DiscreteDistribution.from_file(str(path))
        assert np.array_equal(G.values, COIN.values)

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_csv("nope\n0,1\n")

    def test_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="'atoms' key"):
            DiscreteDistribution.from_json("[1, 2]")
