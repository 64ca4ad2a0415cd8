import hashlib
import json
import math

import numpy as np
import pytest

from helpers import (
    enumerate_rule_reward,
    exact_best_level,
    exact_expected_max,
    exact_level_reward,
    load_perfbench,
    random_dist,
    random_grid_member,
)
from prophet_sharp import (
    DiscreteDistribution,
    ThresholdRule,
    ratio_floor,
    floor_rule,
    ehsani_distribution,
    evaluate_rule,
    growth_bound_check,
    optimal_rule,
    prophet_weights,
    reward_by_level,
    reward_v1,
    reward_v2,
    reward_weights,
    rule_at_level,
    samuel_cahn_closed_forms,
    samuel_cahn_distribution,
    sharp_ratio,
    sharp_regret,
)
from prophet_sharp import reward
from prophet_sharp.dist import grid_distribution

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
FIVE_ATOMS = DiscreteDistribution.from_atoms(
    [(0.1, 0.15), (0.4, 0.25), (0.9, 0.2), (1.7, 0.3), (3.2, 0.1)])
#: the fixed distributions of acceptance criteria 1 (n = 10) and 2 (n = 25):
#: a 1e-6 atom far out, next to the jump level 0.999999
CRITERIA = {
    10: [(0.0, 0.7386596), (0.476173, 0.2613394), (54686.0, 1e-6)],
    25: [(0.0, 0.8570877), (0.446998, 0.1429113), (22499.23, 1e-6)],
}


def rule_grid(dist):
    """Threshold/tie-break sweep: atom values, midpoints, several p."""
    vals = dist.values
    mids = (vals[:-1] + vals[1:]) / 2 if vals.size > 1 else np.array([])
    thetas = np.concatenate((vals, mids, [vals[-1] + 1.0]))
    return [(float(t), p) for t in thetas for p in (0.0, 0.3, 1.0)]


class TestClosedForms:
    def test_point_mass_below_threshold(self):
        pm = DiscreteDistribution.point_mass(2.0)
        for fn in (reward_v1, reward_v2):
            assert fn(pm, 4, ThresholdRule(1.0, 0.0)) == 2.0

    def test_coin_stop_on_positive(self):
        # theta=0, p=0, n=2: stops at t=1 iff X_1 = 1, else takes X_2
        for fn in (reward_v1, reward_v2):
            assert fn(COIN, 2, ThresholdRule(0.0, 0.0)) == pytest.approx(0.75, abs=1e-15)

    def test_coin_always_stop(self):
        for fn in (reward_v1, reward_v2):
            assert fn(COIN, 2, ThresholdRule(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_coin_never_triggers(self):
        # theta at the top atom with p=0 degenerates to taking X_n
        for fn in (reward_v1, reward_v2):
            assert fn(COIN, 3, ThresholdRule(1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_two_forms_agree_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            F = random_dist(rng, max_atoms=6)
            for theta, p in rule_grid(F):
                rule = ThresholdRule(theta, p)
                for n in range(2, 7):
                    assert reward_v1(F, n, rule) == pytest.approx(
                        reward_v2(F, n, rule), abs=1e-12
                    )

    def test_pieces_read_the_cdf_once(self):
        # _pieces' F_p and tie mass, from one cdf and one cdf_left, equal
        # mixed_cdf and the difference of the two bit for bit
        rng = np.random.default_rng(109)
        for _ in range(100):
            F = random_dist(rng, max_atoms=6)
            for theta, p in rule_grid(F):
                Fp, delta, _, _ = reward._pieces(F, ThresholdRule(theta, p))
                assert Fp == F.mixed_cdf(theta, p)
                assert delta == F.cdf(theta) - F.cdf_left(theta)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            F = random_dist(rng, max_atoms=3)
            for theta, p in rule_grid(F):
                for n in (2, 3, 4):
                    expected = enumerate_rule_reward(F, n, theta, p)
                    assert reward_v1(F, n, ThresholdRule(theta, p)) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_prophet_dominance(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            F = random_dist(rng)
            n = int(rng.integers(2, 8))
            bound = F.expected_max(n)
            for theta, p in rule_grid(F):
                assert reward_v1(F, n, ThresholdRule(theta, p)) <= bound + 1e-10 * max(bound, 1)


class TestRewardByLevel:
    def test_endpoints_are_mean(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            F = random_dist(rng)
            n = int(rng.integers(2, 7))
            assert reward_by_level(F, n, 0.0) == pytest.approx(F.mean(), rel=1e-13)
            assert reward_by_level(F, n, 1.0) == pytest.approx(F.mean(), rel=1e-13)

    def test_matches_rule_evaluation(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            F = random_dist(rng)
            n = int(rng.integers(2, 7))
            x = float(rng.random())
            rule = rule_at_level(F, x)
            assert F.mixed_cdf(rule.theta, rule.p) == pytest.approx(x, abs=1e-12)
            assert reward_by_level(F, n, x) == pytest.approx(
                reward_v2(F, n, rule), abs=1e-12
            )

    def test_grid_levels_match_b_matrix(self):
        # on a 1/N grid the level rewards are exactly B v
        rng = np.random.default_rng(127)
        for N in (4, 9, 16):
            v = rng.exponential(1.0, N - 1)
            F = grid_distribution(np.cumsum(v), N)
            B = reward_weights(4, N)
            expected = B @ v
            got = [reward_by_level(F, 4, i / N) for i in range(1, N)]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_exact_best_level_dominates_scan(self):
        # the piecewise-polynomial oracle is attained and never beaten by a scan
        rng = np.random.default_rng(131)
        xs = np.linspace(0.0, 1.0, 2001)
        for _ in range(40):
            F = random_dist(rng)
            n = int(rng.integers(2, 12))
            x, best = exact_best_level(F, n)
            assert reward_by_level(F, n, x) == pytest.approx(best, abs=1e-12)
            scan = reward_by_level(F, n, np.concatenate((xs, F.cumulative))).max()
            assert best >= scan - 1e-12

    def test_array_call_equals_scalar_calls(self):
        # levels 0 and 1, every jump level, and random levels in between
        rng = np.random.default_rng(151)
        for _ in range(30):
            F = random_dist(rng)
            n = int(rng.integers(2, 12))
            xs = np.concatenate(([0.0, 1.0], F.quantile_jumps()[0], rng.random(20)))
            got = reward_by_level(F, n, xs)
            assert got.shape == xs.shape
            np.testing.assert_array_equal(got, [reward_by_level(F, n, x) for x in xs])
        assert isinstance(reward_by_level(COIN, 2, 0.5), float)
        assert reward_by_level(COIN, 2, np.array([[0.5]])).shape == (1, 1)

    def test_rejects_levels_outside_unit_interval(self):
        for x in (-1e-9, 1.0 + 1e-9, np.nan, [0.5, 1.5]):
            with pytest.raises(ValueError):
                reward_by_level(COIN, 2, x)

    @pytest.mark.parametrize("n", sorted(CRITERIA))
    def test_exact_against_rational_arithmetic(self, n):
        # the top atom's tail mass 1e-6 would lose five digits as 1 - level;
        # levels within ~1e-5 of 1 still cancel in 1 - x^n and 1 - x^{n-1} y
        F = DiscreteDistribution.from_atoms(CRITERIA[n])
        x = exact_best_level(F, n)[0]
        for level in (x, 0.5, 0.99):
            exact = float(exact_level_reward(F, n, level))
            assert reward_by_level(F, n, level) == pytest.approx(exact, rel=1e-15, abs=0.0)
        for m in (1, 2, n, 4 * n):
            exact = float(exact_expected_max(F, m))
            assert F.expected_max(m) == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestOptimalRule:
    def test_point_mass(self):
        res = optimal_rule(DiscreteDistribution.point_mass(3.0), 5)
        assert res.evaluation.ratio == pytest.approx(1.0, abs=1e-12)
        assert res.evaluation.value == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_grid_exact(self):
        res = optimal_rule(DiscreteDistribution.point_mass(2.0), 3, mode="grid-exact", grid_size=2)
        assert res.rule.theta == 2.0
        assert res.evaluation.value == 2.0

    def test_coin_grid_exact(self):
        res = optimal_rule(COIN, 2, mode="grid-exact", grid_size=2)
        assert res.rule.theta == 0.0
        assert res.rule.p == 0.0
        assert res.evaluation.value == pytest.approx(0.75, abs=1e-14)
        assert res.evaluation.ratio == pytest.approx(1.0, abs=1e-13)

    def test_grid_exact_matches_b_matrix_max(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            N = int(rng.integers(4, 24))
            n = int(rng.integers(2, 8))
            F = random_grid_member(rng, N)
            res = optimal_rule(F, n, mode="grid-exact", grid_size=N)
            # independent: maximize B v over rows, with u_i the atom above
            # level i/N recovered by multiplicity (robust to cumsum rounding)
            expanded = np.repeat(F.values, np.rint(F.probs * N).astype(int))
            v = np.diff(expanded)
            best = float((reward_weights(n, N) @ v).max())
            assert res.evaluation.value == pytest.approx(best, abs=1e-11)

    def test_level_search_beats_grid_candidates(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            F = random_dist(rng)
            n = int(rng.integers(2, 7))
            res = optimal_rule(F, n, mode="level-search")
            fallback = max(reward_by_level(F, n, x) for x in np.linspace(0, 1, 41))
            assert res.evaluation.value >= fallback - 1e-10

    @pytest.mark.parametrize("case", ["criterion_1", "ehsani_100"])
    def test_level_search_is_exact(self, case):
        if case == "criterion_1":
            F, n = DiscreteDistribution.from_atoms(CRITERIA[10]), 10
        else:
            F, n = ehsani_distribution(100), 100
        res = optimal_rule(F, n, mode="level-search")
        best = exact_best_level(F, n)[1]
        theta, p = res.rule.theta, res.rule.p
        level = p * F.cdf_left(theta) + (1.0 - p) * F.cdf(theta)
        assert abs(reward_by_level(F, n, level) - best) <= 1e-12
        # reward_v1 and the oracle both take 1 - level from the tail masses
        assert res.evaluation.value == pytest.approx(best, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,a,b,c", [(3, 0.5, 1.0, 1.0), (200, 0.3, 0.5, 1.0),
                                         (1000, 0.5, 1.0, 1.0), (1000, 0.3, 1.0, 0.5)])
    def test_level_search_beats_dense_scan(self, n, a, b, c):
        # an oracle without polynomial roots: no scanned level, and none
        # within 1e-6 of the returned one, does better; the n = 200 and first
        # n = 1000 cases have their optimum inside a piece, not at a jump level
        F = samuel_cahn_distribution(n, a, b, c)
        res = optimal_rule(F, n, mode="level-search")
        theta, p = res.rule.theta, res.rule.p
        level = p * F.cdf_left(theta) + (1.0 - p) * F.cdf(theta)
        xs = np.concatenate((np.linspace(0.0, 1.0, 2001), 1.0 - np.geomspace(1e-9, 1.0, 2001),
                             F.cumulative, level + np.linspace(-1e-6, 1e-6, 201)))
        scan = reward_by_level(F, n, np.clip(xs, 0.0, 1.0)).max()
        assert reward_by_level(F, n, level) >= scan - 1e-12
        if n == 3:
            assert res.evaluation.value == pytest.approx(
                enumerate_rule_reward(F, n, theta, p), abs=1e-12)

    def test_ehsani_ratio_tends_to_one(self):
        res = optimal_rule(ehsani_distribution(100), 100, mode="level-search")
        assert res.evaluation.ratio > 0.95

    @pytest.mark.parametrize("grid_size", [0, 1, -3, 2.5, 4.0, True, "8"])
    def test_grid_exact_rejects_bad_grid_size(self, grid_size):
        with pytest.raises(ValueError, match="grid size"):
            optimal_rule(COIN, 2, mode="grid-exact", grid_size=grid_size)

    def test_grid_exact_is_one_reward_call(self, monkeypatch):
        import prophet_sharp.reward as reward

        calls = []
        monkeypatch.setattr(reward, "reward_by_level",
                            lambda *args: calls.append(args) or reward_by_level(*args))
        F = random_grid_member(np.random.default_rng(157), 200)
        optimal_rule(F, 10, mode="grid-exact", grid_size=200)
        assert len(calls) == 1 and calls[0][2].shape == (199,)

    def test_grid_exact_requires_grid(self):
        irr = DiscreteDistribution.from_atoms([(0.0, 1 / np.pi), (1.0, 1 - 1 / np.pi)])
        with pytest.raises(ValueError, match="grid size"):
            optimal_rule(irr, 3, mode="grid-exact")
        # this lfd's cumulative probabilities all lie on the coarser 1/175
        # grid, so no size read off the atoms can tell it from N = 700
        with pytest.raises(ValueError, match="grid size"):
            optimal_rule(sharp_regret(25, 700).lfd, 25, mode="grid-exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimal_rule(COIN, 3, mode="bogus")

    def test_outputs_digest(self):
        # (theta, p, value, ratio, regret) bit for bit: level search on the
        # validate workload's laws (perfbench/workloads.mc_configs, seeds
        # 1-3) and on 200 seeded laws with 1-60 atoms and n in 2..40, and
        # grid-exact on two sharp-game lfds
        workloads = load_perfbench("workloads")
        cases = [(DiscreteDistribution(np.array(c["values"]), np.array(c["probs"])), c["n"], {})
                 for seed in (1, 2, 3) for c in workloads.mc_configs(seed)]
        rng = np.random.default_rng(191)
        cases += [(random_dist(rng, max_atoms=60), int(rng.integers(2, 41)), {})
                  for _ in range(200)]
        grid = {"mode": "grid-exact", "grid_size": 250}
        cases += [(solve(10, 125).lfd, 10, grid) for solve in (sharp_ratio, sharp_regret)]
        rows = []
        for F, n, kwargs in cases:
            res = optimal_rule(F, n, **kwargs)
            ev = res.evaluation
            rows.append([x.hex() for x in (res.rule.theta, res.rule.p, ev.value, ev.ratio,
                                           ev.regret)])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "d562c8fbf326b51f0e22857f94c77d99f1f0e6fd471a2f8f13b744f1bdd4ab6d")

    def test_level_search_reads_one_measure(self, monkeypatch):
        # one quantile measure and one set of its running sums per search
        import prophet_sharp.kernel as kernel

        jumps, sums = [], []
        quantile_jumps, weight_sums = DiscreteDistribution.quantile_jumps, kernel.weight_sums

        def spy(*args):
            sums.append(1)
            return weight_sums(*args)

        monkeypatch.setattr(DiscreteDistribution, "quantile_jumps",
                            lambda self: jumps.append(1) or quantile_jumps(self))
        for mod in (kernel, reward):
            monkeypatch.setattr(mod, "weight_sums", spy)
        for F, n in ((FIVE_ATOMS, 7), (COIN, 2), (DiscreteDistribution.point_mass(2.0), 3)):
            del jumps[:], sums[:]
            optimal_rule(F, n)
            assert (len(jumps), len(sums)) == (1, 1)


class TestFloorBounds:
    def test_constant_values(self):
        assert ratio_floor(2) == 0.75
        assert ratio_floor(100) == pytest.approx(0.6340, abs=5e-5)
        # monotone toward 1 - 1/e from above
        assert ratio_floor(10**6) == pytest.approx(1 - 1 / math.e, abs=1e-6)

    def test_rule_mixed_cdf_hits_target(self):
        rng = np.random.default_rng(139)
        for _ in range(100):
            F = random_dist(rng)
            n = int(rng.integers(2, 30))
            rule = floor_rule(F, n)
            assert F.mixed_cdf(rule.theta, rule.p) == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_worked_example(self):
        F = DiscreteDistribution.from_atoms([(0.0, 0.95), (1.0, 0.05)])
        rule = floor_rule(F, 10)
        assert rule.theta == 0.0
        assert rule.p == pytest.approx(1 / 19, abs=1e-15)

    def test_realizable_quantile_gives_p_zero(self):
        # F(U(n)) = 1 - 1/n exactly: the coin at n=2
        rule = floor_rule(COIN, 2)
        assert rule.theta == 0.0 and rule.p == 0.0

    def test_ratio_floor_randomized(self):
        rng = np.random.default_rng(149)
        for _ in range(60):
            F = random_dist(rng)
            n = int(rng.integers(2, 51))
            ev = evaluate_rule(F, n, floor_rule(F, n))
            assert ev.ratio >= ratio_floor(n) - 1e-10

    def test_growth_bound_example(self):
        lhs, rhs = growth_bound_check(COIN, 2, 1)
        assert lhs == 0.75
        assert rhs == pytest.approx(0.625, abs=1e-15)

    def test_growth_bound_point_mass(self):
        lhs, rhs = growth_bound_check(DiscreteDistribution.point_mass(2.0), 4, 3)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_growth_bound_randomized(self):
        rng = np.random.default_rng(151)
        for _ in range(80):
            F = random_dist(rng)
            n = int(rng.integers(1, 11))
            k = int(rng.integers(0, 11))
            lhs, rhs = growth_bound_check(F, n, k)
            assert lhs >= rhs - 1e-12


class TestFixtures:
    def test_samuel_cahn_mean_formula(self):
        # E X_{tau_0(1)} = (ac + b)/n
        assert samuel_cahn_closed_forms(10, 0.5, 2.0, 3.0)[3] == pytest.approx(0.35, abs=1e-15)

    @pytest.mark.parametrize("params", [(10, 0.1, 0.1, math.sqrt(10)), (100, 0.01, 0.01, 10.0),
                                        (12, 0.37, 1.5, 2.25)])
    def test_samuel_cahn_matches_generic(self, params):
        n, a, b, c = params
        F = samuel_cahn_distribution(n, a, b, c)
        m_n, e0, ea, e1 = samuel_cahn_closed_forms(n, a, b, c)
        assert F.expected_max(n) == pytest.approx(m_n, abs=1e-12)
        assert reward_v2(F, n, ThresholdRule(0.0, 0.0)) == pytest.approx(e0, abs=1e-12)
        assert reward_v2(F, n, ThresholdRule(a, 0.0)) == pytest.approx(ea, abs=1e-12)
        assert reward_v2(F, n, ThresholdRule(1.0, 0.0)) == pytest.approx(e1, abs=1e-12)

    def test_samuel_cahn_half_ratio_regime(self):
        n = 10**4
        m_n, e0, ea, e1 = samuel_cahn_closed_forms(n, 1 / n, 1 / n, math.sqrt(n))
        assert 0.45 < max(e0, ea, e1) / m_n < 0.55

    def test_samuel_cahn_rejects_bad_params(self):
        with pytest.raises(ValueError):
            samuel_cahn_closed_forms(10, 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            samuel_cahn_closed_forms(10, 0.5, 6.0, 5.0)

    def test_ehsani_distribution_shape(self):
        F = ehsani_distribution(100)
        assert F.values.size == 2
        assert F.probs[1] == pytest.approx(1e-4, abs=1e-18)
        assert F.values[0] == pytest.approx((math.e - 2) / (math.e - 1), abs=1e-15)


class TestThresholdRule:
    @pytest.mark.parametrize("theta,p,match", [
        (-0.5, 0.0, "theta"), (np.inf, 0.0, "theta"), (0.5, 1.5, "p must")],
        ids=["negative-theta", "inf-theta", "p-above-1"])
    def test_rejects_bad_parameters(self, theta, p, match):
        with pytest.raises(ValueError, match=match):
            ThresholdRule(theta, p)


class TestEvaluation:
    def test_fields_consistent(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            F = random_dist(rng)
            n = int(rng.integers(2, 7))
            theta, p = rule_grid(F)[int(rng.integers(0, len(rule_grid(F))))]
            ev = evaluate_rule(F, n, ThresholdRule(theta, p))
            prophet = F.expected_max(n)
            assert ev.regret == pytest.approx(prophet - ev.value, abs=1e-12)
            if prophet > 0:
                assert ev.ratio == pytest.approx(ev.value / prophet, abs=1e-12)

    def test_prophet_weights_shape(self):
        d = prophet_weights(5, 10)
        assert d.shape == (9,)
        assert np.all(np.diff(d) < 0) and np.all(d > 0)
