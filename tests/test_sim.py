import numpy as np
import pytest

from helpers import random_dist
from prophet_sharp import (
    DiscreteDistribution,
    SimConfig,
    ThresholdRule,
    TrialStream,
    reward_v1,
    run_prophet,
    run_rule,
    sample,
)

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0, seed=1, n=4)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=1, n=1)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=-1, n=4)

    def test_result_json(self):
        res = run_rule(COIN, ThresholdRule(0.0, 0.0), SimConfig(trials=100, seed=3, n=2))
        obj = __import__("json").loads(res.to_json())
        assert set(obj) == {"mean", "std_error", "trials", "seed"}


class TestStreams:
    def test_replay_identical(self):
        a = [TrialStream(123, 5).uniform() for _ in range(10)]
        b = [TrialStream(123, 5).uniform() for _ in range(10)]
        # same stream object advances; fresh objects replay from the start
        s, t = TrialStream(123, 5), TrialStream(123, 5)
        assert [s.uniform() for _ in range(10)] == [t.uniform() for _ in range(10)]
        assert a[0] == b[0]

    def test_streams_distinct_across_trials(self):
        u = {TrialStream(9, t).uniform() for t in range(1000)}
        assert len(u) == 1000

    def test_uniform_range(self):
        s = TrialStream(7, 0)
        draws = [s.uniform() for _ in range(10000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_sample_returns_atoms(self):
        s = TrialStream(11, 0)
        for _ in range(100):
            assert sample(COIN, s) in (0.0, 1.0)

    def test_sample_frequency(self):
        s = TrialStream(13, 0)
        draws = np.array([sample(COIN, s) for _ in range(10**5)])
        # binomial CI: 4 * sqrt(0.25 / trials)
        assert abs(draws.mean() - 0.5) <= 4 * np.sqrt(0.25 / 10**5)


class TestRunRule:
    def test_point_mass_exact(self):
        res = run_rule(DiscreteDistribution.point_mass(2.5), ThresholdRule(1.0, 0.0),
                       SimConfig(trials=2000, seed=0, n=3))
        assert res.mean == 2.5
        assert res.std_error == 0.0

    def test_coin_matches_closed_form(self):
        cfg = SimConfig(trials=10**6, seed=42, n=2)
        res = run_rule(COIN, ThresholdRule(0.0, 0.0), cfg)
        assert abs(res.mean - 0.75) <= 4 * res.std_error

    def test_always_stop_mean(self):
        cfg = SimConfig(trials=10**5, seed=7, n=4)
        res = run_rule(COIN, ThresholdRule(0.0, 1.0), cfg)
        assert abs(res.mean - COIN.mean()) <= 4 * max(res.std_error, 1e-12)

    def test_reproducible_bit_identical(self):
        cfg = SimConfig(trials=5000, seed=987654321, n=6)
        rule = ThresholdRule(0.3, 0.25)
        F = DiscreteDistribution.from_atoms([(0.0, 0.3), (0.3, 0.4), (2.0, 0.3)])
        a, b = run_rule(F, rule, cfg), run_rule(F, rule, cfg)
        assert a == b

    def test_seed_changes_stream(self):
        rule = ThresholdRule(0.0, 0.0)
        a = run_rule(COIN, rule, SimConfig(trials=1000, seed=1, n=3))
        b = run_rule(COIN, rule, SimConfig(trials=1000, seed=2, n=3))
        assert a.mean != b.mean


class TestRunProphet:
    def test_point_mass(self):
        res = run_prophet(DiscreteDistribution.point_mass(1.5), SimConfig(trials=100, seed=5, n=4))
        assert res.mean == 1.5

    def test_coin(self):
        res = run_prophet(COIN, SimConfig(trials=10**6, seed=11, n=2))
        assert abs(res.mean - 0.75) <= 4 * res.std_error

    def test_lfd_prophet_value(self):
        # the reconstructed least-favorable distribution simulates to its
        # closed-form prophet value (heavy-tailed, so the SE is wide)
        from prophet_sharp import sharp_ratio

        lfd = sharp_ratio(10, 500).lfd
        res = run_prophet(lfd, SimConfig(trials=4 * 10**5, seed=99, n=10))
        assert abs(res.mean - lfd.expected_max(10)) <= 4 * res.std_error

    def test_matches_expected_max_randomized(self):
        rng = np.random.default_rng(17)
        misses = 0
        for rep in range(20):
            F = random_dist(rng, max_atoms=5)
            n = int(rng.integers(2, 9))
            cfg = SimConfig(trials=10**5, seed=1000 + rep, n=n)
            res = run_prophet(F, cfg)
            target = F.expected_max(n)
            if abs(res.mean - target) > 4 * max(res.std_error, 1e-12):
                misses += 1
        assert misses <= 1

    def test_rule_vs_closed_form_randomized(self):
        rng = np.random.default_rng(19)
        misses = 0
        for rep in range(20):
            F = random_dist(rng, max_atoms=5)
            n = int(rng.integers(2, 9))
            theta = float(rng.choice(F.values))
            p = float(rng.choice([0.0, 0.5, 1.0]))
            cfg = SimConfig(trials=10**5, seed=2000 + rep, n=n)
            res = run_rule(F, ThresholdRule(theta, p), cfg)
            target = reward_v1(F, n, ThresholdRule(theta, p))
            if abs(res.mean - target) > 4 * max(res.std_error, 1e-12):
                misses += 1
        assert misses <= 1
