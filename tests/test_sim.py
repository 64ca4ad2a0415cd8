import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import load_perfbench, random_dist
from prophet_sharp import sim
from prophet_sharp import (
    DiscreteDistribution,
    SimConfig,
    ThresholdRule,
    reward_v1,
    run_prophet,
    run_rule,
)

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
THREE = DiscreteDistribution.from_atoms([(0.0, 0.3), (0.3, 0.4), (2.0, 0.3)])
FIVE = DiscreteDistribution.from_atoms(
    [(0.1, 0.15), (0.4, 0.25), (0.9, 0.2), (1.7, 0.3), (3.2, 0.1)])


GOLDEN = 0x9E3779B97F4A7C15
workloads = load_perfbench("workloads")


def mix(z):
    """splitmix64's finalizer on a Python integer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def draw(seed, trial, k):
    """Uniform draw k of a trial's stream, by the formula of sim's docstring
    in Python integers: state mix(mix(seed + golden) ^ mix((trial + 1) *
    golden)), draw mix(state + (k + 1) * golden) >> 11 over 2**53."""
    state = mix(mix((seed + GOLDEN) % 2**64) ^ mix((trial + 1) * GOLDEN % 2**64))
    return (mix((state + (k + 1) * GOLDEN) % 2**64) >> 11) / 2**53


def walk_rule(dist, rule, cfg):
    """Reference: walk each trial in turn; observation t is the inverse-CDF
    atom of draw t of the trial's stream and the coin of step t its draw n + t.
    Returns each trial's reward."""
    rewards = []
    for trial in range(cfg.trials):
        for t in range(cfg.n):
            x, coin = dist.quantile(draw(cfg.seed, trial, t)), draw(cfg.seed, trial, cfg.n + t)
            if x > rule.theta or (x == rule.theta and coin < rule.p):
                break
        rewards.append(x)
    return rewards


def walk_prophet(dist, cfg):
    return [max(dist.quantile(draw(cfg.seed, trial, k)) for k in range(cfg.n))
            for trial in range(cfg.trials)]


def summarize(dist, rewards, cfg):
    """The SimResult of per-trial rewards, each an atom of dist, through the
    simulator's own counts-to-summary step."""
    counts = np.bincount(np.searchsorted(dist.values, rewards), minlength=dist.values.size)
    return sim._summary(dist.values, counts, cfg)


def sim_draws(seed, trial, k):
    """Draws 0, ..., k - 1 of one trial's stream as sim makes them."""
    states = sim._stream_states(seed, trial, trial + 1)
    return np.concatenate([sim._words(states, j) >> 11 for j in range(k)]) / 2**53


def word_counts(words, cuts):
    """Words per atom from _counts_le, for word cut points cuts."""
    return np.diff(sim._counts_le(words, cuts), prepend=0, append=words.size)


def atom_counts(b, cuts):
    """Draws per atom, bincount(searchsorted(cuts, b)), of 53-bit draws b and
    cut points cuts, from _counts_le on words: each b as the least and the
    greatest word with top bits b, each cut c as the word cut
    min(c, 2**53 - 1) * 2**11 + 2047, both of which must count alike."""
    words = np.asarray(b, dtype=np.uint64) << np.uint64(11)
    cuts = np.minimum(cuts, 2**53 - 1).astype(np.uint64) << np.uint64(11) | np.uint64(2047)
    least, greatest = word_counts(words.copy(), cuts), word_counts(words | np.uint64(2047), cuts)
    assert np.array_equal(least, greatest)
    return least


def both_counting_branches(monkeypatch):
    """Run the loop body once per branch of _counts_le: with _SORT_CUTS 0
    every count sorts the draws, with 10**9 every count compares."""
    for sort_cuts in (0, 10**9):
        monkeypatch.setattr(sim, "_SORT_CUTS", sort_cuts)
        yield sort_cuts


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0, seed=1, n=4)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=1, n=1)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=-1, n=4)

    def test_horizon_bound(self):
        # the coin's draw positions n + t must fit in 64 bits
        SimConfig(trials=1, seed=1, n=2**63)
        with pytest.raises(ValueError):
            SimConfig(trials=1, seed=1, n=2**63 + 1)
        with pytest.raises(ValueError):
            SimConfig(trials=1, seed=1, n=10**20)

    @pytest.mark.parametrize("field", ["trials", "seed", "n"])
    def test_rejects_bools(self, field):
        kwargs = {"trials": 10, "seed": 1, "n": 4, field: True}
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_draws_at_top_positions(self):
        # a horizon of 2**63 puts coins at positions up to 2**64 - 2; the
        # offsets wrap mod 2**64 exactly as in Python integer arithmetic
        states = sim._stream_states(8, 0, 3)
        for k in (0, 1, 2**63, 2**64 - 2):
            want = [mix((int(s) + (k + 1) * GOLDEN) % 2**64) >> 11 for s in states]
            assert (sim._words(states, k) >> 11).tolist() == want, k

    @pytest.mark.parametrize("lo,hi", [
        (0, 1), (0, 2 * 10**4), (0, sim._CHUNK), (sim._CHUNK, sim._CHUNK + 7), (5, 9)])
    @pytest.mark.parametrize("seed", [0, 8, 2**64 - 1])
    def test_stream_states_formula(self, seed, lo, hi):
        # the first chunk's seed-free half comes from a cache, the others'
        # (a chunk that starts past trial 0, or runs past _CHUNK) are computed
        key = mix((seed + GOLDEN) % 2**64)
        want = [mix(key ^ mix((t + 1) * GOLDEN % 2**64)) for t in range(lo, hi)]
        assert sim._stream_states(seed, lo, hi).tolist() == want

    def test_result_json(self):
        res = run_rule(COIN, ThresholdRule(0.0, 0.0), SimConfig(trials=100, seed=3, n=2))
        obj = json.loads(json.dumps(res.as_dict()))
        assert set(obj) == {"mean", "std_error", "trials", "seed"}


class TestStreams:
    def test_streams_distinct_across_trials(self):
        u = set((sim._words(sim._stream_states(9, 0, 1000), 0) >> 11).tolist())
        assert len(u) == 1000

    def test_uniform_range(self):
        u = sim_draws(7, 0, 10000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(np.mean(u) - 0.5) < 0.02

    @pytest.mark.parametrize("seed,trial,draws", [
        (0, 0, ["0x1.c4415072f63b9p-1", "0x1.b9e279aa86e58p-2", "0x1.b117462002500p-6"]),
        (123, 5, ["0x1.bccd7d75a683fp-1", "0x1.5dc8f096df7ebp-1", "0x1.483640d943d30p-3"]),
        (2**64 - 1, 10**6,
         ["0x1.6ac806d81c125p-1", "0x1.14c5ae4443300p-5", "0x1.e9b088b5337d4p-3"]),
    ])
    def test_pinned_draws(self, seed, trial, draws):
        want = [float.fromhex(d) for d in draws]
        assert sim_draws(seed, trial, len(draws)).tolist() == want
        assert [draw(seed, trial, k) for k in range(len(draws))] == want


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
        a, b = run_rule(THREE, rule, cfg), run_rule(THREE, rule, cfg)
        assert a == b

    @pytest.mark.parametrize("theta,p", [(0.3, 0.0), (0.3, 0.25), (0.3, 1.0), (0.5, 0.25)])
    def test_matches_sequential_walk(self, theta, p):
        cfg = SimConfig(trials=300, seed=31, n=6)
        rule = ThresholdRule(theta, p)
        assert run_rule(THREE, rule, cfg) == summarize(THREE, walk_rule(THREE, rule, cfg), cfg)

    def test_chunk_size_invariant(self, monkeypatch):
        cfg = SimConfig(trials=1000, seed=5, n=5)
        rule = ThresholdRule(0.3, 0.25)
        a, b = run_rule(THREE, rule, cfg), run_prophet(THREE, cfg)
        monkeypatch.setattr(sim, "_CHUNK", 7)
        assert run_rule(THREE, rule, cfg) == a
        assert run_prophet(THREE, cfg) == b

    def test_chunk_size_invariant_cold_cache(self, monkeypatch):
        # a head cached while the chunk is small serves only the trials it holds
        cfg = SimConfig(trials=1000, seed=5, n=5)
        rule = ThresholdRule(0.3, 0.25)
        a = run_rule(THREE, rule, cfg)
        monkeypatch.setattr(sim, "_CHUNK", 7)
        sim._counter_head.cache_clear()
        try:
            assert run_rule(THREE, rule, cfg) == a
            monkeypatch.undo()
            assert run_rule(THREE, rule, cfg) == a
        finally:
            sim._counter_head.cache_clear()

    def test_chunk_size_invariant_all_stop_at_once(self, monkeypatch):
        # theta below every atom: each trial stops at step 0 and the step
        # loop is left before its second step
        cfg = SimConfig(trials=1000, seed=5, n=5)
        rule = ThresholdRule(0.05, 0.25)
        a = run_rule(FIVE, rule, cfg)
        monkeypatch.setattr(sim, "_CHUNK", 7)
        assert run_rule(FIVE, rule, cfg) == a
        assert a == summarize(FIVE, walk_rule(FIVE, rule, cfg), cfg)

    def test_rule_never_beats_prophet(self):
        # each trial's rule reward is one of its prophet's draws
        rng = np.random.default_rng(23)
        for rep in range(20):
            F = random_dist(rng, max_atoms=5)
            theta = float(rng.choice(F.values)) + float(rng.choice([0.0, 0.1]))
            rule = ThresholdRule(theta, float(rng.choice([0.0, 0.5, 1.0])))
            cfg = SimConfig(trials=2000, seed=3000 + rep, n=int(rng.integers(2, 9)))
            assert run_rule(F, rule, cfg).mean <= run_prophet(F, cfg).mean

    def test_memory_bounded(self):
        cfg = SimConfig(trials=10**6, seed=1, n=10)
        tracemalloc.start()
        try:
            run_rule(THREE, ThresholdRule(0.3, 0.25), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

    @pytest.mark.parametrize("run", [
        lambda cfg: run_rule(THREE, ThresholdRule(0.3, 0.25), cfg),
        lambda cfg: run_prophet(THREE, cfg),
    ], ids=["rule", "prophet"])
    def test_memory_flat_in_trials(self, run):
        # each chunk's atoms are counted and dropped: no per-trial array
        def peak(trials):
            tracemalloc.start()
            try:
                run(SimConfig(trials=trials, seed=1, n=10))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(SimConfig(trials=1, seed=1, n=10))  # the cached _counter_head
        assert peak(16 * sim._CHUNK) <= 1.5 * peak(2 * sim._CHUNK)

    @pytest.mark.parametrize("trials", [2, 2 * 10**4, 70000])
    @pytest.mark.parametrize("atom", [1.4623115577889447, 0.1, 1e-300, 3.0])
    def test_point_mass_returns_its_atom(self, atom, trials):
        F = DiscreteDistribution.point_mass(atom)
        cfg = SimConfig(trials=trials, seed=7, n=4)
        for res in (run_rule(F, ThresholdRule(atom, 0.5), cfg), run_prophet(F, cfg)):
            assert res.mean == atom
            assert res.std_error == 0.0

    def test_seed_changes_stream(self):
        rule = ThresholdRule(0.0, 0.0)
        a = run_rule(COIN, rule, SimConfig(trials=1000, seed=1, n=3))
        b = run_rule(COIN, rule, SimConfig(trials=1000, seed=2, n=3))
        assert a.mean != b.mean


class TestRunProphet:
    def test_point_mass(self):
        res = run_prophet(DiscreteDistribution.point_mass(1.5), SimConfig(trials=100, seed=5, n=4))
        assert res.mean == 1.5

    def test_matches_sequential_walk(self):
        cfg = SimConfig(trials=300, seed=31, n=6)
        assert run_prophet(THREE, cfg) == summarize(THREE, walk_prophet(THREE, cfg), cfg)

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


class TestIntegerDraws:
    """The loops work on the 64-bit words w, whose uniform is b * 2**-53 with
    b = w >> 11, the 53-bit draw integer."""

    @pytest.mark.parametrize("dist", [
        DiscreteDistribution(np.arange(10.0), np.full(10, 0.1)),  # cumsum ends at 1 - 2**-53
        DiscreteDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.5 - 4e-13])),
    ])
    def test_cut_points_match_quantile(self, monkeypatch, dist):
        assert dist.cumulative[-1] < 1.0  # the last atom also takes the missing mass
        cuts = sim._cuts(dist)
        for branch in both_counting_branches(monkeypatch):
            for b in sorted({0, 2**53 - 1} | {(int(c) >> 11) + d for c in cuts for d in (0, 1)}):
                # the least and the greatest word with top bits b
                counts = word_counts(np.array([b << 11, b << 11 | 2047], dtype=np.uint64), cuts)
                assert counts.max() == 2
                assert dist.values[np.argmax(counts)] == dist.quantile(b * 2.0**-53), (branch, b)

    @pytest.mark.parametrize("k", [0, 1, 4, 40, 10**4])
    @pytest.mark.parametrize("layout", ["uniform", "near top", "duplicates"])
    def test_atom_index_matches_searchsorted(self, monkeypatch, k, layout):
        rng = np.random.default_rng(k)
        if layout == "uniform":
            cuts = rng.integers(0, 2**53, k)
        elif layout == "near top":  # heavy first atoms: every cut within 2**40 of 2**53
            cuts = 2**53 - rng.integers(0, 2**40, k)
        else:  # atoms lighter than 2**-53 share their cut point
            cuts = rng.choice(rng.integers(0, 2**53, max(k // 3, 1)), k)
        cuts = np.sort(cuts).astype(np.int64)
        bs = np.concatenate(([0, 2**53 - 1], cuts - 1, cuts, cuts + 1,
                             rng.integers(0, 2**53, 1000)))
        bs = bs[(bs >= 0) & (bs < 2**53)]
        want = np.bincount(np.searchsorted(cuts, bs), minlength=cuts.size + 1)
        for branch in both_counting_branches(monkeypatch):
            assert np.array_equal(atom_counts(rng.permutation(bs), cuts), want), branch

    @pytest.mark.parametrize("k", [1, 4, 40])
    def test_atom_index_cuts_at_top(self, monkeypatch, k):
        # probabilities may sum to 1 + 1e-12: cumulative[:-1] then reaches 1,
        # and cut points reach 2**53 or above it
        rng = np.random.default_rng(k)
        top = 2**53 + rng.integers(0, 2**14, k)
        cuts = np.sort(np.concatenate((rng.integers(0, 2**53, k), [2**53], top))).astype(np.int64)
        bs = np.concatenate(([0, 2**53 - 1], cuts[cuts < 2**53] - 1, rng.integers(0, 2**53, 1000)))
        bs = bs[bs >= 0]
        want = np.bincount(np.searchsorted(cuts, bs), minlength=cuts.size + 1)
        for branch in both_counting_branches(monkeypatch):
            assert np.array_equal(atom_counts(rng.permutation(bs), cuts), want), branch

    def test_cumulative_reaches_one_before_last_atom(self):
        F = DiscreteDistribution(np.array([1.0, 2.0]), np.array([1.0, 1e-13]))
        assert sim._cuts(F)[0] == 2**64 - 1  # takes every word
        cfg = SimConfig(trials=200, seed=3, n=4)
        assert run_prophet(F, cfg) == summarize(F, walk_prophet(F, cfg), cfg)
        for rule in (ThresholdRule(1.0, 0.5), ThresholdRule(0.5, 0.0)):
            res = run_rule(F, rule, cfg)
            assert res == summarize(F, walk_rule(F, rule, cfg), cfg)
            assert (res.mean, res.std_error) == (1.0, 0.0)

    @pytest.mark.parametrize("p", [1e-17, 0.1, 0.25, 1 / 3, 0.5, 1 - 2.0**-53])
    def test_coin_edge(self, p):
        coin = int(np.ceil(p * 2**53))
        for b in (coin - 1, coin):
            if 0 <= b < 2**53:
                assert (b < coin) == (b * 2.0**-53 < p), b

    def test_matches_sequential_walk_randomized(self, monkeypatch):
        # each count through both branches of _counts_le
        rng = np.random.default_rng(41)
        for rep in range(5):
            F = random_dist(rng, max_atoms=40)
            F = DiscreteDistribution(F.values + 0.5, F.probs)  # room below the atoms
            v = F.values
            between = 0.5 * (v[0] + v[1]) if v.size > 1 else 0.25
            cfg = SimConfig(trials=60, seed=5000 + rep, n=int(rng.integers(2, 7)))
            want = summarize(F, walk_prophet(F, cfg), cfg)
            for branch in both_counting_branches(monkeypatch):
                assert run_prophet(F, cfg) == want, (rep, branch)
            for theta in (0.25, between, float(rng.choice(v)), v[-1] + 1.0):
                for p in (0.0, 1e-17, 0.5, 1 - 2.0**-53, 1.0):
                    rule = ThresholdRule(float(theta), p)
                    want = summarize(F, walk_rule(F, rule, cfg), cfg)
                    for branch in both_counting_branches(monkeypatch):
                        assert run_rule(F, rule, cfg) == want, (rep, theta, p, branch)

    def test_matches_sequential_walk_many_atoms(self, monkeypatch):
        # 3000 atoms, about a third of them with mass near 2**-53 (so that
        # neighbours share a cut point), and a heavy atom at theta to tie on
        rng = np.random.default_rng(43)
        probs = rng.dirichlet(np.ones(3000))
        probs[rng.random(3000) < 0.3] *= 1e-12
        probs[1500] = 0.2
        F = DiscreteDistribution(np.sort(rng.random(3000)) + 0.5, probs / probs.sum())
        assert np.any(np.diff(sim._cuts(F)) == 0)
        cfg = SimConfig(trials=200, seed=6000, n=5)
        wants = [summarize(F, walk_prophet(F, cfg), cfg)]
        rules = [ThresholdRule(float(F.values[1500]), p) for p in (0.0, 0.5, 1.0)]
        wants += [summarize(F, walk_rule(F, rule, cfg), cfg) for rule in rules]
        for branch in both_counting_branches(monkeypatch):
            assert run_prophet(F, cfg) == wants[0], branch
            for rule, want in zip(rules, wants[1:]):
                assert run_rule(F, rule, cfg) == want, (rule.p, branch)

    @pytest.mark.parametrize("dist,theta,p,seed,n,rule_hex,prophet_hex", [
        (THREE, 0.3, 0.25, 11, 2, ("0x1.104ed498171ffp+0", "0x1.c14c83cb94d0ep-9"),
         ("0x1.244494287dec4p+0", "0x1.b49d96708e404p-9")),
        (FIVE, 0.9, 0.25, 12, 30, ("0x1.f225a8e8473f4p+0", "0x1.61f35a9318e78p-9"),
         ("0x1.916298b8e7b77p+1", "0x1.2cc5f53d188acp-10")),
        (FIVE, 1.0, 0.0, 13, 30, ("0x1.09a63d34b8abdp+1", "0x1.41e34ea568893p-9"),
         ("0x1.91a54d880bb3fp+1", "0x1.282ca3e803063p-10")),
        (THREE, 0.3, 1.0, 14, 2, ("0x1.e1d6bc588539ap-1", "0x1.a7db71b1276c6p-9"),
         ("0x1.24c5376fba284p+0", "0x1.b44c601efbcdep-9")),
    ])
    def test_pinned_results(self, dist, theta, p, seed, n, rule_hex, prophet_hex):
        # (mean, std_error) of the draws of the float-uniform simulator these
        # loops replaced, summarized from their atom counts; 70000 trials
        # span two chunks
        cfg = SimConfig(trials=70000, seed=seed, n=n)
        rule = run_rule(dist, ThresholdRule(theta, p), cfg)
        prophet = run_prophet(dist, cfg)
        assert (rule.mean.hex(), rule.std_error.hex()) == rule_hex
        assert (prophet.mean.hex(), prophet.std_error.hex()) == prophet_hex


#: probabilities summing to 1 + 6e-13: the inner cumulative reaches 1
SATURATED = DiscreteDistribution(np.array([0.5, 1.0, 2.0]), np.array([0.4, 0.6 + 5e-13, 1e-13]))


class TestWordEdges:
    """Edge cases of the word cut points and thresholds, each through both
    branches of _counts_le, against the walks."""

    @pytest.mark.parametrize("dist,theta,p", [
        (FIVE, 0.0, 0.5), (FIVE, 0.05, 0.0), (FIVE, 0.05, 1.0),  # below every atom
        (FIVE, 3.2, 0.0), (FIVE, 3.2, 0.5), (FIVE, 3.2, 1.0),  # at the top atom
        (THREE, 2.0, 0.0), (THREE, 2.0, 0.5), (THREE, 2.0, 1.0),
        (FIVE, 4.0, 0.5), (THREE, 2.5, 1.0),  # above the top atom
        (FIVE, 0.9, 1 - 2.0**-53), (THREE, 0.0, 1 - 2.0**-53),  # coin 2**53 - 1
        (THREE, 0.0, 0.5),  # ties at the lowest atom: no word lies below the band
        (SATURATED, 0.0, 0.5), (SATURATED, 0.5, 0.5), (SATURATED, 1.0, 0.0),
        (SATURATED, 1.0, 0.5), (SATURATED, 1.0, 1.0), (SATURATED, 2.0, 0.5),
    ])
    @pytest.mark.parametrize("n", [2, 5])
    def test_rule_matches_walk(self, monkeypatch, dist, theta, p, n):
        rule, cfg = ThresholdRule(theta, p), SimConfig(trials=200, seed=29, n=n)
        want = summarize(dist, walk_rule(dist, rule, cfg), cfg)
        for branch in both_counting_branches(monkeypatch):
            assert run_rule(dist, rule, cfg) == want, branch

    @pytest.mark.parametrize("dist", [THREE, FIVE, SATURATED])
    def test_prophet_matches_walk(self, monkeypatch, dist):
        cfg = SimConfig(trials=200, seed=31, n=5)
        want = summarize(dist, walk_prophet(dist, cfg), cfg)
        for branch in both_counting_branches(monkeypatch):
            assert run_prophet(dist, cfg) == want, branch

    def test_saturated_cuts_take_every_word(self):
        cuts = sim._cuts(SATURATED)
        assert cuts.dtype == np.uint64 and cuts[1] == 2**64 - 1 and cuts[0] < 2**64 - 1
        assert int(cuts[0]) % 2**11 == 2047  # the greatest word of its top bits


def spy_positions(monkeypatch):
    """Record the position k of every draw sim makes: each goes through
    _words."""
    seen, words = [], sim._words

    def spy(states, k, *args):
        seen.append(k)
        return words(states, k, *args)

    monkeypatch.setattr(sim, "_words", spy)
    return seen


#: rules that no observation before the last can stop: theta at or above
#: the top atom, ties going on
UNDECIDED = [
    (THREE, ThresholdRule(2.0, 0.0)),
    (THREE, ThresholdRule(2.5, 0.5)),
    (FIVE, ThresholdRule(3.2, 0.0)),
    (FIVE, ThresholdRule(4.0, 1.0)),
    # the cumulative reaches 1 before the top atom: the first cut takes every word
    (DiscreteDistribution(np.array([1.0, 2.0]), np.array([1.0, 1e-13])), ThresholdRule(1.0, 0.0)),
]


class TestDecidedTrials:
    """Draws that cannot change a trial's atom are not made: none for a
    one-atom law, none before the last for a rule that cannot stop early.
    Draw k of trial t depends on (seed, t, k) alone, so the results equal
    the walks that make every draw."""

    @pytest.mark.parametrize("trials", [1, 200])
    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("atom", [1e-300, 0.1, 3.0])
    def test_one_atom_law_matches_walk(self, atom, n, trials):
        F = DiscreteDistribution.point_mass(atom)
        cfg = SimConfig(trials=trials, seed=17, n=n)
        assert run_prophet(F, cfg) == summarize(F, walk_prophet(F, cfg), cfg)
        for theta in (0.0, atom, 2 * atom):
            for p in (0.0, 0.5, 1.0):
                rule = ThresholdRule(theta, p)
                assert run_rule(F, rule, cfg) == summarize(F, walk_rule(F, rule, cfg), cfg)

    @pytest.mark.parametrize("trials", [1, 200])
    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("dist,rule", UNDECIDED)
    def test_undecided_rule_matches_walk(self, dist, rule, n, trials):
        cfg = SimConfig(trials=trials, seed=19, n=n)
        assert run_rule(dist, rule, cfg) == summarize(dist, walk_rule(dist, rule, cfg), cfg)

    def test_one_atom_law_draws_nothing(self, monkeypatch):
        seen = spy_positions(monkeypatch)
        F, cfg = DiscreteDistribution.point_mass(0.1), SimConfig(trials=200, seed=3, n=5)
        run_prophet(F, cfg)
        for p in (0.0, 0.5, 1.0):
            run_rule(F, ThresholdRule(0.1, p), cfg)
        assert seen == []

    @pytest.mark.parametrize("dist,rule", UNDECIDED)
    def test_undecided_rule_draws_only_the_last(self, monkeypatch, dist, rule):
        seen = spy_positions(monkeypatch)
        run_rule(dist, rule, SimConfig(trials=200, seed=3, n=5))
        assert seen == [4]

    @pytest.mark.parametrize("rule", [
        ThresholdRule(0.3, 0.0), ThresholdRule(2.0, 0.5), ThresholdRule(2.0, 1.0)])
    def test_rule_that_can_stop_draws_from_the_first(self, monkeypatch, rule):
        # theta at the top atom still stops on a tie when p > 0
        seen = spy_positions(monkeypatch)
        run_rule(THREE, rule, SimConfig(trials=200, seed=3, n=5))
        assert seen[0] == 0 and len(seen) > 1

    def test_undecided_rule_long_horizon(self, monkeypatch):
        # one draw per trial at position n - 1, not a loop over n - 1 steps
        cfg = SimConfig(trials=200, seed=23, n=2**40)
        rule = ThresholdRule(2.0, 0.0)
        want = summarize(THREE, [THREE.quantile(draw(23, t, 2**40 - 1)) for t in range(200)], cfg)
        seen = spy_positions(monkeypatch)
        assert run_rule(THREE, rule, cfg) == want
        assert seen == [2**40 - 1]

    def test_one_atom_law_many_trials(self):
        # no chunk is simulated: the count is the trial count
        F, cfg = DiscreteDistribution.point_mass(1.25), SimConfig(trials=10**12, seed=1, n=9)
        for res in (run_rule(F, ThresholdRule(1.25, 0.5), cfg), run_prophet(F, cfg)):
            assert (res.mean, res.std_error, res.trials) == (1.25, 0.0, 10**12)


def spy_words(monkeypatch):
    """Record the number of words of every draw sim makes, as spy_positions
    records their positions."""
    seen, words = [], sim._words

    def spy(states, k, *args):
        seen.append(states.size)
        return words(states, k, *args)

    monkeypatch.setattr(sim, "_words", spy)
    return seen


def validate_case(c):
    """The law, rule and config of one of the validate workload's
    simulations (perfbench/workloads.mc_configs)."""
    dist = DiscreteDistribution(np.array(c["values"]), np.array(c["probs"]))
    cfg = SimConfig(trials=workloads.MC_TRIALS, seed=c["sim_seed"], n=c["n"])
    return dist, ThresholdRule(c["theta"], c["p"]), cfg


class TestValidateWorkload:
    """The benchmark's validate simulations, pinned bit for bit: how the
    atoms are counted may change, what is drawn and every summary may not."""

    @pytest.mark.parametrize("seed,digest", [
        (1, "59b367abb2166ef89f847ae21f07d404942fba1750c86a121bcc1a7f7c5a30ec"),
        (2, "0e0d7bccd5f87567f316f355b338ac3abaf1af9a693a1e2e94d8f4005f5ece24"),
        (3, "2b99e8f434ceb0d6eb7ed9c3ac1274bee31278d0f25451b8248eb8559d9813f9"),
    ])
    def test_summaries_digest(self, seed, digest):
        rows = []
        for c in workloads.mc_configs(seed):
            dist, rule, cfg = validate_case(c)
            r, p = run_rule(dist, rule, cfg), run_prophet(dist, cfg)
            rows.append([r.mean.hex(), r.std_error.hex(), p.mean.hex(), p.std_error.hex()])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("index,rule_words,prophet_words", [
        (9, 60892, 80000),  # theta at an inner atom of five, p = 1/2: ties
        (1, 52747, 60000),  # theta at the lower of two atoms, p = 1/2
        (19, 20000, 140000),  # theta at the top atom, p = 0: no early stop
    ])
    def test_words_drawn(self, monkeypatch, index, rule_words, prophet_words):
        # seed 1's configurations: how the atoms are counted must not change
        # which words are drawn
        dist, rule, cfg = validate_case(workloads.mc_configs(1)[index])
        seen = spy_words(monkeypatch)
        run_rule(dist, rule, cfg)
        assert sum(seen) == rule_words
        seen.clear()
        run_prophet(dist, cfg)
        assert sum(seen) == prophet_words == cfg.n * cfg.trials


class TestSummary:
    def test_matches_exact_fractions(self):
        # mean and standard error of the counts against exact rational sums;
        # pairwise summation of k positive terms, each rounded twice, keeps
        # the relative error within (bit_length(k) + 2) * 2**-53
        rng = np.random.default_rng(17)
        for rep in range(60):
            F = random_dist(rng, max_atoms=40)
            trials = int(rng.choice([2, 3, 60, 70000, 10**7]))
            counts = rng.multinomial(trials, F.probs / F.probs.sum())
            res = sim._summary(F.values, counts, SimConfig(trials=trials, seed=1, n=2))
            xs = [Fraction(float(x)) for x in F.values]
            mean = sum(int(c) * x for c, x in zip(counts, xs)) / trials
            var = sum(int(c) * (x - mean) ** 2 for c, x in zip(counts, xs)) / (trials - 1) / trials
            bound = Fraction(int(np.count_nonzero(counts)).bit_length() + 2, 2**53)
            assert abs(Fraction(res.mean) - mean) <= bound * abs(mean), rep
            assert abs(Fraction(res.std_error) ** 2 - var) <= ((1 + bound) ** 2 - 1) * var, rep
            assert (res.std_error == 0.0) == (var == 0)
