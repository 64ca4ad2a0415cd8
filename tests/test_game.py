import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cold_sharp,
    game_lp,
    limit_regret_matrix,
    oracle_maxmin,
    oracle_minmax,
    random_grid_member,
)
from prophet_sharp import game
from prophet_sharp import (
    DiscreteDistribution,
    Generator,
    KernelKind,
    SolverError,
    ratio_floor,
    err_bound_diff,
    optimal_rule,
    payoff_matrix,
    reward_by_level,
    sharp_ratio,
    sharp_regret,
    solve_game,
    support_cutoff,
    verify_solution,
)
from prophet_sharp.reward import samuel_cahn_distribution


class TestSolveGame:
    def test_single_entry(self):
        sol = solve_game(np.array([[0.7]]), "minmax")
        assert sol.value == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(sol.lam, [1.0])
        np.testing.assert_allclose(sol.mu, [1.0])

    def test_matching_pennies(self):
        sol = solve_game(np.array([[0.0, 1.0], [1.0, 0.0]]), "maxmin")
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.mu, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(sol.lam, [0.5, 0.5], atol=1e-10)

    @pytest.mark.parametrize("sense,oracle", [("minmax", oracle_minmax), ("maxmin", oracle_maxmin)])
    def test_small_games_match_enumeration(self, sense, oracle):
        rng = np.random.default_rng(42 if sense == "minmax" else 43)
        for size in (3, 4):
            for _ in range(25):
                M = rng.random((size, size))
                sol = solve_game(M, sense)
                assert sol.value == pytest.approx(oracle(M), abs=1e-9)

    def test_ratio_matrix_small_vs_oracle(self):
        M = payoff_matrix(KernelKind.RATIO, 2, 4)
        sol = solve_game(M, "minmax")
        assert sol.value == pytest.approx(oracle_minmax(M), abs=1e-9)

    def test_certificate_replay(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            M = rng.random((int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            for sense in ("minmax", "maxmin"):
                sol = solve_game(M, sense)
                assert abs(sol.mu.sum() - 1.0) < 1e-10
                assert abs(sol.lam.sum() - 1.0) < 1e-10
                assert sol.mu.min() >= 0.0 and sol.lam.min() >= 0.0
                rowp, colp = M @ sol.mu, M.T @ sol.lam
                if sense == "minmax":
                    assert rowp.max() - sol.value <= sol.gap + 1e-15
                    assert sol.value - colp.min() <= sol.gap + 1e-15
                else:
                    assert sol.value - rowp.min() <= sol.gap + 1e-15
                    assert colp.max() - sol.value <= sol.gap + 1e-15

    def test_deterministic(self):
        M = payoff_matrix(KernelKind.RATIO, 5, 60)
        a = solve_game(M, "minmax")
        b = solve_game(M, "minmax")
        assert a.value == b.value
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_game(np.array([[1.0]]), "sideways")
        with pytest.raises(ValueError):
            solve_game(np.array([[1.0]]), "minmax", tol=0.0)
        for M in (np.ones(3), np.ones((0, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="nonempty 2-D"):
                solve_game(M, "minmax")

    def test_nested_list_payoff(self):
        sol = solve_game([[0.0, 1.0], [1.0, 0.0]], "maxmin")
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.mu, [0.5, 0.5], atol=1e-10)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            M = np.array([[0.2, 0.7], [0.9, bad]])
            for sense in ("minmax", "maxmin"):
                with pytest.raises(ValueError, match="finite"):
                    solve_game(M, sense)

    def test_nan_gap_raises(self):
        # a NaN replay makes gap > tol False; the driver must still refuse it
        with pytest.raises(SolverError):
            game._matrix_game(lambda rows, cols: np.zeros((len(rows), len(cols))),
                              lambda mu: np.full(2, np.nan), lambda lam: np.zeros(2),
                              (2, 2), [0], [0], 1e-7)

    def test_round_cap_raises(self, monkeypatch):
        # a random 20 x 20 game with full support needs more than 3 rounds
        monkeypatch.setattr(game, "MAX_ROUNDS", 3)
        with pytest.raises(SolverError, match="3 rounds"):
            solve_game(np.random.default_rng(5).random((20, 20)), "minmax")

    def test_unknown_status_raises(self, monkeypatch):
        # a restricted game that does not settle within the pivot cap
        monkeypatch.setattr(game, "PIVOTS_PER_LINE", 0)
        with pytest.raises(SolverError, match="simplex stopped after 0 pivots"):
            solve_game(np.random.default_rng(5).random((4, 3)), "minmax")

    def test_zero_duals_raise(self, monkeypatch):
        simplex = game._simplex

        def zero_duals(M):
            alpha, lam, pivots = simplex(M)
            return alpha, np.zeros_like(lam), pivots

        monkeypatch.setattr(game, "_simplex", zero_duals)
        with pytest.raises(SolverError, match="degenerate dual"):
            solve_game(np.random.default_rng(5).random((4, 3)), "minmax")

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(11)
        games = [rng.random((int(rng.integers(1, 41)), int(rng.integers(1, 41))))
                 for _ in range(40)]
        games += [payoff_matrix(kind, n, N) for kind in ("ratio", "difference")
                  for n, N in ((6, 100), (10, 200))]
        games.append(limit_regret_matrix(200))
        for M in games:
            for sense in ("minmax", "maxmin"):
                sol = solve_game(M, sense)
                value, gap = game_lp(M, sense)
                assert abs(sol.value - value) <= sol.gap + gap + 1e-12

    def test_saddle_consistency(self):
        sol = solve_game(payoff_matrix(KernelKind.RATIO, 6, 100), "minmax")
        M = payoff_matrix(KernelKind.RATIO, 6, 100)
        assert (M @ sol.mu).max() - (M.T @ sol.lam).min() <= 2 * sol.gap + 1e-12


@st.composite
def simplex_blocks(draw):
    """A restricted game's block of up to 25 x 25: random entries (some
    integer, for ties), a constant block, a random block with duplicated rows
    and columns, or a block of an n = 2 sharp game (negated for the regret)."""
    shape = st.integers(1, 25)
    kind = draw(st.sampled_from(["random", "integer", "constant", "duplicated", "sharp"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sharp":
        N = draw(st.sampled_from([3, 10, 60, 700, 2000, 200000]))
        levels = st.lists(st.integers(0, N - 2), min_size=1, max_size=25, unique=True)
        ratio = draw(st.booleans())
        block = Generator(2, N).block(KernelKind.RATIO if ratio else KernelKind.DIFFERENCE,
                                      draw(levels), draw(levels))
        return block if ratio else -block
    rows, cols = draw(shape), draw(shape)
    if kind == "constant":
        return np.full((rows, cols), draw(st.floats(-1e3, 1e3)))
    if kind == "integer":
        return rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    M = draw(st.floats(-1e3, 1e3)) + draw(st.floats(1e-6, 1e3)) * rng.random((rows, cols))
    if kind == "duplicated":
        M = M[np.ix_(rng.integers(0, rows, 2 * rows), rng.integers(0, cols, 2 * cols))][:25, :25]
    return M


class TestSimplex:
    @staticmethod
    def replay(M):
        alpha, lam, pivots = game._simplex(M)
        mu, lam = alpha / alpha.sum(), lam / lam.sum()
        assert mu.min() >= 0.0 and lam.min() >= 0.0
        return float((M @ mu).max()), float((M.T @ lam).min())

    @settings(max_examples=150, deadline=None)
    @given(simplex_blocks())
    @example(np.array([[0.0, 1.0], [1.0, 0.0]]))
    @example(np.full((25, 25), 7.0))
    # the simplex pivots on a 1.3e-12 entry here: the tableau's own dual is
    # 1.2e-5 off, and the final basis solved afresh is not
    @example(Generator(2, 200000).block(
        KernelKind.RATIO,
        [54683, 21894, 145992, 55317, 117663, 137608, 87863, 64782, 11840, 198180, 180907,
         147289, 85737, 57399, 153237],
        [31253, 88455, 21025, 71152, 137026, 168492, 130817, 112003, 192923, 77688, 62004,
         165620, 194626, 74862, 55691]))
    def test_replayed_gap_and_value(self, M):
        # the replayed strategies close to rounding, at the value of the dense
        # LP and, up to 4 x 4, of support enumeration (criterion 9); the replay
        # M mu rounds relative to the entries, not to their range
        upper, lower = self.replay(M)
        scale = 64 * np.finfo(np.float64).eps * np.abs(M).max()
        assert upper - lower <= scale
        value, gap = 0.5 * (upper + lower), 0.5 * (upper - lower)
        # the oracles see M mapped onto [0, 1], which maps the value the same
        # way: HiGHS ends Unknown on clustered entries
        lo, width = M.min(), (M.max() - M.min()) or 1.0
        lp_value, lp_gap = game_lp((M - lo) / width, "minmax")
        assert abs(value - (lo + width * lp_value)) <= gap + width * lp_gap + scale
        if max(M.shape) <= 4:
            assert value == pytest.approx(lo + width * oracle_minmax((M - lo) / width), abs=1e-9)

    def test_strategies_ignore_shift_and_scale(self):
        M = np.random.default_rng(3).random((6, 5))
        alpha, lam, pivots = game._simplex(M)
        for shifted in (M + 1e6, 1e-9 * M, 4.0 * M - 3.0):
            again = game._simplex(shifted)
            np.testing.assert_allclose(again[0] / again[0].sum(), alpha / alpha.sum(), atol=1e-9)
            np.testing.assert_allclose(again[1] / again[1].sum(), lam / lam.sum(), atol=1e-9)


class TestSharpRatio:
    def test_report_fields(self):
        rep = sharp_ratio(5, 60)
        assert rep.kind is KernelKind.RATIO
        assert rep.bracket[0] <= rep.value <= rep.bracket[1]
        assert rep.bracket[0] >= ratio_floor(5) - 1e-12
        assert rep.gap <= 1e-7
        assert rep.lfd.values[0] == 0.0

    def test_lfd_prophet_value_is_one(self):
        rep = sharp_ratio(6, 80)
        assert rep.lfd.expected_max(6) == pytest.approx(1.0, abs=1e-9)

    def test_closed_loop_value(self):
        # the grid-exact optimum on the lfd reproduces the game value
        for n, N in [(5, 60), (10, 120)]:
            rep = sharp_ratio(n, N)
            best = optimal_rule(rep.lfd, n, mode="grid-exact", grid_size=N)
            assert best.evaluation.ratio == pytest.approx(rep.value, abs=rep.gap + 1e-9)

    def test_reported_rule_attains_value(self):
        rep = sharp_ratio(7, 90)
        ev_value = reward_by_level(rep.lfd, 7, rep.lfd.mixed_cdf(rep.rule.theta, rep.rule.p))
        assert ev_value / rep.lfd.expected_max(7) == pytest.approx(rep.value, abs=rep.gap + 1e-9)

    def test_bracket_small_n_uncertified(self):
        rep = sharp_ratio(2, 40)
        assert not rep.certified
        assert rep.bracket[0] == pytest.approx(0.75, abs=1e-12)  # ratio floor at n=2
        rep4 = sharp_ratio(4, 40)
        assert rep4.certified

    def test_monotone_under_doubling(self):
        for n in (5, 10):
            for N in (250, 500):
                a, b = sharp_ratio(n, N), sharp_ratio(n, 2 * N)
                assert b.value <= a.value + 2e-7

    def test_support_exclusion_small(self):
        rep = sharp_ratio(10, 300)
        cutoff_level = 1.0 - support_cutoff(10) / 10
        mass = rep.lam[np.arange(1, 300) / 300 >= cutoff_level].sum()
        assert mass <= 1e-6

    def test_known_value_regression(self):
        # frozen from this implementation; independently validated by the
        # closed-loop, oracle, and Monte Carlo tests
        assert sharp_ratio(10, 500).value == pytest.approx(0.700188, abs=2e-6)


class TestSharpRegret:
    def test_report_fields(self):
        rep = sharp_regret(5, 60)
        assert rep.kind is KernelKind.DIFFERENCE
        assert rep.bracket[0] <= rep.value <= rep.bracket[1]
        assert rep.bracket[1] - rep.value == pytest.approx(err_bound_diff(5, 60) + rep.gap, abs=1e-12)
        assert rep.lfd.values[-1] <= 1.0 + 1e-9

    def test_closed_loop_value(self):
        for n, N in [(5, 60), (10, 120)]:
            rep = sharp_regret(n, N)
            best = optimal_rule(rep.lfd, n, mode="grid-exact", grid_size=N)
            assert best.evaluation.regret == pytest.approx(rep.value, abs=rep.gap + 1e-9)

    def test_monotone_under_doubling(self):
        # refining the grid also enriches the stopper's levels, so the value
        # itself may dip; what holds is that lfd_N lies in the 2N family and
        # bounds the 2N value from below (criterion 12 in test_acceptance)
        for n in (5, 10):
            for N in (250, 500):
                a, b = sharp_regret(n, N), sharp_regret(n, 2 * N)
                best = optimal_rule(a.lfd, n, mode="grid-exact", grid_size=2 * N)
                assert b.value >= best.evaluation.regret - 2e-7

    def test_n2_fine_grid_exceeds_all_rules_constant(self):
        # single-threshold regret can only exceed the classic all-rules bound
        rep = sharp_regret(2, 2000)
        assert rep.value >= 0.0625 - err_bound_diff(2, 2000) - 1e-6

    def test_known_value_regression(self):
        assert sharp_regret(10, 500).value == pytest.approx(0.139507, abs=2e-6)


class TestStructuredLP:
    @pytest.mark.parametrize("n,N", [(2, 3), (3, 10), (5, 60), (10, 200),
                                     (2, 60), (2, 200), (4, 60), (4, 200),
                                     (50, 60), (50, 200), (100, 60), (100, 200)])
    @pytest.mark.parametrize("kind", ["ratio", "regret"])
    def test_matches_dense_game(self, kind, n, N):
        if kind == "ratio":
            rep, sense = sharp_ratio(n, N), "minmax"
            M = payoff_matrix(KernelKind.RATIO, n, N)
        else:
            rep, sense = sharp_regret(n, N), "maxmin"
            M = payoff_matrix(KernelKind.DIFFERENCE, n, N)
        assert abs(rep.value - solve_game(M, sense).value) <= 1e-9
        rows, cols = M @ rep.mu, M.T @ rep.lam
        if sense == "minmax":
            upper, lower = rows.max(), cols.min()
        else:
            lower, upper = rows.min(), cols.max()
        assert max(upper - rep.value, rep.value - lower) <= 1e-7

    def test_stats(self):
        for rep in (sharp_ratio(10, 200), sharp_regret(10, 200)):
            assert set(rep.stats) == {"iterations", "rounds", "block_rows", "block_cols"}
            assert rep.stats["iterations"] > 0
            # the first round runs on the seeded block, and every later
            # round follows one that found a new level
            assert 1 <= rep.stats["rounds"] <= rep.stats["block_rows"] + rep.stats["block_cols"] - 1
            assert 0 < rep.stats["block_rows"] <= 40 and 0 < rep.stats["block_cols"] <= 40
            assert rep.as_dict()["stats"] == rep.stats

    @pytest.mark.parametrize("kind,n,N,stats", [
        ("ratio", 2, 3, (1, 2, 2)),
        ("ratio", 3, 10, (1, 4, 3)),
        ("ratio", 5, 60, (1, 4, 3)),
        ("ratio", 10, 200, (1, 4, 3)),
        ("regret", 2, 3, (1, 2, 2)),
        ("regret", 3, 10, (1, 4, 4)),
        ("regret", 5, 60, (1, 4, 4)),
        ("regret", 10, 200, (1, 4, 4)),
        ("ratio", 2, 60, (1, 4, 3)),
        ("regret", 2, 60, (1, 4, 4)),
    ])
    def test_stats_pinned(self, kind, n, N, stats):
        # double-oracle rounds and the restricted game's final size; a change
        # in the seeded block, the best responses or their tie-breaks shows up here
        rep = (sharp_ratio if kind == "ratio" else sharp_regret)(n, N)
        keys = ("rounds", "block_rows", "block_cols")
        assert tuple(rep.stats[k] for k in keys) == stats

    #: (value.hex(), gap.hex()); a refactor of the products or the payoff
    #: blocks that moves one bit of either shows up here
    PINNED = {
        ("ratio", 10, 700): ("0x1.65ff3c431b638p-1", "0x1.0000000000000p-54"),
        ("regret", 10, 700): ("0x1.1db440d396a80p-3", "0x0.0p+0"),
        ("ratio", 25, 700): ("0x1.56c9971cfbb60p-1", "0x0.0p+0"),
        ("regret", 25, 700): ("0x1.420536315df4ap-3", "0x0.0p+0"),
        ("ratio", 5, 125): ("0x1.7fa1c044d62e7p-1", "0x1.0000000000000p-53"),
        ("regret", 5, 125): ("0x1.d9fe15681febcp-4", "0x0.0p+0"),
    }

    @pytest.mark.parametrize("kind,n,N", list(PINNED))
    def test_pinned_values(self, kind, n, N):
        rep = (sharp_ratio if kind == "ratio" else sharp_regret)(n, N)
        assert (rep.value.hex(), rep.gap.hex()) == self.PINNED[kind, n, N]

    @pytest.mark.parametrize("solve", [sharp_ratio, sharp_regret])
    def test_round_cap_raises(self, solve, monkeypatch):
        # each size takes 2 rounds from its seeded block
        n, N = (10, 700) if solve is sharp_ratio else (100, 10)
        monkeypatch.setattr(game, "MAX_ROUNDS", 1)
        with pytest.raises(SolverError, match="after 1 rounds"):
            solve(n, N)

    @pytest.mark.parametrize("N", [125, 700, 20000])
    @pytest.mark.parametrize("kind", ["ratio", "regret"])
    def test_seeded_block_matches_cold_start(self, kind, N):
        # the block seeded at the continuum saddle changes the rounds, not the
        # game: the cold start from level m // 2 reaches the same value
        for n in (3, 5, 10, 25, 100, 1000):
            rep = (sharp_ratio if kind == "ratio" else sharp_regret)(n, N)
            value, gap, rounds = cold_sharp(kind, n, N)
            assert abs(rep.value - value) <= rep.gap + gap + 4 * np.spacing(value)
            assert rep.stats["rounds"] <= 3 and rep.stats["rounds"] <= rounds

    @pytest.mark.parametrize("N", [3, 700])
    @pytest.mark.parametrize("solve", [sharp_ratio, sharp_regret])
    def test_huge_horizon(self, solve, N):
        # the saddle level of n = 1e12 lies above the grid's top level: the
        # block is seeded at the top and the game still certifies
        rep = solve(10**12, N)
        assert rep.gap <= 1e-7 and rep.stats["rounds"] <= 3

    @pytest.mark.parametrize("solve", [sharp_ratio, sharp_regret])
    def test_rejects_bad_tol(self, solve):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(5, 50, tol=0.0)

    @pytest.mark.parametrize("solve", [sharp_ratio, sharp_regret])
    def test_large_grid(self, solve):
        # a table1 row at N=20000: the dense matrix would hold 4e8 entries
        rep = solve(10, 20000)
        assert rep.gap <= 1e-9
        assert rep.stats["rounds"] <= 40
        assert rep.bracket[0] <= rep.value <= rep.bracket[1]


class TestVerify:
    def test_lfd_self_consistency(self):
        rep = sharp_ratio(6, 80)
        res = verify_solution(rep, [rep.lfd])
        assert bool(res)

    def test_random_members_ratio(self):
        rng = np.random.default_rng(53)
        rep = sharp_ratio(5, 50)
        alts = [random_grid_member(rng, 50) for _ in range(50)]
        alts = [a for a in alts if a.expected_max(5) > 0]
        assert verify_solution(rep, alts).ok

    def test_random_members_regret(self):
        rng = np.random.default_rng(59)
        rep = sharp_regret(5, 50)
        alts = []
        while len(alts) < 50:
            cand = random_grid_member(rng, 50)
            if cand.values[-1] <= 1.0:
                alts.append(cand)
        assert verify_solution(rep, alts).ok

    def test_regret_rejects_atoms_above_one(self):
        # the sharp regret bounds [0, 1]-supported laws only; a scaled law's
        # regret scales with it and is no counterexample
        rep = sharp_regret(5, 60)
        scaled = DiscreteDistribution(rep.lfd.values * 10.0, rep.lfd.probs)
        with pytest.raises(ValueError, match="alternative 1 "):
            verify_solution(rep, [rep.lfd, scaled])
        ratio = sharp_ratio(5, 60)
        assert verify_solution(ratio, [DiscreteDistribution(ratio.lfd.values * 10.0,
                                                            ratio.lfd.probs)]).ok

    def test_samuel_cahn_sequence(self):
        # the classic hard sequence still beats the guaranteed floor
        fixture = samuel_cahn_distribution(100, 0.01, 0.01, 10.0)
        best = optimal_rule(fixture, 100)
        assert best.evaluation.ratio >= ratio_floor(100) - 1e-10

    def test_counterexample_detection(self):
        rep = sharp_ratio(5, 50)
        # a fabricated too-high bracket must flag the lfd itself
        fake = type(rep)(
            n=rep.n, N=rep.N, kind=rep.kind, value=rep.value,
            bracket=(rep.value + 0.05, rep.value + 0.06), gap=rep.gap,
            rule=rep.rule, lfd=rep.lfd, lam=rep.lam, mu=rep.mu, certified=True,
        )
        res = verify_solution(fake, [rep.lfd])
        assert not res.ok
        assert res.counterexamples and res.counterexamples[0][0] == 0

    def test_counterexample_detection_regret(self):
        rep = sharp_regret(5, 50)
        # a fabricated too-low bracket must flag the lfd itself
        fake = type(rep)(
            n=rep.n, N=rep.N, kind=rep.kind, value=rep.value,
            bracket=(rep.value - 0.06, rep.value - 0.05), gap=rep.gap,
            rule=rep.rule, lfd=rep.lfd, lam=rep.lam, mu=rep.mu, certified=True,
        )
        res = verify_solution(fake, [rep.lfd])
        assert not res.ok
        assert res.counterexamples[0][0] == 0
        assert res.counterexamples[0][1] > fake.bracket[1]


class TestSerialization:
    def test_report_json_shape(self):
        rep = sharp_regret(4, 30)
        obj = json.loads(json.dumps(rep.as_dict()))
        assert set(obj) == {"n", "N", "kind", "value", "bracket", "gap",
                            "certified", "rule", "lfd", "stats"}
        assert obj["kind"] == "difference"
        assert isinstance(obj["lfd"]["atoms"], list)
