import numpy as np
import pytest

from helpers import (
    band_min_lp,
    band_ratio_lp,
    kappa_ldp,
    load_perfbench,
    min_norm_mixture_bisecting,
    pareto_bisection,
)
from prophet_sharp import constrained
from prophet_sharp import (
    DiscreteDistribution,
    SolverError,
    grid_distribution,
    ratio_floor,
    kappa,
    pareto_band,
    pareto_ratio,
    sharp_ratio,
    sharp_regret,
)
from prophet_sharp.constrained import _band_min, _band_windows, _dinkelbach, variance_q_matrix
from prophet_sharp.kernel import Generator, prophet_weights


class TestVariance:
    def test_point_mass(self):
        assert DiscreteDistribution.point_mass(3.0).variance() == 0.0

    def test_coin(self):
        F = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        assert F.variance() == pytest.approx(0.25, abs=1e-15)

    def test_grid_quadratic_form_hand_value(self):
        # atoms {0,1,2,3} each 1/4: v^T Q v with v = (1,1,1) equals 1.25
        v = np.array([1.0, 1.0, 1.0])
        Q = variance_q_matrix(4)
        assert v @ Q @ v == pytest.approx(1.25, abs=1e-14)
        assert grid_distribution(np.cumsum(v), 4).variance() == pytest.approx(1.25, abs=1e-14)

    @pytest.mark.parametrize("N", [4, 10, 50])
    def test_quadratic_form_matches_moments(self, N):
        rng = np.random.default_rng(N)
        Q = variance_q_matrix(N)
        for _ in range(30):
            v = rng.exponential(1.0, N - 1)
            assert v @ Q @ v == pytest.approx(
                grid_distribution(np.cumsum(v), N).variance(), abs=1e-10, rel=1e-10
            )

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            kappa(1, 30)
        with pytest.raises(ValueError):
            kappa(5, 2)


class TestKappa:
    def test_small_grid_certificate(self):
        res = kappa(5, 60)
        cert = res.certificate
        assert cert["gap"] <= 1e-5
        assert cert["kappa_lower"] <= cert["kappa_upper"]
        assert res.value == cert["kappa_lower"]

    def test_feasibility_exact(self):
        res = kappa(6, 80)
        Q = variance_q_matrix(80)
        from prophet_sharp import payoff_matrix

        A = payoff_matrix("difference", 6, 80)
        assert (A @ res.z).min() >= res.value - 1e-9
        assert res.z @ Q @ res.z == pytest.approx(1.0, abs=1e-9)
        assert res.z.min() >= 0.0

    def test_homogeneity_in_sigma(self):
        a = kappa(5, 50, sigma=1.0)
        b = kappa(5, 50, sigma=2.0)
        assert b.value == pytest.approx(2.0 * a.value, abs=1e-6)

    def test_monotone_in_n(self):
        values = [kappa(n, 120).value for n in (10, 25, 50)]
        assert values[0] < values[1] < values[2]

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            kappa(5, 50, sigma=0.0)

    @pytest.mark.parametrize("kwargs", [{"sigma": -1.0}, {"sigma": np.nan}, {"sigma": np.inf},
                                        {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}])
    def test_rejects_bad_sigma_and_tol(self, kwargs):
        with pytest.raises(ValueError):
            kappa(5, 50, **kwargs)

    def test_certificate_is_one_qp(self):
        cert = kappa(5, 40).certificate
        assert cert["kkt_exact"] is True and cert["lbfgs_iterations"] == 0
        assert cert["rounds"] == cert["block_rows"] >= 1
        assert cert["dual_bound"] <= cert["norm_sq"]
        assert cert["projections"] >= 2 * cert["rounds"] and cert["line_searches"] >= 0

    def test_gap_at_large_grid(self):
        cert = kappa(10, 2000).certificate
        assert cert["gap"] <= 1e-9
        assert cert["kappa_lower"] <= cert["kappa_upper"]

    @pytest.mark.parametrize("n,N", [(2, 120), (10, 200), (50, 120), (100, 200), (200, 120),
                                     (3, 3), (4, 25)])
    def test_matches_least_distance_oracle(self, n, N):
        cert = kappa(n, N).certificate
        assert cert["kappa_lower"] - 1e-10 <= kappa_ldp(n, N) <= cert["kappa_upper"] + 1e-10

    # (n, N, sigma): value and kappa_upper, recorded before the line-search skip
    PINNED = {
        (10, 200, 1.0): ("0x1.2fa7436f0dffcp-1", "0x1.2fa7436f0e00cp-1"),
        (10, 200, 2.0): ("0x1.2fa7436f0dffcp+0", "0x1.2fa7436f0e00cp+0"),
        (25, 200, 1.0): ("0x1.e790a5cded15cp-1", "0x1.e790a5cded15cp-1"),
        (50, 5, 1.0): ("0x1.6e94a349543adp-16", "0x1.6e94ba2d94579p-16"),
        (100, 5, 1.0): ("0x1.56e3a9e0eeb44p-32", "0x1.56e3b2920381bp-32"),
        (1000, 60, 1.0): ("0x1.1e26883b8c1b4p-22", "0x1.273aada9831d7p-22"),
        (2, 3, 1.0): ("0x1.16b28f55d72ccp-3", "0x1.16b28f55d72d1p-3"),
    }

    @pytest.mark.parametrize("n,N,sigma", list(PINNED))
    def test_pinned_values(self, n, N, sigma):
        res = kappa(n, N, tol=1e-3, sigma=sigma)
        assert (res.value.hex(), res.certificate["kappa_upper"].hex()) == self.PINNED[n, N, sigma]

    def test_futile_line_searches_skipped(self, monkeypatch):
        calls = 0
        project = constrained.isotonic_regression

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return project(*args, **kwargs)

        monkeypatch.setattr(constrained, "isotonic_regression", counted)
        cert = kappa(10, 200, tol=1e-3).certificate
        # the always-bisecting loop projects 152 times here, in two futile searches
        assert calls == cert["projections"] <= 40

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 25, 50, 100, 1000])
    def test_matches_always_bisecting_oracle(self, n, monkeypatch):
        for N in (3, 4, 5, 10, 25, 60, 120, 200, 500):
            try:
                fast = kappa(n, N)
            except SolverError:
                fast = None
            with monkeypatch.context() as patch:
                patch.setattr(constrained, "_min_norm_mixture", min_norm_mixture_bisecting)
                try:
                    slow = kappa(n, N)
                except SolverError:
                    slow = None
            if fast is None or slow is None:
                assert fast is slow, (n, N)
                continue
            assert fast.value.hex() == slow.value.hex() and fast.z.tobytes() == slow.z.tobytes()
            counters = ("projections", "line_searches")
            assert {k: v for k, v in fast.certificate.items() if k not in counters} == \
                {k: v for k, v in slow.certificate.items() if k not in counters}
            assert all(fast.certificate[k] <= slow.certificate[k] for k in counters), (n, N)

    @pytest.mark.parametrize("n,N", [(50, 3), (100, 4)])
    def test_degenerate_corner_raises(self, n, N):
        # kappa is below 1e-8 here, and Pi_K(C^T mu) is constant or has one
        # step, so the primal z = -diff(Pi_K(C^T mu)) is 0 or sits on levels
        # where A_N's diagonal is 0: min A_N z = 0 gives no lower end
        with pytest.raises(SolverError):
            kappa(n, N)

    def test_matches_reference_solver_small(self):
        # reference: scipy trust-constr on the primal QP
        from scipy.optimize import LinearConstraint, minimize

        from prophet_sharp import payoff_matrix

        n, N = 4, 25
        A = payoff_matrix("difference", n, N)
        Q = variance_q_matrix(N)
        res = minimize(
            lambda z: z @ Q @ z,
            np.ones(N - 1),
            jac=lambda z: 2 * Q @ z,
            method="trust-constr",
            constraints=[LinearConstraint(A, lb=1.0, ub=np.inf)],
            bounds=[(0, None)] * (N - 1),
            options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
        )
        reference = 1.0 / np.sqrt(res.fun)
        assert kappa(n, N).value == pytest.approx(reference, abs=1e-6)


class TestPareto:
    def test_problem_band(self):
        q_lo, q_hi = pareto_band(100, 20.0, 5.0)
        assert np.all(q_lo <= q_hi)
        assert np.all(np.diff(q_lo) >= 0) and np.all(np.diff(q_hi) >= 0)
        assert q_lo[0] > 1.0
        with pytest.raises(ValueError):
            pareto_band(100, 5.0, 20.0)

    @pytest.mark.parametrize("N", [3, 200, 20000])
    @pytest.mark.parametrize("p0,p1", [(20.0, 5.0), (5.5, 5.0), (100.0, 1.01)])
    def test_band_is_the_benchmark_band(self, N, p0, p1):
        # the benchmark checks pareto_ratio against its own copy of the band
        oracles = load_perfbench("oracles")
        for ours, theirs in zip(pareto_band(N, p0, p1), oracles.pareto_band(N, p0, p1)):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("n,N", [(2.5, 40), (10, 40.0), (True, 40), (10, "abc")])
    def test_rejects_non_integer_sizes(self, n, N):
        # the same check as kappa and the sharp games (kernel.check_grid)
        for solve in (lambda: pareto_ratio(n, N, 20.0, 5.0), lambda: kappa(n, N),
                      lambda: sharp_ratio(n, N), lambda: sharp_regret(n, N)):
            with pytest.raises(ValueError, match="integer"):
                solve()

    def test_band_certificates(self):
        res = pareto_ratio(5, 120, 20.0, 5.0, tol=1e-6)
        cert = res.certificate
        assert cert["bracket"][1] - cert["bracket"][0] <= 1e-6
        assert cert["band_violation"] <= 1e-9
        assert cert["achieved_ratio"] <= res.value + 1e-9
        assert cert["normalization"] >= 1.0 - 1e-9

    def test_value_dominates_unconstrained(self):
        n, N = 5, 120
        constrained = pareto_ratio(n, N, 20.0, 5.0, tol=1e-6)
        unconstrained = sharp_ratio(n, N)
        assert constrained.value >= unconstrained.value - 2e-6
        assert constrained.value >= ratio_floor(n) - 2e-6

    def test_witness_is_distribution_increments(self):
        res = pareto_ratio(4, 80, 20.0, 5.0, tol=1e-6)
        assert res.v.min() >= 0.0
        assert res.v.shape == (79,)

    @pytest.mark.parametrize("n,N", [(4, 40), (5, 60), (10, 120)])
    @pytest.mark.parametrize("band", ["default", "narrow"])
    def test_matches_dense_bisection(self, n, N, band):
        # "narrow": p0 = 5.5 close to p1 = 5 pins u to a thin band
        p0, p1 = (20.0, 5.0) if band == "default" else (5.5, 5.0)
        q_lo, q_hi = pareto_band(N, p0, p1)
        res = pareto_ratio(n, N, p0, p1)
        lo, hi = pareto_bisection(n, N, q_lo, q_hi)
        # the oracle counts a level as feasible at slack <= 1e-9
        assert lo - 1e-8 <= res.value <= hi + 1e-8
        assert res.value == res.certificate["bracket"][1]
        u = np.cumsum(res.v)
        assert np.all(u >= q_lo * (1 - 1e-12)) and np.all(u <= q_hi * (1 + 1e-12))

    def test_bracket_survives_perturbed_highs_output(self, monkeypatch):
        # both ends are replayed: strategies that HiGHS got wrong by up to
        # 1e-4 widen the bracket, but it still holds the optimum
        from prophet_sharp import game

        expected = pareto_ratio(5, 60, 20.0, 5.0)

        class Perturbed(game._Highs):
            def getSolution(self):
                solution = super().getSolution()
                for name in ("col_value", "row_dual"):
                    values = getattr(solution, name)
                    setattr(solution, name,
                            [x * (1.0 + 1e-4 * (-1) ** i) for i, x in enumerate(values)])
                return solution

        monkeypatch.setattr(game, "_Highs", Perturbed)
        res = pareto_ratio(5, 60, 20.0, 5.0, tol=1e-3)
        lower, upper = res.certificate["bracket"]
        assert lower < expected.certificate["bracket"][0] <= expected.value < upper
        assert res.value == upper

    def test_dinkelbach_step_cap_raises(self, monkeypatch):
        # the step cap turns a Dinkelbach search that does not settle into a SolverError
        monkeypatch.setattr(constrained, "MAX_DINKELBACH_STEPS", 1)
        with pytest.raises(SolverError, match="Dinkelbach"):
            pareto_ratio(5, 120, 20.0, 5.0)

    def test_large_grid(self):
        N = 20000
        res = pareto_ratio(10, N, 20.0, 5.0)
        q_lo, q_hi = pareto_band(N, 20.0, 5.0)
        lower, upper = res.certificate["bracket"]
        assert 0.0 <= upper - lower <= 1e-6 and res.value == upper
        u = np.cumsum(res.v)
        assert res.v.min() >= 0.0
        assert np.all(u >= q_lo * (1 - 1e-12)) and np.all(u <= q_hi * (1 + 1e-12))

    def test_stats(self):
        res = pareto_ratio(4, 40, 20.0, 5.0)
        assert set(res.stats) == {"iterations", "rounds", "block_rows", "block_cols",
                                  "dinkelbach_steps"}
        assert all(isinstance(v, int) and v > 0 for v in res.stats.values())
        assert res.stats["dinkelbach_steps"] >= res.stats["rounds"]
        assert max(res.stats["block_rows"], res.stats["block_cols"]) <= res.stats["rounds"]

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            pareto_ratio(4, 40, 20.0, 5.0, tol=tol)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            pareto_ratio(5, 50, 3.0, 3.0)


def _random_band(rng, m, kind):
    """A band of one of the oracle test kinds; half of them on a coarse
    lattice, so that band values tie."""
    if rng.random() < 0.5:
        q_lo = np.sort(rng.integers(0, 5, m) * 0.5)
        q_hi = np.maximum.accumulate(q_lo + rng.integers(0, 4, m) * 0.5)
    else:
        q_lo = np.cumsum(rng.exponential(1.0, m))
        q_hi = np.maximum.accumulate(q_lo + rng.exponential(1.0, m))
    if kind == "narrow":
        q_hi = q_lo * (1.0 + 1e-3) + 1e-3
    elif kind == "q_lo = 0":
        q_lo[:] = 0.0
    q_hi[-1] = max(q_hi[-1], 1.0)
    return q_lo, q_hi


KINDS = ["two-sided", "narrow", "q_lo = 0"]


class TestBandOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_band_min_matches_dense_lp(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for _ in range(60):
            m = int(rng.integers(2, 12))
            q_lo, q_hi = _random_band(rng, m, kind)
            # half of the costs on a lattice: ties, also with the empty set's 0
            e = rng.normal(size=m) if rng.random() < 0.5 else rng.integers(-2, 3, m) * 1.0
            u = _band_min(e, *_band_windows(q_lo, q_hi))
            reference = band_min_lp(e, q_lo, q_hi)
            assert np.all(np.diff(u) >= 0.0) and np.all(q_lo <= u) and np.all(u <= q_hi)
            value = e @ np.diff(u, prepend=0.0)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dinkelbach_matches_charnes_cooper_lp(self, kind):
        rng = np.random.default_rng(10 + KINDS.index(kind))
        for _ in range(60):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            q_lo, q_hi = _random_band(rng, m, kind)
            d = prophet_weights(n, m + 1)
            c = Generator(n, m + 1).rmatvec(rng.dirichlet(np.full(m, 0.5)))
            v_hi = np.diff(q_hi, prepend=0.0)
            lower, best, steps = _dinkelbach(c, d, _band_windows(q_lo, q_hi),
                                             (c @ v_hi) / (d @ v_hi))
            reference = band_ratio_lp(c, d, q_lo, q_hi)
            assert steps >= 1
            assert lower == pytest.approx(reference, rel=1e-9)
            if best is not None:
                # a Charnes-Cooper point (w, s): s q_lo <= cumsum(w) <= s q_hi, d^T w = 1
                ratio, (w, s) = best
                y = np.cumsum(w)
                assert ratio == pytest.approx(reference, rel=1e-9)
                assert ratio == pytest.approx(c @ w, rel=1e-14)
                assert d @ w == pytest.approx(1.0) and w.min() >= 0.0
                assert np.all(s * q_lo <= y * (1 + 1e-12)) and np.all(y <= s * q_hi * (1 + 1e-12))
                assert s > 0.0
