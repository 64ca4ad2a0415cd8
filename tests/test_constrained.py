import numpy as np
import pytest

from helpers import kappa_ldp, pareto_bisection
from prophet_sharp import (
    DiscreteDistribution,
    ParetoProblem,
    QuantileIncrements,
    SolverError,
    ratio_floor,
    kappa,
    pareto_ratio,
    sharp_ratio,
)
from prophet_sharp.constrained import variance_q_matrix


class TestVariance:
    def test_point_mass(self):
        assert DiscreteDistribution.point_mass(3.0).variance() == 0.0

    def test_coin(self):
        F = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        assert F.variance() == pytest.approx(0.25, abs=1e-15)

    def test_grid_quadratic_form_hand_value(self):
        # atoms {0,1,2,3} each 1/4: v^T Q v with v = (1,1,1) equals 1.25
        inc = QuantileIncrements(4, np.array([1.0, 1.0, 1.0]))
        Q = variance_q_matrix(4)
        assert inc.v @ Q @ inc.v == pytest.approx(1.25, abs=1e-14)
        assert inc.to_distribution().variance() == pytest.approx(1.25, abs=1e-14)

    @pytest.mark.parametrize("N", [4, 10, 50])
    def test_quadratic_form_matches_moments(self, N):
        rng = np.random.default_rng(N)
        Q = variance_q_matrix(N)
        for _ in range(30):
            v = rng.exponential(1.0, N - 1)
            inc = QuantileIncrements(N, v)
            assert v @ Q @ v == pytest.approx(
                inc.to_distribution().variance(), abs=1e-10, rel=1e-10
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

        A = payoff_matrix("difference", 6, 80).entries
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
        assert cert["qp_iterations"] > 0
        assert cert["dual_bound"] <= cert["norm_sq"]

    @pytest.mark.parametrize("n,N", [(2, 120), (10, 200), (50, 120), (100, 200), (200, 120)])
    def test_matches_least_distance_oracle(self, n, N):
        cert = kappa(n, N).certificate
        assert cert["kappa_lower"] - 1e-10 <= kappa_ldp(n, N) <= cert["kappa_upper"] + 1e-10

    @pytest.mark.parametrize("n,N", [(50, 3), (100, 4)])
    def test_degenerate_corner_raises(self, n, N):
        # kappa is below 1e-7 here, and HiGHS does not end Optimal
        with pytest.raises(SolverError):
            kappa(n, N)

    def test_matches_reference_solver_small(self):
        # reference: scipy trust-constr on the primal QP
        from scipy.optimize import LinearConstraint, minimize

        from prophet_sharp import payoff_matrix

        n, N = 4, 25
        A = payoff_matrix("difference", n, N).entries
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
        prob = ParetoProblem.build(10, 100, 20.0, 5.0)
        assert np.all(prob.q_lo <= prob.q_hi)
        assert np.all(np.diff(prob.q_lo) >= 0) and np.all(np.diff(prob.q_hi) >= 0)
        assert prob.q_lo[0] > 1.0
        with pytest.raises(ValueError):
            ParetoProblem.build(10, 100, 5.0, 20.0)

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

    def test_unconstrained_band_recovers_game(self):
        n, N = 5, 120
        free = pareto_ratio(
            n, N, 20.0, 5.0, tol=1e-7,
            q_lo=np.zeros(N - 1), q_hi=np.full(N - 1, np.inf),
        )
        assert free.value == pytest.approx(sharp_ratio(n, N).value, abs=2e-7)

    def test_witness_is_distribution_increments(self):
        res = pareto_ratio(4, 80, 20.0, 5.0, tol=1e-6)
        assert res.v.min() >= 0.0
        assert res.v.shape == (79,)

    @pytest.mark.parametrize("n,N", [(4, 40), (5, 60), (10, 120)])
    @pytest.mark.parametrize("band", ["default", "narrow"])
    def test_matches_dense_bisection(self, n, N, band):
        prob = ParetoProblem.build(n, N, 20.0, 5.0)
        q_lo = prob.q_lo if band == "default" else np.sqrt(prob.q_lo * prob.q_hi)
        res = pareto_ratio(n, N, 20.0, 5.0, q_lo=q_lo)
        lo, hi = pareto_bisection(n, N, q_lo, prob.q_hi)
        # the oracle counts a level as feasible at slack <= 1e-9
        assert lo - 1e-8 <= res.value <= hi + 1e-8
        assert res.value == res.certificate["bracket"][1]
        u = np.cumsum(res.v)
        assert np.all(u >= q_lo * (1 - 1e-12)) and np.all(u <= prob.q_hi * (1 + 1e-12))

    @pytest.mark.parametrize("n,N", [(4, 40), (10, 120)])
    def test_one_sided_band(self, n, N):
        # with q_hi = +inf the LP optimum has s = 0, and the band's infimum,
        # not attained, is the unconstrained game's value
        prob = ParetoProblem.build(n, N, 20.0, 5.0)
        q_hi = np.full(N - 1, np.inf)
        res = pareto_ratio(n, N, 20.0, 5.0, q_hi=q_hi)
        lo, hi = pareto_bisection(n, N, prob.q_lo, q_hi)
        assert lo - 1e-8 <= res.value <= hi + 1e-8
        assert res.value == pytest.approx(sharp_ratio(n, N).value, abs=1e-9)
        cert = res.certificate
        assert cert["bracket"][1] - cert["bracket"][0] <= 1e-6
        assert cert["band_violation"] == 0.0
        assert res.v.min() >= 0.0

    def test_rejects_bad_band_override(self):
        prob = ParetoProblem.build(4, 40, 20.0, 5.0)
        dip = prob.q_lo.copy()
        dip[5] = 0.5 * dip[4]
        for bad in ({"q_lo": dip}, {"q_lo": prob.q_hi + 1.0}, {"q_lo": -prob.q_lo},
                    {"q_hi": prob.q_hi[:-1]}):
            with pytest.raises(ValueError):
                pareto_ratio(4, 40, 20.0, 5.0, **bad)

    def test_lower_end_is_replayed_from_duals(self, monkeypatch):
        # a solver objective 1e-3 too low moves neither the value nor the bracket
        from prophet_sharp import constrained

        expected = pareto_ratio(5, 60, 20.0, 5.0)
        linprog = constrained.linprog

        def lowered(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.fun -= 1e-3
            return res

        monkeypatch.setattr(constrained, "linprog", lowered)
        res = pareto_ratio(5, 60, 20.0, 5.0)
        assert res.value == expected.value
        assert res.certificate["bracket"] == expected.certificate["bracket"]

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            pareto_ratio(4, 40, 20.0, 5.0, tol=tol)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            pareto_ratio(5, 50, 3.0, 3.0)
