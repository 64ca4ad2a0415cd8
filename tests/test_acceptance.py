"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1 and 2 check the N=2000 ratio value against a bracket [L*, U*] for
the continuum constant that the test computes itself: L* from a fixed stopper
mixture that guarantees ratio >= L* on every distribution, U* from the exact
best single-threshold ratio on a fixed distribution.  Criterion 12 checks what
the grid game promises under N -> 2N: the N-grid least-favorable distribution
is a member of the 2N family, so it bounds the 2N value from the adversary's
side.  Both players are restricted to the grid levels, so refining the grid
helps the stopper too and the values themselves need not be monotone.
"""

import math

import numpy as np
import pytest

from helpers import (
    enumerate_rule_reward,
    exact_best_level,
    oracle_maxmin,
    oracle_minmax,
    random_dist,
)
from prophet_sharp import (
    DiscreteDistribution,
    SimConfig,
    ThresholdRule,
    ratio_floor,
    err_bound_diff,
    err_bound_ratio,
    kappa,
    kernel_a,
    kernel_r,
    lipschitz_a,
    lipschitz_r,
    optimal_rule,
    pareto_ratio,
    reward_by_level,
    reward_v1,
    reward_v2,
    run_rule,
    sharp_ratio,
    sharp_regret,
    solve_game,
    support_cutoff,
)
from prophet_sharp.reward import (
    ehsani_distribution,
    samuel_cahn_closed_forms,
    samuel_cahn_distribution,
)

TOL = 1e-7  # solver tolerance for the N=2000 table solves


def check(label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label} {detail}"


@pytest.fixture(scope="module")
def table_reports():
    return {
        ("ratio", 10): sharp_ratio(10, 2000, TOL),
        ("ratio", 25): sharp_ratio(25, 2000, TOL),
        ("regret", 10): sharp_regret(10, 2000, TOL),
        ("regret", 25): sharp_regret(25, 2000, TOL),
    }


@pytest.fixture(scope="module")
def ratio_1000():
    return {n: sharp_ratio(n, 1000, TOL) for n in (4, 10, 25)}


# Certificates for the continuum sharp ratio at n = 10 and n = 25: a stopper
# mixture of levels, as (level, weight) pairs, and a distribution, as
# (value, probability) atoms.
STOPPER = {
    10: ((0.915, 0.018), (0.916, 0.982)),
    25: ((0.962, 0.0298), (0.963, 0.9702)),
}
ADVERSARY = {
    10: ((0.0, 0.7386596), (0.476173, 0.2613394), (54686.0, 1e-6)),
    25: ((0.0, 0.8570877), (0.446998, 0.1429113), (22499.23, 1e-6)),
}


def ratio_certificates(n: int):
    """(L*, U*, S) for the continuum sharp single-threshold ratio at horizon n.

    For every distribution, ratio(F, x) averages R(x, y) over y in [0, 1)
    with weights (1 - y^n) dF^{<-}(y).  So the stopper mixture lam guarantees
    some level with ratio >= min_y sum_x lam_x R(x, y).  L* takes that
    minimum over 10^6 equal steps of [0, 1], y = 1 included, and subtracts
    the Lipschitz slack of R in y (x below the top level) times half a step.
    U* is the exact best single-threshold ratio on the fixed distribution,
    so the continuum constant lies in [L*, U*].  S is the best ratio on a
    10^5-step level grid, which U* must not fall below.
    """
    points = 10**6
    ys = np.linspace(0.0, 1.0, points + 1)
    guarantee = sum(w * kernel_r(x, ys, n) for x, w in STOPPER[n])
    slack = lipschitz_r(n, 1.0 - max(x for x, _ in STOPPER[n])) / (2 * points)
    F = DiscreteDistribution.from_atoms(ADVERSARY[n])
    prophet = F.expected_max(n)
    dense = reward_by_level(F, n, np.linspace(0.0, 1.0, 10**5 + 1)).max()
    return (
        float(guarantee.min()) - slack,
        exact_best_level(F, n)[1] / prophet,
        dense / prophet,
    )


def check_ratio_bracket(label: str, rep):
    lower, upper, dense = ratio_certificates(rep.n)
    delta = err_bound_ratio(rep.n, rep.N) + 2 * TOL
    # 1e-12 absorbs the rounding difference of the two reward evaluations
    ok = dense - 1e-12 <= upper and lower <= upper
    ok = ok and lower - delta <= rep.value <= upper + delta
    check(
        f"{label}: ratio n={rep.n} within certified [L*, U*] +/- {delta:.4f}",
        ok,
        f"value={rep.value:.6f}, L*={lower:.6f}, U*={upper:.6f}, scan={dense:.6f}",
    )


def test_criterion_01_table1_ratio_n10(table_reports):
    check_ratio_bracket("criterion 1", table_reports[("ratio", 10)])


def test_criterion_02_table1_ratio_n25(table_reports):
    check_ratio_bracket("criterion 2", table_reports[("ratio", 25)])


def test_criterion_03_table1_regret_n10(table_reports):
    rep = table_reports[("regret", 10)]
    delta = err_bound_diff(10, 2000) + err_bound_diff(10, 13000) + 2 * TOL
    ok = 0.1395 - delta <= rep.value <= 0.1395 + delta
    check("criterion 3: regret n=10 within 0.1395 +/- %.5f" % delta, ok,
          f"value={rep.value:.6f}")


def test_criterion_04_table1_regret_n25(table_reports):
    rep = table_reports[("regret", 25)]
    delta = err_bound_diff(25, 2000) + err_bound_diff(25, 13000) + 2 * TOL
    ok = 0.1572 - delta <= rep.value <= 0.1572 + delta
    check("criterion 4: regret n=25 within 0.1572 +/- %.5f" % delta, ok,
          f"value={rep.value:.6f}")


def test_criterion_05_ratio_floor(table_reports, ratio_1000):
    reports = [table_reports[("ratio", 10)], table_reports[("ratio", 25)]]
    reports += list(ratio_1000.values())
    floors_ok = all(r.bracket[0] >= ratio_floor(r.n) - 1e-12 for r in reports)
    value_ok = abs(ratio_floor(100) - 0.6340) < 5e-5
    check("criterion 5: every ratio bracket floors at 1-(1-1/n)^n; floor(100)=0.6340",
          floors_ok and value_ok)


def test_criterion_06_reward_self_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    while cases < 10**4:
        F = random_dist(rng, max_atoms=6)
        n = int(rng.integers(2, 7))
        theta = float(rng.choice(np.concatenate((F.values, [rng.uniform(0, 3)]))))
        p = float(rng.random())
        rule = ThresholdRule(theta, p)
        worst = max(worst, abs(reward_v1(F, n, rule) - reward_v2(F, n, rule)))
        cases += 1
    enum_worst = 0.0
    for _ in range(120):
        F = random_dist(rng, max_atoms=3)
        n = int(rng.integers(2, 5))
        theta = float(rng.choice(F.values))
        p = float(rng.choice([0.0, 0.3, 1.0]))
        expected = enumerate_rule_reward(F, n, theta, p)
        enum_worst = max(
            enum_worst,
            abs(reward_v1(F, n, ThresholdRule(theta, p)) - expected),
            abs(reward_v2(F, n, ThresholdRule(theta, p)) - expected),
        )
    check("criterion 6: reward_v1 == reward_v2 (1e4 cases) and both == enumeration",
          worst <= 1e-12 and enum_worst <= 1e-12,
          f"max|v1-v2|={worst:.2e}, max|v-enum|={enum_worst:.2e}")


def test_criterion_07_samuel_cahn_fixture():
    worst = 0.0
    for n, a, b, c in [(10, 0.1, 0.1, math.sqrt(10)), (100, 0.01, 0.01, 10.0)]:
        F = samuel_cahn_distribution(n, a, b, c)
        m_n, e0, ea, e1 = samuel_cahn_closed_forms(n, a, b, c)
        worst = max(
            worst,
            abs(F.expected_max(n) - m_n),
            abs(reward_v2(F, n, ThresholdRule(0.0, 0.0)) - e0),
            abs(reward_v2(F, n, ThresholdRule(a, 0.0)) - ea),
            abs(reward_v2(F, n, ThresholdRule(1.0, 0.0)) - e1),
        )
    check("criterion 7: Samuel-Cahn closed forms match generic evaluation",
          worst <= 1e-12, f"max dev={worst:.2e}")


def test_criterion_08_ehsani_fixture():
    best = optimal_rule(ehsani_distribution(100), 100, mode="level-search")
    check("criterion 8: Ehsani two-atom optimal ratio at n=100 exceeds 0.95",
          best.evaluation.ratio > 0.95, f"ratio={best.evaluation.ratio:.4f}")


def test_criterion_09_solver_certificates(table_reports):
    from prophet_sharp.kernel import payoff_matrix

    replay_ok = True
    for (kind, n), rep in table_reports.items():
        M = payoff_matrix("ratio" if kind == "ratio" else "difference", n, 2000).entries
        row = M @ rep.mu
        col = M.T @ rep.lam
        if kind == "ratio":
            replay_ok &= row.max() - rep.value <= rep.gap + 1e-12
            replay_ok &= rep.value - col.min() <= rep.gap + 1e-12
        else:
            replay_ok &= rep.value - row.min() <= rep.gap + 1e-12
            replay_ok &= col.max() - rep.value <= rep.gap + 1e-12
    rng = np.random.default_rng(7)
    oracle_dev = 0.0
    for size in (3, 4):
        for _ in range(25):
            M = rng.random((size, size))
            oracle_dev = max(
                oracle_dev,
                abs(solve_game(M, "minmax").value - oracle_minmax(M)),
                abs(solve_game(M, "maxmin").value - oracle_maxmin(M)),
            )
    check("criterion 9: certificates replay arithmetically; 3x3/4x4 match enumeration",
          replay_ok and oracle_dev <= 1e-9, f"max oracle dev={oracle_dev:.2e}")


def test_criterion_10_support_exclusion(ratio_1000):
    worst = 0.0
    for n, rep in ratio_1000.items():
        cutoff_level = 1.0 - support_cutoff(n) / n
        levels = np.arange(1, 1000) / 1000
        worst = max(worst, float(rep.lam[levels >= cutoff_level].sum()))
    check("criterion 10: stopper mass above 1 - c_n/n is <= 10*tol (n in {4,10,25}, N=1000)",
          worst <= 10 * TOL, f"max mass={worst:.2e}")


def test_criterion_11_monte_carlo_gate():
    rng = np.random.default_rng(90210)
    misses = 0
    for rep in range(100):
        F = random_dist(rng, max_atoms=5)
        n = int(rng.integers(2, 9))
        theta = float(rng.choice(F.values))
        p = float(rng.choice([0.0, 0.5, 1.0]))
        cfg = SimConfig(trials=10**5, seed=int(rng.integers(0, 2**63)), n=n)
        rule = ThresholdRule(theta, p)
        res = run_rule(F, rule, cfg)
        target = reward_v1(F, n, rule)
        if abs(res.mean - target) > 4 * max(res.std_error, 1e-12):
            misses += 1
    # bit-identical replay on a fixed configuration
    F = random_dist(rng, max_atoms=4)
    cfg = SimConfig(trials=10**5, seed=1234, n=5)
    rule = ThresholdRule(float(F.values[0]), 0.5)
    identical = run_rule(F, rule, cfg) == run_rule(F, rule, cfg)
    check("criterion 11: MC within 4*SE in >= 99/100 configs; replay bit-identical",
          misses <= 1 and identical, f"misses={misses}")


def test_criterion_12_monotonicity_under_doubling():
    # lfd_N lies in the 2N family, so v_2N <= max ratio(lfd_N, x) and
    # v_2N >= min regret(lfd_N, x), both over the 2N level grid
    failures = []
    for n in (5, 10):
        for N in (250, 500):
            r1, r2 = sharp_ratio(n, N, TOL), sharp_ratio(n, 2 * N, TOL)
            bound = optimal_rule(r1.lfd, n, mode="grid-exact", grid_size=2 * N).evaluation.ratio
            if not r2.value <= bound + 2 * TOL:
                failures.append(("ratio", n, N, bound - r2.value))
            a1, a2 = sharp_regret(n, N, TOL), sharp_regret(n, 2 * N, TOL)
            bound = optimal_rule(a1.lfd, n, mode="grid-exact", grid_size=2 * N).evaluation.regret
            if not a2.value >= bound - 2 * TOL:
                failures.append(("regret", n, N, a2.value - bound))
    check("criterion 12: lfd_N bounds the 2N value (ratio from above, regret from below; 2*tol)",
          not failures, f"violations={failures}" if failures else "")


def test_criterion_13_constrained_families():
    kap = kappa(10, 2000, tol=1e-3)
    kappa_ok = abs(kap.value - 0.594) <= 0.03
    par = pareto_ratio(10, 2000, 20.0, 5.0, tol=1e-6)
    pareto_ok = abs(par.value - 0.897) <= 0.02
    a = kappa(10, 500, tol=1e-3, sigma=1.0)
    b = kappa(10, 500, tol=1e-3, sigma=2.0)
    homog_ok = abs(b.value - 2.0 * a.value) <= 1e-6
    check("criterion 13: kappa_10 ~ 0.594 (soft), pareto ~ 0.897 (soft), homogeneity (hard)",
          kappa_ok and pareto_ok and homog_ok,
          f"kappa={kap.value:.4f}, pareto={par.value:.4f}, |k(2)-2k(1)|={abs(b.value - 2*a.value):.2e}")


def test_criterion_14_kernel_lipschitz():
    rng = np.random.default_rng(777)
    ok = True
    for n in (2, 5, 10):
        La = lipschitz_a(n)
        x, xp, y = rng.random((3, 100000))
        va, vb = kernel_a(x, y, n), kernel_a(xp, y, n)
        ok &= bool(np.all(np.abs(va - vb) <= La * np.abs(x - xp) + 1e-12))
        vc, vd = kernel_a(y, x, n), kernel_a(y, xp, n)
        ok &= bool(np.all(np.abs(vc - vd) <= La * np.abs(x - xp) + 1e-12))
        eps = 0.2
        Lr = lipschitz_r(n, eps)
        xr, xrp = rng.uniform(0, 1 - eps, (2, 100000))
        yr = rng.random(100000)
        ra, rb = kernel_r(xr, yr, n), kernel_r(xrp, yr, n)
        ok &= bool(np.all(np.abs(ra - rb) <= Lr * np.abs(xr - xrp) + 1e-12))
        yrp = rng.random(100000)
        rc, rd = kernel_r(xr, yr, n), kernel_r(xr, yrp, n)
        ok &= bool(np.all(np.abs(rc - rd) <= Lr * np.abs(yr - yrp) + 1e-12))
    check("criterion 14: kernel Lipschitz bounds hold on 1e5 random triples per n",
          ok)
