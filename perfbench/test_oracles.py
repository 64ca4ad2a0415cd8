"""Brute-force checks of the benchmark's checkers on tiny cases.

Run with `python3 -m pytest perfbench/test_oracles.py`.
"""

from itertools import product

import numpy as np
import pytest

import oracles as o


def enumerate_rule(values, probs, n, theta, p):
    """(E R, E R^2) of the rule's reward R over every sequence of atoms; a
    tie branches on the Bernoulli(p) draw with its weight."""
    m1 = m2 = 0.0
    for seq in product(range(len(values)), repeat=n):
        xs = [values[k] for k in seq]
        weight = float(np.prod([probs[k] for k in seq]))
        branches = [(1.0, None)]  # (probability, reward once stopped)
        for t, x in enumerate(xs):
            nxt = []
            for w, r in branches:
                if r is not None or t == n - 1:
                    nxt.append((w, x if r is None else r))
                elif x > theta:
                    nxt.append((w, x))
                elif x == theta:
                    nxt += [(w * p, x), (w * (1.0 - p), None)]
                else:
                    nxt.append((w, None))
            branches = nxt
        m1 += weight * sum(w * r for w, r in branches)
        m2 += weight * sum(w * r * r for w, r in branches)
    return m1, m2


def enumerate_max(values, probs, n):
    m1 = m2 = 0.0
    for seq in product(range(len(values)), repeat=n):
        weight = float(np.prod([probs[k] for k in seq]))
        top = max(values[k] for k in seq)
        m1 += weight * top
        m2 += weight * top * top
    return m1, m2


def level_rule(values, probs, x: float) -> tuple[float, float]:
    """The rule (theta, p) whose no-stop probability is exactly x: theta is
    the x-quantile and p resolves the atom's mass."""
    vals, w = np.asarray(values, float), np.asarray(probs, float)
    F = np.cumsum(w)
    k = min(int(np.searchsorted(F, x - 1e-15, side="left")), vals.size - 1)
    theta = float(vals[k])
    Ft = float(w[vals <= theta].sum())
    q = float(w[vals == theta].sum())
    p = min(max((Ft - x) / q, 0.0), 1.0) if Ft - x > 1e-12 else 0.0
    return theta, p


def tiny_dists(seed, count, max_atoms=3):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, max_atoms + 1))
        values = np.sort(rng.choice(np.linspace(0.0, 3.0, 31), size=k, replace=False))
        probs = rng.dirichlet(np.ones(k))
        yield rng, list(values), list(probs / probs.sum())


def test_rule_moments_match_enumeration():
    for rng, values, probs in tiny_dists(1, 60):
        n = int(rng.integers(2, 5))
        theta = float(rng.choice(values + [float(rng.uniform(0, 3))]))
        p = float(rng.choice([0.0, 0.3, 1.0]))
        mean, var = o.rule_moments(values, probs, n, theta, p)
        e1, e2 = enumerate_rule(values, probs, n, theta, p)
        assert mean == pytest.approx(e1, abs=1e-12)
        assert var == pytest.approx(e2 - e1 * e1, abs=1e-12)


def test_prophet_moments_match_enumeration():
    for rng, values, probs in tiny_dists(2, 40):
        n = int(rng.integers(1, 5))
        mean, var = o.prophet_moments(values, probs, n)
        e1, e2 = enumerate_max(values, probs, n)
        assert mean == pytest.approx(e1, abs=1e-12)
        assert var == pytest.approx(e2 - e1 * e1, abs=1e-12)


def test_level_reward_is_the_reward_of_the_level_rule():
    for rng, values, probs in tiny_dists(3, 40):
        n = int(rng.integers(2, 5))
        xs = np.concatenate((rng.random(3), np.cumsum(probs)[:-1], [0.0, 1.0]))
        got = o.level_rewards(values, probs, n, xs)
        for x, r in zip(xs, got):
            theta, p = level_rule(values, probs, float(x))
            assert r == pytest.approx(enumerate_rule(values, probs, n, theta, p)[0], abs=1e-12)


def test_exact_best_level_is_attained_and_never_beaten():
    for rng, values, probs in tiny_dists(4, 60, max_atoms=5):
        n = int(rng.integers(2, 9))
        x, v = o.exact_best_level(values, probs, n)
        assert o.level_rewards(values, probs, n, [x])[0] == pytest.approx(v, abs=1e-12)
        scan = o.level_rewards(values, probs, n, np.linspace(0.0, 1.0, 20001))
        assert scan.max() <= v + 1e-12


def test_matrices_are_rewards_on_two_point_distributions():
    # the jump at level y is the distribution 0 w.p. y, 1 w.p. 1 - y
    n, N = 3, 5
    g = o.grid(N)
    B, d = o.reward_matrix(n, N), o.prophet_vector(n, N)
    for i, x in enumerate(g):
        for j, y in enumerate(g):
            values, probs = [0.0, 1.0], [y, 1.0 - y]
            theta, p = level_rule(values, probs, x)
            assert B[i, j] == pytest.approx(enumerate_rule(values, probs, n, theta, p)[0], abs=1e-12)
            assert d[j] == pytest.approx(enumerate_max(values, probs, n)[0], abs=1e-12)
    assert np.allclose(o.ratio_kernel(g[:, None], g[None, :], n), B / d, rtol=0, atol=1e-15)
    assert np.allclose(o.diff_kernel(g[:, None], g[None, :], n), d - B, rtol=0, atol=1e-15)
    assert np.array_equal(o.diff_matrix(n, N), d[None, :] - B)


def test_ratio_kernel_limit_at_y_one():
    for n in (2, 5, 10):
        for x in (0.0, 0.3, 0.9):
            assert o.ratio_kernel(x, 1.0, n) == pytest.approx(
                float(o.ratio_kernel(x, 1.0 - 1e-9, n)), abs=1e-6)


def test_variance_matrix_is_the_grid_member_variance():
    rng = np.random.default_rng(5)
    for N in (3, 4, 7):
        v = rng.exponential(1.0, N - 1)
        atoms = np.concatenate(([0.0], np.cumsum(v)))
        mean = atoms.mean()
        assert v @ o.variance_matrix(N) @ v == pytest.approx(((atoms - mean) ** 2).mean(), abs=1e-12)


def test_pareto_band_is_the_tail_quantile():
    N, p0, p1 = 7, 20.0, 5.0
    lo, hi = o.pareto_band(N, p0, p1)
    for p, band in ((p0, lo), (p1, hi)):
        for i, q in enumerate(band, start=1):
            a, b = 1.0, 10.0  # bisect 1 - x^{-p} = i/N
            for _ in range(200):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if 1.0 - mid ** (-p) < i / N else (a, mid)
            assert q == pytest.approx(a, rel=1e-12)


def test_ratio_bracket_orders():
    for n in (10, 25):
        lower, upper = o.ratio_bracket(n, points=10**5)
        assert 1.0 - (1.0 - 1.0 / n) ** n < lower < upper < 1.0
