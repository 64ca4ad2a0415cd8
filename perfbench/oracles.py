"""Independent checkers for the benchmark.

Every quantity here is built from its formula with numpy alone; nothing is
imported from prophet_sharp.  `test_oracles.py` compares each function with
brute-force enumeration on tiny cases.

Distributions are passed as (values, probs): sorted atom values (repeats
allowed) and their probabilities.
"""

from __future__ import annotations

import math

import numpy as np


# -- rule reward and prophet value -----------------------------------------


def rule_moments(values, probs, n: int, theta: float, p: float) -> tuple[float, float]:
    """Mean and variance of the reward of the rule (theta, p) at horizon n.

    Backward recursion over the horizon: with one observation left the rule
    takes it; with k left it stops on X > theta, or on X = theta with
    probability p, and otherwise continues.  The same recursion on X^2 gives
    the second moment.
    """
    x, w = np.asarray(values, float), np.asarray(probs, float)
    above, tie = x > theta, x == theta
    q = float(w[tie].sum())
    cont = float(w[x < theta].sum()) + (1.0 - p) * q
    head1 = float(x[above] @ w[above]) + p * theta * q
    head2 = float(x[above] ** 2 @ w[above]) + p * theta * theta * q
    m1, m2 = float(x @ w), float(x**2 @ w)
    for _ in range(n - 1):
        m1 = head1 + cont * m1
        m2 = head2 + cont * m2
    return m1, max(m2 - m1 * m1, 0.0)


def prophet_moments(values, probs, n: int) -> tuple[float, float]:
    """Mean and variance of max of n iid draws: sum_k x_k^j (F_k^n - F_{k-1}^n)."""
    x, w = np.asarray(values, float), np.asarray(probs, float)
    F = np.minimum(np.cumsum(w), 1.0)
    mass = F**n - np.concatenate(([0.0], F[:-1])) ** n
    m1, m2 = float(x @ mass), float(x**2 @ mass)
    return m1, max(m2 - m1 * m1, 0.0)


def prophet_value(values, probs, n: int) -> float:
    return prophet_moments(values, probs, n)[0]


# -- level parameterisation --------------------------------------------------


def quantile_jumps(values, probs) -> tuple[np.ndarray, np.ndarray]:
    """Jump levels y_k = F(x_{k-1}) and sizes x_k - x_{k-1} (x_{-1} = 0) of
    the quantile function on [0, 1)."""
    x, w = np.asarray(values, float), np.asarray(probs, float)
    levels = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    sizes = np.diff(x, prepend=0.0)
    return levels, sizes


def stop_weight(x, y, n: int):
    """b(x, y) = (1 - x^{n-1}) min{1, (1-y)/(1-x)} + x^{n-1} (1 - y).

    x and y broadcast against each other; at x = 1 the rule never stops
    early and b = 1 - y.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    xn1 = x ** (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(x < 1.0, (1.0 - y) / (1.0 - x), 1.0)
    return (1.0 - xn1) * np.minimum(1.0, frac) + xn1 * (1.0 - y)


def level_rewards(values, probs, n: int, xs) -> np.ndarray:
    """Reward of the level-x rule, for every x in xs, by the quantile
    integral: the sum of b(x, y_k) over the quantile jumps (y_k, size_k)."""
    levels, sizes = quantile_jumps(values, probs)
    keep = sizes != 0.0
    levels, sizes = levels[keep], sizes[keep]
    xs = np.asarray(xs, float)
    out = np.empty(xs.size)
    step = max(1, 2_000_000 // max(levels.size, 1))  # bound the temporary
    for s in range(0, xs.size, step):
        out[s:s + step] = stop_weight(xs[s:s + step, None], levels[None, :], n) @ sizes
    return out


def exact_best_level(values, probs, n: int) -> tuple[float, float]:
    """Level in [0, 1] with the largest level-x reward, and that reward.

    On each interval between consecutive jump levels the reward is the
    polynomial P - Q x^{n-1} + T (1 + x + ... + x^{n-1}), with P, Q summing
    s and s*y over jumps y <= x, and T summing s*(1-y) over jumps y > x.  It
    is continuous, so each piece is maximised at an end or at a real root of
    its derivative.
    """
    levels, sizes = quantile_jumps(values, probs)
    ends = np.append(np.unique(levels), 1.0)
    best_x, best_v = 0.0, -math.inf
    for a, b in zip(ends[:-1], ends[1:]):
        low = levels <= a
        coef = np.zeros(n)
        coef[:] = sizes[~low] @ (1.0 - levels[~low])
        coef[0] += sizes[low].sum()
        coef[n - 1] -= sizes[low] @ levels[low]
        poly = np.polynomial.Polynomial(coef)
        roots = poly.deriv().roots()
        cand = np.concatenate(([a, b], np.clip(roots.real, a, b)))
        vals = poly(cand)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_x, best_v = float(cand[k]), float(vals[k])
    return best_x, best_v


# -- game matrices and constrained families ---------------------------------


def grid(N: int) -> np.ndarray:
    return np.arange(1, N, dtype=float) / N


def reward_matrix(n: int, N: int) -> np.ndarray:
    """B[i, j] = b(i/N, j/N): reward of level i/N on the jump at level j/N."""
    g = grid(N)
    return stop_weight(g[:, None], g[None, :], n)


def prophet_vector(n: int, N: int) -> np.ndarray:
    """d[j] = 1 - (j/N)^n: prophet value of the jump at level j/N."""
    return 1.0 - grid(N) ** n


def ratio_kernel(x, y, n: int):
    """R(x, y) = b(x, y) / (1 - y^n), with R = 1 on the diagonal."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = stop_weight(x, y, n) / (1.0 - y**n)
    # y = 1 limit of the x < y branch: (1 - x^n) / ((1 - x) n)
    with np.errstate(divide="ignore", invalid="ignore"):
        limit = np.where(x < 1.0, (1.0 - x**n) / ((1.0 - x) * n), 1.0)
    r = np.where(y == 1.0, limit, r)
    return np.where(x == y, 1.0, r)


def diff_kernel(x, y, n: int):
    """A(x, y) = (1 - y^n) - b(x, y): prophet minus reward."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return (1.0 - y**n) - stop_weight(x, y, n)


def diff_matrix(n: int, N: int) -> np.ndarray:
    """A_N = 1 d^T - B: A(i/N, j/N) (rows: stopper levels, cols: jumps)."""
    g = grid(N)
    return diff_kernel(g[:, None], g[None, :], n)


def variance_matrix(N: int) -> np.ndarray:
    """Q[i, j] = min(g_i, g_j) - g_i g_j: v^T Q v is the variance of the grid
    member with quantile increments v."""
    g = grid(N)
    return np.minimum.outer(g, g) - np.outer(g, g)


def pareto_band(N: int, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """i/N-quantiles (N/(N-i))^{1/p} of P(X > x) = x^{-p}, for p = p0 and p1."""
    base = N / (N - np.arange(1, N, dtype=float))
    return base ** (1.0 / p0), base ** (1.0 / p1)


# -- error bounds and certified brackets -----------------------------------


def err_ratio(n: int, N: int) -> float:
    """(n-1) / (2N [(1-1/e)^2 - 1/(n-1)])."""
    return (n - 1) / (2.0 * N * ((1.0 - math.exp(-1.0)) ** 2 - 1.0 / (n - 1)))


def err_diff(n: int, N: int) -> float:
    """(n-1) / (2N)."""
    return (n - 1) / (2.0 * N)


#: stopper mixtures (level, weight) and three-atom distributions (value, prob)
#: that bracket the continuum sharp ratio at n = 10 and n = 25
STOPPER = {10: ((0.915, 0.018), (0.916, 0.982)), 25: ((0.962, 0.0298), (0.963, 0.9702))}
ADVERSARY = {
    10: ((0.0, 0.7386596), (0.476173, 0.2613394), (54686.0, 1e-6)),
    25: ((0.0, 0.8570877), (0.446998, 0.1429113), (22499.23, 1e-6)),
}


def ratio_bracket(n: int, points: int = 10**6) -> tuple[float, float]:
    """[L*, U*] for the continuum sharp single-threshold ratio at horizon n.

    L*: the stopper mixture's averaged ratio kernel minimised over `points`
    equal steps of y in [0, 1], less the Lipschitz slack of R in y, holds on
    every distribution.  U*: the exact best ratio on the fixed distribution.
    """
    ys = np.linspace(0.0, 1.0, points + 1)
    guarantee = sum(w * ratio_kernel(x, ys, n) for x, w in STOPPER[n])
    eps = 1.0 - max(x for x, _ in STOPPER[n])
    slack = (n - 1) / (1.0 - (1.0 - eps) ** n) / (2 * points)
    vals, probs = zip(*ADVERSARY[n])
    upper = exact_best_level(vals, probs, n)[1] / prophet_value(vals, probs, n)
    return float(guarantee.min()) - slack, upper
