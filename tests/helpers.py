"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's closed forms: expectations
are computed by exhaustive enumeration, game values by Shapley-Snow kernel
enumeration (optimal strategies of a matrix game live on square submatrices).
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, lsq_linear

from prophet_sharp import DiscreteDistribution, QuantileIncrements, prophet_weights, reward_weights


def enumerate_prophet(dist: DiscreteDistribution, n: int) -> float:
    """E max of n iid draws by summing over all |atoms|^n outcomes."""
    total = 0.0
    for seq in product(range(dist.values.size), repeat=n):
        prob = float(np.prod(dist.probs[list(seq)]))
        total += prob * float(dist.values[list(seq)].max())
    return total


def enumerate_rule_reward(dist, n: int, theta: float, p: float) -> float:
    """Expected reward of tau_p(theta) by exhaustive enumeration.

    Walks every atom sequence; tie steps branch on the Bernoulli(p) outcome
    with the matching weight, so randomization is integrated exactly.
    """
    values, probs = dist.values, dist.probs
    total = 0.0
    for seq in product(range(values.size), repeat=n):
        xs = values[list(seq)]
        prob = float(np.prod(probs[list(seq)]))

        def walk(t: int, weight: float) -> float:
            if t == n - 1:
                return weight * xs[n - 1]
            x = xs[t]
            if x > theta:
                return weight * x
            if x == theta:
                return weight * p * x + walk(t + 1, weight * (1.0 - p))
            return walk(t + 1, weight)

        total += prob * walk(0, 1.0)
    return total


def exact_best_level(dist, n: int) -> tuple[float, float]:
    """Level x in [0, 1] maximizing the level-x rule reward, and that reward.

    Between consecutive jump levels of dF^{<-} the reward is the polynomial
    P - Q x^{n-1} + T sum_{k<n} x^k, where P and Q sum the jump weights w and
    w*y at levels y <= x and T sums w*(1-y) at levels y > x.  The reward is
    continuous in x, so each piece is maximized over its two ends and the
    roots of its derivative (real parts of all roots, clipped into the piece,
    so that no real root is lost to rounding).  T takes 1 - y from the tail
    masses, summed from the atom probabilities.
    """
    levels, weights, tails = dist.quantile_jumps()
    ends = np.append(levels, 1.0)
    best_x, best_v = 0.0, -np.inf
    for j in range(levels.size):
        a, b = ends[j], ends[j + 1]
        low = levels <= a
        coef = np.full(n, weights[~low] @ tails[~low])
        coef[0] += weights[low].sum()
        coef[n - 1] -= weights[low] @ levels[low]
        piece = np.polynomial.Polynomial(coef)
        xs = np.concatenate(([a, b], np.clip(piece.deriv().roots().real, a, b)))
        vals = piece(xs)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_x, best_v = float(xs[k]), float(vals[k])
    return best_x, best_v


def exact_jumps(dist) -> tuple[list, list, list]:
    """Jump levels, masses and tail masses of dF^{<-} in exact rationals.

    The tail mass at atom k is the exact sum of the float probabilities of
    atoms k, k+1, ...; the level is one minus it.
    """
    values = [Fraction(float(v)) for v in dist.values]
    probs = [Fraction(float(p)) for p in dist.probs]
    tails = [sum(probs[k:]) for k in range(len(probs))]
    weights = [values[0]] + [b - a for a, b in zip(values, values[1:])]
    return [1 - t for t in tails], weights, tails


def exact_level_reward(dist, n: int, x: float) -> Fraction:
    """Reward of the level-x rule, sum_k w_k b(x, y_k), in exact rationals."""
    x = Fraction(float(x))
    g = sum(x**k for k in range(n))
    return sum(w * (1 - x ** (n - 1) * y if y <= x else t * g)
               for y, w, t in zip(*exact_jumps(dist)))


def exact_expected_max(dist, n: int) -> Fraction:
    """E max of n iid draws, sum_k w_k (1 - y_k^n), in exact rationals."""
    levels, weights, _ = exact_jumps(dist)
    return sum(w * (1 - y**n) for y, w in zip(levels, weights))


def pareto_bisection(n: int, N: int, q_lo, q_hi, tol: float = 1e-9) -> tuple[float, float]:
    """[lo, hi] around the worst-case ratio max_i (B v)_i / d^T v over
    increments v of cumulative quantiles u with q_lo <= u <= q_hi.

    Bisection on the level rho over dense feasibility LPs in u: bounds
    q_lo <= u <= q_hi, monotone increments, (B - rho 1 d^T) v <= s,
    d^T v >= 1, min s; rho is feasible when s <= 1e-9.  B is the dense
    reward_weights matrix.  The constraint d^T v >= 1 is a scale
    normalization that holds on bands with q_lo[0] > 1.
    """
    m = N - 1
    B, d = reward_weights(n, N), prophet_weights(n, N)
    # column-difference transform: (B v)_i = (Btil u)_i for v = increments(u)
    Btil = B.copy()
    Btil[:, :-1] -= B[:, 1:]
    dtil = d.copy()
    dtil[:-1] -= d[1:]
    monotone = sp.hstack(
        [sp.diags([np.ones(m - 1), -np.ones(m - 1)], [0, 1], shape=(m - 1, m)),
         sp.csr_matrix((m - 1, 1))], format="csr")
    normalize = sp.csr_matrix(np.append(-dtil, 0.0).reshape(1, -1))
    bounds = [(lo, hi if np.isfinite(hi) else None) for lo, hi in zip(q_lo, q_hi)]
    bounds.append((-1.0, None))
    cost = np.append(np.zeros(m), 1.0)
    b_ub = np.append(np.zeros(2 * m - 1), -1.0)

    def feasible(rho):
        dense = np.hstack([Btil - rho * dtil[None, :], -np.ones((m, 1))])
        A_ub = sp.vstack([sp.csr_matrix(dense), monotone, normalize], format="csr")
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert res.status in (0, 2), res.message
        return res.status == 0 and res.x[-1] <= 1e-9

    lo, hi = 0.0, 1.0
    assert feasible(hi), "band inconsistent at rho = 1"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return lo, hi


def kappa_ldp(n: int, N: int) -> float:
    """kappa_n as a least-distance program, solved densely by BVLS.

    With z = D r, z_k = r_k - r_{k+1}, the variance z^T Q z is the least
    ||r||^2 / N over such r, so kappa_n = sqrt(N) / min{ ||r|| : G r >= h }
    with G = [A_N D; D] and h = [1; 0].  Lawson and Hanson's reduction:
    solve min ||E u - f|| over u >= 0 with E = [G^T; h^T], f = e_last;
    the residual rho gives r = -rho[:-1] / rho[-1].  A_N = d - B is dense.
    """
    m = N - 1
    A = prophet_weights(n, N)[None, :] - reward_weights(n, N)
    D = np.eye(m, N) - np.eye(m, N, k=1)
    G = np.vstack([A @ D, D])
    h = np.append(np.ones(m), np.zeros(m))
    E = np.vstack([G.T, h])
    f = np.append(np.zeros(N), 1.0)
    u = lsq_linear(E, f, bounds=(0.0, np.inf), method="bvls").x
    rho = E @ u - f
    r = -rho[:-1] / rho[-1]
    return float(np.sqrt(N) / np.linalg.norm(r))


def _adjugate(B: np.ndarray) -> np.ndarray:
    k = B.shape[0]
    if k == 1:
        return np.ones((1, 1))
    cof = np.empty_like(B)
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(B, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return cof.T


def enumerated_game_value(G: np.ndarray, tol: float = 1e-9) -> float:
    """Value of the game where the row player maximizes x^T G y.

    Enumerates all square submatrices (Shapley-Snow kernels) and returns the
    first candidate whose strategies certify a saddle point.
    """
    G = np.asarray(G, dtype=np.float64)
    rows, cols = G.shape
    for k in range(1, min(rows, cols) + 1):
        for I in combinations(range(rows), k):
            for J in combinations(range(cols), k):
                B = G[np.ix_(I, J)]
                adj = _adjugate(B)
                den = float(adj.sum())
                if abs(den) < 1e-13:
                    continue
                v = float(np.linalg.det(B)) / den
                x = np.zeros(rows)
                x[list(I)] = adj.sum(axis=0) / den
                y = np.zeros(cols)
                y[list(J)] = adj.sum(axis=1) / den
                if x.min() < -1e-10 or y.min() < -1e-10:
                    continue
                x, y = np.maximum(x, 0.0), np.maximum(y, 0.0)
                x, y = x / x.sum(), y / y.sum()
                if (G.T @ x).min() >= v - tol and (G @ y).max() <= v + tol:
                    return v
    raise AssertionError("no certified Shapley-Snow kernel found")


def oracle_minmax(M: np.ndarray) -> float:
    """min_mu max_i (M mu)_i  (the row player of M maximizes)."""
    return enumerated_game_value(M)


def oracle_maxmin(M: np.ndarray) -> float:
    """max_mu min_i (M mu)_i  (the column player of M maximizes)."""
    return enumerated_game_value(M.T)


def random_dist(rng, max_atoms: int = 5, vmax: float = 3.0) -> DiscreteDistribution:
    k = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.choice(np.linspace(0.0, vmax, 200), size=k, replace=False))
    probs = rng.dirichlet(np.ones(k))
    probs = probs / probs.sum()
    return DiscreteDistribution(values, probs)


def random_grid_member(rng, N: int, scale: float = 2.0) -> DiscreteDistribution:
    v = rng.exponential(scale / N, size=N - 1)
    v[rng.random(N - 1) < 0.4] = 0.0
    return QuantileIncrements(N, v).to_distribution()
