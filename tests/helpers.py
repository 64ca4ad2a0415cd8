"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's closed forms: expectations
are computed by exhaustive enumeration, game values by Shapley-Snow kernel
enumeration (optimal strategies of a matrix game live on square submatrices).
"""

import importlib
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import isotonic_regression, linprog, lsq_linear, nnls

from prophet_sharp import DiscreteDistribution, grid_distribution, prophet_weights, reward_weights
from prophet_sharp import constrained, game
from prophet_sharp.kernel import Generator, KernelKind

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """Import perfbench/<name>.py under its own name, as the benchmark's
    worker does; its own imports of sibling modules (checks imports oracles
    and workloads) resolve the same way."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


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


def game_lp(M: np.ndarray, sense: str) -> tuple[float, float]:
    """(value, gap) of min_mu max_i (M mu)_i ("minmax") or max_mu min_i
    (M mu)_i ("maxmin") by one dense linprog over (mu, t): sgn M mu <= sgn t,
    sum mu = 1, min sgn t.  lam comes from the LP duals; value is t clipped
    into the replayed bounds and gap the larger distance to them."""
    M = np.asarray(M, dtype=np.float64)
    rows, cols = M.shape
    sgn = 1.0 if sense == "minmax" else -1.0
    c = np.concatenate((np.zeros(cols), [sgn]))
    A_ub = np.hstack([sgn * M, -sgn * np.ones((rows, 1))])
    A_eq = np.concatenate((np.ones(cols), [0.0])).reshape(1, -1)
    bounds = [(0.0, None)] * cols + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(rows), A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    mu = np.maximum(res.x[:cols], 0.0)
    mu /= mu.sum()
    lam = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=np.float64), 0.0)
    lam /= lam.sum()
    row_payoffs, col_payoffs = M @ mu, M.T @ lam
    if sense == "minmax":
        upper, lower = float(row_payoffs.max()), float(col_payoffs.min())
    else:
        lower, upper = float(row_payoffs.min()), float(col_payoffs.max())
    value = min(max(float(res.x[-1]), lower), upper)
    return value, max(upper - value, value - lower, 0.0)


def cold_sharp(kind: str, n: int, N: int, tol: float = 1e-7) -> tuple[float, float, int]:
    """(value, gap, rounds) of the grid game of sharp_ratio ("ratio") or
    sharp_regret ("regret") by game._matrix_game from the single level
    m // 2 a side, with no seeded block: R_N mu = B (mu/d) and
    R_N^T lam = (B^T lam)/d, or -A_N mu = B mu - d^T mu and
    -A_N^T lam = B^T lam - d, replayed through kernel.Generator."""
    ratio = kind == "ratio"
    sgn, m = (1.0 if ratio else -1.0), N - 1
    gen = Generator(n, N)
    d = gen.d
    if ratio:
        matvec, rmatvec = (lambda mu: gen.matvec(mu / d)), (lambda lam: gen.rmatvec(lam) / d)
    else:
        matvec, rmatvec = (lambda mu: gen.matvec(mu) - d @ mu), (lambda lam: gen.rmatvec(lam) - d)
    kernel = KernelKind.RATIO if ratio else KernelKind.DIFFERENCE
    _, _, value, gap, stats = game._matrix_game(
        lambda rows, cols: sgn * gen.block(kernel, rows, cols), matvec, rmatvec, (m, m),
        [m // 2], [m // 2], tol)
    return sgn * value, gap, stats["rounds"]


def limit_regret_matrix(K: int) -> np.ndarray:
    """The n -> infinity regret game A_inf(s, t) on a geometric grid of K
    points in [1e-4, 60], rows the stopper's s and columns the adversary's t:
    e^-s - e^-t for t >= s, (1 - e^-t) - (t/s)(1 - e^-s) for t < s."""
    x = np.geomspace(1e-4, 60.0, K)
    s, t = x[:, None], x[None, :]
    return np.where(t >= s, np.exp(-s) - np.exp(-t), -np.expm1(-t) + (t / s) * np.expm1(-s))


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


def band_min_lp(e, q_lo, q_hi) -> float:
    """min e^T v over increments v of nondecreasing u with q_lo <= u <= q_hi,
    by a dense linprog in u (e^T v = sum_j (e_j - e_{j+1}) u_j, e_m = 0);
    -inf when it is unbounded below."""
    m = e.size
    res = linprog(e - np.append(e[1:], 0.0), A_ub=np.eye(m - 1, m) - np.eye(m - 1, m, 1),
                  b_ub=np.zeros(m - 1),
                  bounds=[(lo, hi if np.isfinite(hi) else None) for lo, hi in zip(q_lo, q_hi)],
                  method="highs")
    assert res.status in (0, 3), res.message
    return -np.inf if res.status == 3 else res.fun


def band_ratio_lp(c, d, q_lo, q_hi) -> float:
    """inf of c^T v / d^T v over the band's nonzero increments v, by the
    Charnes-Cooper LP in w = s v and s >= 0: min c^T w s.t. d^T w = 1 and
    s q_lo <= cumsum(w) <= s q_hi (finite q_hi only).  s = 0 is allowed, so
    the band's rays (q_hi = +inf) count."""
    m = c.size
    L = np.tril(np.ones((m, m)))
    hi = np.isfinite(q_hi)
    A_ub = np.vstack([np.hstack([-L, q_lo[:, None]]), np.hstack([L[hi], -q_hi[hi, None]])])
    res = linprog(np.append(c, 0.0), A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                  A_eq=np.append(d, 0.0)[None, :], b_eq=[1.0], bounds=[(0.0, None)] * (m + 1),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def variance_q_matrix(N: int) -> np.ndarray:
    """Q with Q[i-1, j-1] = min(i, j)/N - ij/N^2 (Brownian-bridge covariance)."""
    i = np.arange(1, N, dtype=np.float64)
    return np.minimum.outer(i, i) / N - np.outer(i, i) / N**2


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


def cold_kappa(n: int, N: int) -> tuple[float, float]:
    """(value, gap) of kappa(n, N) with its stopper block grown from
    level 0 alone, as kappa ran before its seed: each round solves the block
    by constrained._min_norm_mixture and adds argmin A_N z until it is in the
    block; both ends are replayed as kappa replays them (the upper end capped
    at the lower).  SolverError where kappa's primal z gives no lower end."""
    m, gen = N - 1, Generator(n, N)

    def direction(mu):  # C^T mu = D^T (d sum(mu) - B^T mu)
        return np.diff(gen.d * mu.sum() - gen.rmatvec(mu), prepend=0.0, append=0.0)

    block, w = [0], np.ones(1)
    rows = direction(np.eye(1, m, 0)[0])[None, :]
    while True:
        w = constrained._min_norm_mixture(rows, w)[0]
        p = isotonic_regression(direction(np.bincount(block, w, m)), increasing=False).x
        z = -np.diff(p)
        a = gen.d @ z - gen.matvec(z)
        best = int(np.argmin(a))
        if best in block:
            break
        block.append(best)
        rows = np.vstack((rows, direction(np.eye(1, m, best)[0])))
        w = np.append(w, 0.0)
    if not a.min() > 0.0:
        raise game.SolverError(f"cold kappa primal is 0 or on A_N's zero diagonal: {a.min():.3e}")
    z /= a.min()
    norm_sq = float(np.var(np.append(np.cumsum(z[::-1])[::-1], 0.0)))
    lower, upper = 1.0 / np.sqrt(norm_sq), 1.0 / np.sqrt(min(1.0 / (N * float(p @ p)), norm_sq))
    return float(lower), float(upper - lower)


def min_norm_mixture_bisecting(rows: np.ndarray, w: np.ndarray):
    """constrained._min_norm_mixture without its convexity skip: every Newton
    point that does not lower ||Pi_K(rows^T w)||^2 while the slope <p, delta>
    is negative is followed by the 60-step bisection.  Same returns (w,
    projections, line searches), so it can be patched in for the fast path.
    """
    projections = searches = 0

    def project(w):
        nonlocal projections
        projections += 1
        return isotonic_regression(w @ rows, increasing=False)

    fit = project(w)
    while True:
        M = np.add.reduceat(rows, fit.blocks[:-1], axis=1) / np.sqrt(np.diff(fit.blocks))
        u = nnls(np.vstack((M.T, np.ones(w.size))), np.append(np.zeros(M.shape[1]), 1.0))[0]
        step = u / u.sum()
        new, delta = project(step), (step - w) @ rows
        if not new.x @ new.x < fit.x @ fit.x and fit.x @ delta < 0.0:
            searches += 1
            lo, hi = 0.0, 1.0
            for _ in range(60):
                t = 0.5 * (lo + hi)
                lo, hi = (lo, t) if project(w + t * (step - w)).x @ delta > 0.0 else (t, hi)
            step = w + lo * (step - w)
            new = project(step)
        if not new.x @ new.x < fit.x @ fit.x:
            return w, projections, searches
        w, fit = step, new


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


def to_csv(dist: DiscreteDistribution) -> str:
    """dist as the 'value,prob' CSV that DiscreteDistribution.from_csv reads."""
    lines = ["value,prob"]
    lines += [f"{format(v, '.17g')},{format(p, '.17g')}" for v, p in zip(dist.values, dist.probs)]
    return "\n".join(lines) + "\n"


def random_grid_member(rng, N: int, scale: float = 2.0) -> DiscreteDistribution:
    v = rng.exponential(scale / N, size=N - 1)
    v[rng.random(N - 1) < 0.4] = 0.0
    return grid_distribution(np.cumsum(v), N)
