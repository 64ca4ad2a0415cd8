"""Sharp constants for restricted distribution families.

Bounded variance: the worst-case regret over the variance-<=sigma^2 grid
family is kappa_n * sigma, kappa_n = 1 / sqrt(min{ z^T Q z : A_N z >= 1,
z >= 0 }), solved by an isotonic-regression split (see kappa).  Pareto-like
tails: the worst-case ratio over a two-sided band on the cumulative
quantiles is a linear-fractional program, one sparse LP after the
Charnes-Cooper change of variables on kernel.reward_rows' row block.
Both ends of each bracket are replayed in O(N).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
# perfbench/spans.py's SOLVERS wraps constrained.minimize by name, although
# nothing here calls it any more
from scipy.optimize import isotonic_regression, linprog, minimize, nnls  # noqa: F401

from .game import SolverError
from .kernel import (
    check_grid,
    csr_from_blocks,
    prophet_weights,
    reward_matvec,
    reward_rmatvec,
    reward_rows,
)


def variance_q_matrix(N: int) -> np.ndarray:
    """Q with Q[i-1, j-1] = min(i, j)/N - ij/N^2 (Brownian-bridge covariance)."""
    i = np.arange(1, N, dtype=np.float64)
    return np.minimum.outer(i, i) / N - np.outer(i, i) / N**2


@dataclass(frozen=True)
class KappaResult:
    value: float
    z: np.ndarray
    certificate: dict

    def to_json(self) -> str:
        return json.dumps({"kappa": self.value, "certificate": self.certificate})


def kappa(n: int, N: int, tol: float = 1e-3, sigma: float = 1.0) -> KappaResult:
    """kappa_n on the N-grid, scaled by the variance budget sigma.

    With S_k = sum_{i>=k} z_i (S_N = 0), z^T Q z = min_c ||S - c||^2 / N, and
    z >= 0 puts r = S - c in the cone K of nonincreasing sequences.  With
    C = A_N D, (D r)_k = r_k - r_{k+1}, dualizing C r >= 1 gives the split
        kappa_n = sqrt(N) min { ||Pi_K(C^T mu)|| : mu >= 0, sum mu = 1 },
    Pi_K an isotonic regression (PAVA).  The gradient in mu of ||p||^2 / 2,
    p = Pi_K(C^T mu), is A_N z, z = -diff(p) >= 0.  mu lives on a block of
    levels grown from level 0 by argmin A_N z, the stopper's best response,
    until it is already in the block; _min_norm_mixture solves each block.
    Nothing is read from a solver: any mu gives kappa_upper = sigma sqrt(N)
    ||p||, as 1 <= mu^T C r <= <p, r> <= ||p|| ||r|| for feasible r (capped
    at kappa_lower if rounding puts it below), and z scaled to min A_N z = 1
    and then to z^T Q z = sigma^2 gives kappa_lower.  SolverError when the
    gap exceeds tol, or when min A_N z <= 0: at some sizes with n >= 50 and
    N <= 25, where kappa < 1e-8, Pi_K(C^T mu) is constant or has one step,
    so z is 0 or sits on levels where A_N's diagonal is 0.
    """
    n, N = check_grid(n, N)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    m = N - 1
    d = prophet_weights(n, N)

    def dual_direction(mu):  # C^T mu = D^T (d sum(mu) - B^T mu)
        return np.diff(d * mu.sum() - reward_rmatvec(n, N, mu), prepend=0.0, append=0.0)

    block, w = [0], np.ones(1)  # any start level works
    rows = dual_direction(np.eye(1, m, 0)[0])[None, :]
    while True:
        w = _min_norm_mixture(rows, w)
        p = isotonic_regression(dual_direction(np.bincount(block, w, m)), increasing=False).x
        z = -np.diff(p)
        a = d @ z - reward_matvec(n, N, z)
        best = int(np.argmin(a))
        if best in block:
            break
        block.append(best)
        rows = np.vstack((rows, dual_direction(np.eye(1, m, best)[0])))
        w = np.append(w, 0.0)

    if not a.min() > 0.0:
        raise SolverError(f"kappa primal z = -diff(Pi_K(C^T mu)) is 0 or on A_N's zero diagonal: "
                          f"min A_N z = {a.min():.3e}, dual end {sigma * np.sqrt(N * (p @ p)):.3e}")
    # primal: scale z to min A_N z = 1; its norm is the variance of S
    z /= a.min()
    norm_sq = float(np.var(np.append(np.cumsum(z[::-1])[::-1], 0.0)))
    dual_bound = min(1.0 / (N * float(p @ p)), norm_sq)
    kappa_lower, kappa_upper = sigma / np.sqrt(norm_sq), sigma / np.sqrt(dual_bound)
    gap = kappa_upper - kappa_lower
    if gap > tol:
        raise SolverError(f"kappa gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    z_star = kappa_lower * z
    certificate = {
        "kappa_lower": float(kappa_lower), "kappa_upper": float(kappa_upper), "gap": float(gap),
        "norm_sq": norm_sq, "dual_bound": dual_bound,
        "feasibility_margin": float((d @ z_star - reward_matvec(n, N, z_star)).min() - kappa_lower),
        # each round but the last adds a level; the last finds no new one
        "lbfgs_iterations": 0, "kkt_exact": True, "rounds": len(block), "block_rows": len(block),
    }
    return KappaResult(value=float(kappa_lower), z=z_star, certificate=certificate)


def _min_norm_mixture(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weights on the simplex minimizing ||Pi_K(rows^T w)||, starting from w.

    ||Pi_K||^2 is convex and piecewise quadratic: with PAVA's blocks fixed,
    Pi_K averages over blocks, so the Newton point is the min-norm point of
    the block-averaged rows, one NNLS (Lawson and Hanson, ch. 23).  A Newton
    point that does not lower ||p||^2 is replaced by an exact line search on
    the segment to it; the loop ends when neither lowers ||p||^2.
    """
    def project(w):
        return isotonic_regression(w @ rows, increasing=False)

    fit = project(w)
    while True:
        M = np.add.reduceat(rows, fit.blocks[:-1], axis=1) / np.sqrt(np.diff(fit.blocks))
        u = nnls(np.vstack((M.T, np.ones(w.size))), np.append(np.zeros(M.shape[1]), 1.0))[0]
        step = u / u.sum()
        new, delta = project(step), (step - w) @ rows
        if not new.x @ new.x < fit.x @ fit.x and fit.x @ delta < 0.0:
            # phi(t) = ||Pi_K(v + t delta)||^2 is convex with phi'(t) = 2 <Pi_K(.), delta>
            lo, hi = 0.0, 1.0
            for _ in range(60):
                t = 0.5 * (lo + hi)
                lo, hi = (lo, t) if project(w + t * (step - w)).x @ delta > 0.0 else (t, hi)
            step = w + lo * (step - w)
            new = project(step)
        if not new.x @ new.x < fit.x @ fit.x:
            return w
        w, fit = step, new


@dataclass(frozen=True)
class ParetoProblem:
    """Quantile band for the Pareto-like family: q_lo <= u_i <= q_hi."""

    n: int
    N: int
    p0: float
    p1: float
    q_lo: np.ndarray
    q_hi: np.ndarray

    def __post_init__(self):
        if self.q_lo.shape != (self.N - 1,) or self.q_hi.shape != (self.N - 1,):
            raise ValueError(f"quantile bounds must have length N-1 = {self.N - 1}")
        if np.any(self.q_lo < 0.0):
            raise ValueError("q_lo must be nonnegative")
        if np.any(self.q_lo > self.q_hi):
            raise ValueError("q_lo must be componentwise <= q_hi")
        if np.any(self.q_lo[1:] < self.q_lo[:-1]) or np.any(self.q_hi[1:] < self.q_hi[:-1]):
            raise ValueError("quantile bounds must be nondecreasing")

    @classmethod
    def build(cls, n: int, N: int, p0: float, p1: float) -> "ParetoProblem":
        if not p0 > p1 > 1.0:
            raise ValueError(f"need p0 > p1 > 1, got p0={p0!r}, p1={p1!r}")
        if n < 2 or N < 3:
            raise ValueError(f"need n >= 2 and N >= 3, got n={n!r}, N={N!r}")
        i = np.arange(1, N, dtype=np.float64)
        base = N / (N - i)
        return cls(n=n, N=N, p0=p0, p1=p1, q_lo=base ** (1.0 / p0), q_hi=base ** (1.0 / p1))


@dataclass(frozen=True)
class ParetoResult:
    value: float
    v: np.ndarray
    certificate: dict

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "certificate": self.certificate})


def pareto_ratio(
    n: int,
    N: int,
    p0: float,
    p1: float,
    tol: float = 1e-6,
    q_lo: np.ndarray | None = None,
    q_hi: np.ndarray | None = None,
) -> ParetoResult:
    """Worst-case ratio over the Pareto-like band, as one LP.

    The ratio max_i (B v)_i / d^T v over increments v of cumulative
    quantiles u with q_lo <= u <= q_hi is linear-fractional; the
    Charnes-Cooper change of variables s = 1 / d^T v, w = s v, y = s u makes
    it the LP
        min t  s.t.  (B w)_i <= t,  s q_lo <= y <= s q_hi,  d^T w = 1,
                     w >= 0, s >= 0,
    where y is the prefix sum P of w in kernel.reward_rows' block and only
    positive q_lo and finite q_hi entries give rows.  The witness is
    u = y / s clipped into the band; value is its ratio replayed through
    reward_matvec, and the bracket's lower end is a weak-duality bound on
    the LP optimum rebuilt from its duals through reward_rmatvec (never
    HiGHS's objective), capped at value.  s = 0 happens when q_hi = +inf
    where y grows (the unconstrained game, or a one-sided band): the
    witness is then q_lo + c y with c large enough that its ratio is within
    1e-6 tol of the optimum, which is v = w on the free band q_lo = 0.
    q_lo/q_hi may be overridden; they are checked as ParetoProblem checks
    its band.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    problem = ParetoProblem.build(n, N, p0, p1)
    q_lo = problem.q_lo if q_lo is None else np.asarray(q_lo, dtype=np.float64)
    q_hi = problem.q_hi if q_hi is None else np.asarray(q_hi, dtype=np.float64)
    ParetoProblem(n, N, p0, p1, q_lo, q_hi)  # checks an overridden band
    m = N - 1
    d = prophet_weights(n, N)
    i = w = np.arange(m)  # payoff rows; the w columns come first
    P = m + i
    s, t = 4 * m, 4 * m + 1
    eq, ub = reward_rows(n, N)
    eq += [(3 * m, w, d)]
    ub += [(i, t, -1.0)]
    # band rows s q_lo_i - y_i <= 0 and y_i - s q_hi_i <= 0
    lo = np.flatnonzero(q_lo > 0.0)
    hi = np.flatnonzero(np.isfinite(q_hi))
    rows_lo, rows_hi = m + np.arange(lo.size), m + lo.size + np.arange(hi.size)
    ub += [(rows_lo, s, q_lo[lo]), (rows_lo, P[lo], -1.0),
           (rows_hi, P[hi], 1.0), (rows_hi, s, -q_hi[hi])]
    n_ub, cols = m + lo.size + hi.size, 4 * m + 2
    c = np.zeros(cols)
    c[t] = 1.0
    res = linprog(c, A_ub=csr_from_blocks(ub, (n_ub, cols)), b_ub=np.zeros(n_ub),
                  A_eq=csr_from_blocks(eq, (3 * m + 1, cols)), b_eq=np.append(np.zeros(3 * m), 1.0),
                  bounds=[(0.0, None)] * (cols - 1) + [(None, None)], method="highs")
    if res.status != 0:
        raise SolverError(f"pareto LP failed with status {res.status}: {res.message}")

    # weak duality from the duals: lam >= 0 (sum 1) on the payoff rows, alpha
    # and beta >= 0 on the band rows, beta scaled so that s's reduced cost
    # sum(alpha q_lo) - sum(beta q_hi) is >= 0; then for every feasible w
    # t >= sum_j w_j c_j with c = B^T lam + suffix sums of beta - alpha, and
    # d^T w = 1 gives t >= min_j c_j / d_j
    duals = np.maximum(-res.ineqlin.marginals, 0.0)
    lam = duals[:m] / duals[:m].sum()
    alpha, beta = np.zeros(m), np.zeros(m)
    alpha[lo], beta[hi] = duals[rows_lo], duals[rows_hi]
    pull, push = alpha[lo] @ q_lo[lo], beta[hi] @ q_hi[hi]
    if push > pull:
        beta *= pull / push
    c_dual = reward_rmatvec(n, N, lam) + np.cumsum((beta - alpha)[::-1])[::-1]
    lower = float((c_dual / d).min())

    y = np.cumsum(np.maximum(res.x[:m], 0.0))
    scale = res.x[s]
    if scale > 0.0:
        u = y / scale
    else:
        # y is a recession direction of the band (q_hi = +inf wherever
        # y > 0): u = q_lo + c y stays in it, and its ratio exceeds the LP's
        # t by at most excess / c < 1e-6 tol
        v_lo = np.diff(q_lo, prepend=0.0)
        excess = max(float((reward_matvec(n, N, v_lo) - lower * (d @ v_lo)).max()), 0.0)
        u = q_lo + (1.0 + 1e6 * excess / tol) * y
    # the bounds are nondecreasing, so the clipped u is too and v >= 0
    u = np.clip(u, q_lo, q_hi)
    v = np.concatenate(([u[0]], np.diff(u)))
    achieved = float((reward_matvec(n, N, v) / (d @ v)).max())
    lower = min(lower, achieved)
    certificate = {
        "bracket": [lower, achieved],
        "achieved_ratio": achieved,
        "band_violation": float(max(np.max(q_lo - u, initial=0.0),
                                    np.max(u - q_hi, initial=0.0))),
        "normalization": float(d @ v),
    }
    gap = achieved - lower
    if not gap <= tol:
        raise SolverError(f"pareto witness ratio exceeds the dual bound by {gap:.3e} > tol {tol:.3e}",
                          gap=gap)
    if certificate["band_violation"] > 0.0:
        raise SolverError("pareto witness leaves its band")
    return ParetoResult(value=achieved, v=v, certificate=certificate)
