"""Sharp constants for restricted distribution families.

Bounded variance: the worst-case regret over the variance-<=sigma^2 grid
family equals kappa_n * sigma, where kappa_n maximizes t subject to
A_N z >= t*1, ||z||_Q <= 1, z >= 0.  By positive homogeneity this is one
convex QP, kappa_n = 1 / sqrt(min{ z^T Q z : A_N z >= 1, z >= 0 }), which
HiGHS solves with O(N) nonzeros and a diagonal Hessian on the semiseparable
row block of the sharp games; both bracket ends are replayed from its
primal and dual solution in O(N).

Pareto-like tails: the worst-case ratio over a two-sided band on the
cumulative quantiles is a linear-fractional program, solved as one sparse
LP after the Charnes-Cooper change of variables, with the payoff rows
built from the same semiseparable row block as the sharp games.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
# perfbench/spans.py's SOLVERS wraps constrained.minimize by name, although
# nothing here calls it any more
from scipy.optimize import linprog, minimize  # noqa: F401
# HiGHS's QP interface, which scipy exposes only through its private bindings
from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs

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
    """kappa_n on the N-grid, scaled by the variance budget sigma, as one QP.

    With S_k = sum_{i>=k} z_i (S_N = 0), z^T Q z = min_c (1/N) sum_k (S_k - c)^2,
    so r_k = S_k - c turns the program into
        min (1/N) ||r||^2  s.t.  z_k = r_k - r_{k+1},  (B z)_i - D <= -1,
                                 D = d^T z,  z >= 0,
    where (A_N z)_i = D - (B z)_i and B z comes from kernel.reward_rows.
    Nothing HiGHS reports is trusted: z* is the primal z scaled to
    min A_N z = 1 and then to z*^T Q z* = sigma^2, which gives kappa_lower;
    the payoff rows' and z columns' duals y, s >= 0 give kappa_upper by weak
    duality, (sum y)^2 / (w^T Q^{-1} w) with w = A_N^T y + s and Q^{-1} N
    times the second-difference matrix.  SolverError when HiGHS does not end
    Optimal (as at some sizes with n >= 50 and N <= 25, where kappa is
    below 1e-7) or the replayed gap exceeds tol.
    """
    n, N = check_grid(n, N)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    m = N - 1
    d = prophet_weights(n, N)
    i = np.arange(m)  # payoff rows, and the z columns, which come first
    r, D = 4 * m + np.arange(N), 4 * m + N
    cols, n_eq = 4 * m + N + 1, 4 * m + 1
    eq, payoff = reward_rows(n, N)
    eq += [(3 * m + i, i, 1.0), (3 * m + i, r[:-1], -1.0), (3 * m + i, r[1:], 1.0),
           (4 * m, D, 1.0), (4 * m, i, -d)]
    payoff += [(i, D, -1.0)]
    A = csr_from_blocks(eq + [(n_eq + row, col, val) for row, col, val in payoff],
                        (n_eq + m, cols))
    lp = HighsLp()
    lp.num_col_, lp.num_row_ = cols, n_eq + m
    lp.col_cost_ = np.zeros(cols)
    lp.col_lower_ = np.concatenate((np.zeros(4 * m), np.full(N + 1, -np.inf)))
    lp.col_upper_ = np.full(cols, np.inf)
    lp.row_lower_ = np.concatenate((np.zeros(n_eq), np.full(m, -np.inf)))
    lp.row_upper_ = np.concatenate((np.zeros(n_eq), np.full(m, -1.0)))
    lp.a_matrix_.format_ = MatrixFormat.kRowwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = cols, n_eq + m
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    # triangular Hessian 2/N on each r column, so 1/2 r^T H r = ||r||^2 / N
    highs.passHessian(cols, N, 1, np.clip(np.arange(cols + 1) - 4 * m, 0, N).astype(np.int32),
                      r.astype(np.int32), np.full(N, 2.0 / N))
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise SolverError(f"kappa QP ended {highs.modelStatusToString(status)}")
    solution = highs.getSolution()

    # primal: scale z to min A_N z = 1; its norm is the variance of S
    z = np.maximum(np.asarray(solution.col_value)[:m], 0.0)
    a = d @ z - reward_matvec(n, N, z)
    if not a.min() > 0.0:
        raise SolverError("kappa QP gave no feasible direction")
    z /= a.min()
    norm_sq = float(np.var(np.append(np.cumsum(z[::-1])[::-1], 0.0)))
    # dual: y on A_N z >= 1 and s on z >= 0 give w = A_N^T y + s
    y = np.maximum(-np.asarray(solution.row_dual)[n_eq:], 0.0)
    s = np.maximum(np.asarray(solution.col_dual)[:m], 0.0)
    w = d * y.sum() - reward_rmatvec(n, N, y) + s
    curvature = N * float(np.sum(np.diff(w, prepend=0.0, append=0.0) ** 2))
    if not (y.sum() > 0.0 and curvature > 0.0):
        raise SolverError("kappa dual bound is not positive")
    dual_bound = float(y.sum()) ** 2 / curvature

    kappa_lower = sigma / np.sqrt(norm_sq)
    kappa_upper = sigma / np.sqrt(dual_bound)
    gap = kappa_upper - kappa_lower
    if gap > tol:
        raise SolverError(f"kappa gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    z_star = kappa_lower * z
    certificate = {
        "kappa_lower": float(kappa_lower),
        "kappa_upper": float(kappa_upper),
        "gap": float(gap),
        "norm_sq": norm_sq,
        "dual_bound": dual_bound,
        "feasibility_margin": float((d @ z_star - reward_matvec(n, N, z_star)).min() - kappa_lower),
        "lbfgs_iterations": 0,
        "kkt_exact": True,  # HiGHS's active-set QP ended Optimal
        "qp_iterations": int(highs.getInfo().qp_iteration_count),
    }
    return KappaResult(value=float(kappa_lower), z=z_star, certificate=certificate)


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
