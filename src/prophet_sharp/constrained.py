"""Sharp constants for restricted distribution families.

Bounded variance: the worst-case regret over the variance-<=sigma^2 grid
family equals kappa_n * sigma, where kappa_n maximizes t subject to
A_N z >= t*1, ||z||_Q <= 1, z >= 0.  By positive homogeneity this is one
convex QP: kappa_n = 1 / min{ ||z||_Q : A_N z >= 1, z >= 0 }, solved by
L-BFGS-B ascent on the bound-constrained dual (Q^{-1} is N times the
tridiagonal second-difference matrix) plus an active-set KKT polish.

Pareto-like tails: the worst-case ratio over a two-sided band on the
cumulative quantiles is a linear-fractional program, solved as one sparse
LP after the Charnes-Cooper change of variables, with the payoff rows
built from the same semiseparable row block as the sharp games.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.optimize import linprog, minimize

from .dist import DiscreteDistribution
from .game import SolverError
from .kernel import (
    KernelKind,
    csr_from_blocks,
    payoff_matrix,
    prophet_weights,
    reward_matvec,
    reward_rows,
    reward_weights,
)


def variance_q_matrix(N: int) -> np.ndarray:
    """Q with Q[i-1, j-1] = min(i, j)/N - ij/N^2 (Brownian-bridge covariance)."""
    i = np.arange(1, N, dtype=np.float64)
    return np.minimum.outer(i, i) / N - np.outer(i, i) / N**2


def _qinv_apply(w: np.ndarray, N: int) -> np.ndarray:
    """Q^{-1} w = N * (2w_k - w_{k-1} - w_{k+1}) with zero boundary."""
    out = 2.0 * w
    out[:-1] -= w[1:]
    out[1:] -= w[:-1]
    return N * out


@dataclass(frozen=True)
class VarianceProblem:
    """Data of the bounded-variance program: Q, reward weights B, prophet d."""

    n: int
    N: int
    Q: np.ndarray
    B: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if self.Q.shape != (self.N - 1, self.N - 1) or self.B.shape != self.Q.shape:
            raise ValueError("Q and B must be (N-1) x (N-1)")
        if not np.allclose(self.Q, self.Q.T, atol=1e-14):
            raise ValueError("Q must be symmetric")
        try:
            cholesky(self.Q + 1e-15 * np.eye(self.N - 1), lower=True)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Q factorization failed: {exc}") from exc
        # strictly decreasing mathematically; float-flat where (j/N)^n underflows
        if np.any(self.d <= 0.0) or np.any(np.diff(self.d) > 0.0):
            raise ValueError("d must be positive and nonincreasing")

    @classmethod
    def build(cls, n: int, N: int) -> "VarianceProblem":
        if n < 2 or N < 3:
            raise ValueError(f"need n >= 2 and N >= 3, got n={n!r}, N={N!r}")
        return cls(n=n, N=N, Q=variance_q_matrix(N), B=reward_weights(n, N),
                   d=prophet_weights(n, N))


def variance_of(dist: DiscreteDistribution) -> float:
    """Variance by the moment formula; equals v^T Q v for grid members."""
    return dist.variance()


@dataclass(frozen=True)
class KappaResult:
    value: float
    z: np.ndarray
    certificate: dict

    def to_json(self) -> str:
        return json.dumps({"kappa": self.value, "certificate": self.certificate})


def kappa(
    n: int,
    N: int,
    tol: float = 1e-3,
    sigma: float = 1.0,
    max_iterations: int = 30000,
) -> KappaResult:
    """kappa_n on the N-grid, scaled by the variance budget sigma.

    Returns an exactly feasible (z*, kappa): A_N z* >= kappa * 1 holds with
    slack and z*^T Q z* = sigma^2; the certificate brackets the optimum by
    weak duality.  The KKT polish usually certifies ~1e-9 gaps up to a few
    hundred grid points; at larger N the bracket comes from the iterative
    dual bound, hence the looser default tol.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    problem = VarianceProblem.build(n, N)
    A, Q = payoff_matrix(KernelKind.DIFFERENCE, n, N).entries, problem.Q
    m = N - 1

    def negated_dual(ys):
        y, s = ys[:m], ys[m:]
        w = A.T @ y + s
        qw = _qinv_apply(w, N)
        value = y.sum() - 0.25 * (w @ qw)
        grad_y = 1.0 - 0.5 * (A @ qw)
        grad_s = -0.5 * qw
        return -value, -np.concatenate((grad_y, grad_s))

    ones = np.ones(m)
    a1 = A.T @ ones
    scale = m / (0.5 * (a1 @ _qinv_apply(a1, N)))
    x0 = np.concatenate((scale * ones, np.zeros(m)))

    # ascend the dual in chunks, keeping the best certified pair; after each
    # chunk try to finish exactly with an active-set KKT solve
    chunk, spent = 4000, 0
    best_lb = -np.inf
    best_z, best_norm_sq = None, np.inf
    y = x0[:m]
    exact = False
    while True:
        res = minimize(negated_dual, x0, jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * (2 * m),
                       options={"maxiter": chunk, "ftol": 1e-18, "gtol": 1e-12})
        spent += res.nit
        y = res.x[:m]
        best_lb = max(best_lb, -float(res.fun))  # dual value at a feasible point
        z_guess = np.maximum(0.5 * _qinv_apply(A.T @ y + res.x[m:], N), 0.0)
        r = A @ z_guess
        if r.min() > 0.0:
            z_scaled = z_guess / r.min()
            nsq = float(z_scaled @ Q @ z_scaled)
            if nsq < best_norm_sq:
                best_z, best_norm_sq = z_scaled, nsq
        polished = _active_set_polish(Q, A, z_guess, y, rounds=60 if m <= 800 else 15)
        if polished is not None:
            z_pol, y = polished
            r = A @ z_pol
            if r.min() > 0.0:
                z_scaled = z_pol / r.min()
                nsq = float(z_scaled @ Q @ z_scaled)
                if nsq < best_norm_sq:
                    best_z, best_norm_sq = z_scaled, nsq
                s = np.maximum(2.0 * (Q @ z_pol) - A.T @ np.maximum(y, 0.0), 0.0)
                w = A.T @ np.maximum(y, 0.0) + s
                best_lb = max(best_lb, float(np.maximum(y, 0.0).sum() - 0.25 * (w @ _qinv_apply(w, N))))
                exact = True
                break
        if spent >= max_iterations or res.nit < chunk:
            break
        x0 = res.x

    if best_z is None:
        raise SolverError("kappa inner QP produced no feasible direction")
    if best_lb <= 0.0:
        raise SolverError("kappa dual bound is not positive; QP did not converge")

    kappa_lower = sigma / np.sqrt(best_norm_sq)
    kappa_upper = sigma / np.sqrt(best_lb)
    gap = kappa_upper - kappa_lower
    if gap > tol:
        raise SolverError(f"kappa gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    z_star = sigma * best_z / np.sqrt(best_norm_sq)
    certificate = {
        "kappa_lower": float(kappa_lower),
        "kappa_upper": float(kappa_upper),
        "gap": float(gap),
        "norm_sq": best_norm_sq,
        "dual_bound": float(best_lb),
        "feasibility_margin": float((A @ z_star).min() - kappa_lower),
        "lbfgs_iterations": int(spent),
        "kkt_exact": exact,
    }
    return KappaResult(value=float(kappa_lower), z=z_star, certificate=certificate)


def _active_set_polish(Q, A, z0, y0=None, rounds: int = 120):
    """Primal-dual active-set refinement of min z^T Q z s.t. A z >= 1, z >= 0.

    The optimum has very few tight rows but a wide positive support, so the
    row set is seeded strictly from the largest dual entries and grown one
    row at a time, while the variable set is adjusted in bulk.  Returns None
    when the budget runs out.
    """
    m = A.shape[1]
    r0 = A @ z0
    if r0.min() <= 0.0:
        return None
    zs = z0 / r0.min()
    free = zs > 1e-8 * zs.max()
    active = np.zeros(A.shape[0], dtype=bool)
    if y0 is not None and y0.max() > 0.0:
        active |= y0 > 1e-3 * y0.max()
    active |= (A @ zs) <= 1.0 + 1e-9
    if not active.any():
        active[int(np.argmin(A @ zs))] = True
    for _ in range(rounds):
        Jp, Ip = np.flatnonzero(free), np.flatnonzero(active)
        if Jp.size == 0 or Ip.size == 0:
            return None
        K = np.block([
            [2.0 * Q[np.ix_(Jp, Jp)], A[np.ix_(Ip, Jp)].T],
            [A[np.ix_(Ip, Jp)], np.zeros((Ip.size, Ip.size))],
        ])
        rhs = np.concatenate((np.zeros(Jp.size), np.ones(Ip.size)))
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        z = np.zeros(m)
        z[Jp] = sol[: Jp.size]
        nu = sol[Jp.size:]
        negative = Jp[z[Jp] < -1e-12]
        if negative.size:
            free[negative] = False
            continue
        bad_nu = Ip[nu < -1e-10]
        if bad_nu.size:
            active[Ip[int(np.argmin(nu))]] = False
            continue
        residual = A @ z
        violated = np.flatnonzero(~active & (residual < 1.0 - 1e-12))
        if violated.size:
            active[violated[int(np.argmin(residual[violated]))]] = True
            continue
        y = np.zeros(A.shape[0])
        y[Ip] = np.maximum(nu, 0.0)
        reduced = 2.0 * (Q @ z) - A.T @ y
        blocked = np.flatnonzero(~free & (reduced < -1e-9))
        if blocked.size:
            free[blocked] = True
            continue
        return np.maximum(z, 0.0), y
    return None


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
    reward_matvec, and the bracket's lower end is the LP optimum as HiGHS
    reports it, capped at value.  s = 0 happens when q_hi = +inf where y
    grows (the unconstrained game, or a one-sided band): the witness is then
    q_lo + c y with c large enough that its ratio is within 1e-6 tol of the
    optimum, which is v = w on the free band q_lo = 0.  q_lo/q_hi may be
    overridden; they are checked as ParetoProblem checks its band.
    """
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

    y = np.cumsum(np.maximum(res.x[:m], 0.0))
    scale = res.x[s]
    if scale > 0.0:
        u = y / scale
    else:
        # y is a recession direction of the band (q_hi = +inf wherever
        # y > 0): u = q_lo + c y stays in it, and its ratio exceeds the LP
        # optimum by at most excess / c < 1e-6 tol
        v_lo = np.diff(q_lo, prepend=0.0)
        excess = max(float((reward_matvec(n, N, v_lo) - res.fun * (d @ v_lo)).max()), 0.0)
        u = q_lo + (1.0 + 1e6 * excess / tol) * y
    # the bounds are nondecreasing, so the clipped u is too and v >= 0
    u = np.clip(u, q_lo, q_hi)
    v = np.concatenate(([u[0]], np.diff(u)))
    achieved = float((reward_matvec(n, N, v) / (d @ v)).max())
    lower = min(float(res.fun), achieved)
    certificate = {
        "bracket": [lower, achieved],
        "achieved_ratio": achieved,
        "band_violation": float(max(np.max(q_lo - u, initial=0.0),
                                    np.max(u - q_hi, initial=0.0))),
        "normalization": float(d @ v),
    }
    gap = achieved - lower
    if gap > tol:
        raise SolverError(f"pareto witness ratio exceeds the LP optimum by {gap:.3e} > tol {tol:.3e}",
                          gap=gap)
    if certificate["band_violation"] > 0.0:
        raise SolverError("pareto witness leaves its band")
    return ParetoResult(value=achieved, v=v, certificate=certificate)
