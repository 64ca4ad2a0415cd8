"""Sharp constants for restricted distribution families.

Bounded variance: the worst-case regret over the variance-<=sigma^2 grid
family is kappa_n * sigma, kappa_n = 1 / sqrt(min{ z^T Q z : A_N z >= 1,
z >= 0 }), solved by an isotonic-regression split from the levels around
the continuum single-level optimum x*_n (see kappa).  Pareto-like
tails: the worst-case ratio over the band pareto_band(N, p0, p1) on the
cumulative quantiles is a game against the band's points, solved by double
oracle with Dinkelbach steps for the adversary (see pareto_ratio).  Both
ends of each bracket are replayed in O(N) or O(N log N) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# unused: perfbench/spans.py's SOLVERS wraps constrained.linprog and .minimize by name
from scipy.optimize import isotonic_regression, linprog, minimize, nnls  # noqa: F401

from .game import SolverError, _beats, double_oracle
from .kernel import Generator, _grid_block, _kappa_level, _suffix_sum, check_grid, check_integer

#: cap on the steps of one _dinkelbach call; pareto_ratio at N = 20000 and
#: n in {10, 100} takes at most 7 per call
MAX_DINKELBACH_STEPS = 1000


@dataclass(frozen=True)
class KappaResult:
    value: float
    z: np.ndarray
    certificate: dict

    def as_dict(self) -> dict:
        return {"kappa": self.value, "certificate": self.certificate}


def kappa(n: int, N: int, tol: float = 1e-3, sigma: float = 1.0) -> KappaResult:
    """kappa_n on the N-grid, scaled by the variance budget sigma.

    With S_k = sum_{i>=k} z_i (S_N = 0), z^T Q z = min_c ||S - c||^2 / N, and
    z >= 0 puts r = S - c in the cone K of nonincreasing sequences.  With
    C = A_N D, (D r)_k = r_k - r_{k+1}, dualizing C r >= 1 gives the split
        kappa_n = sqrt(N) min { ||Pi_K(C^T mu)|| : mu >= 0, sum mu = 1 },
    Pi_K an isotonic regression (PAVA).  The gradient in mu of ||p||^2 / 2,
    p = Pi_K(C^T mu), is A_N z, z = -diff(p) >= 0.  mu starts equally
    weighted on the four levels around x*_n, the level whose single-level
    bound is least in the continuum (kernel._kappa_level), and each round
    solves the block by _min_norm_mixture and adds argmin A_N z, the
    stopper's best response, until no level beats the block by more than
    rounding; the seed closes it in one round at every size measured, and
    a poorer seed would cost rounds only.  certificate["rounds"] counts the
    rounds and block_rows the levels.
    Nothing is read from a solver: any mu gives kappa_upper = sigma sqrt(N)
    ||p||, as 1 <= mu^T C r <= <p, r> <= ||p|| ||r|| for feasible r (capped
    at kappa_lower if rounding puts it below), and z scaled to min A_N z = 1
    and then to z^T Q z = sigma^2 gives kappa_lower.  SolverError when the
    gap exceeds tol, or when min A_N z <= 0 (Pi_K(C^T mu) is constant or has
    one step, so z is 0 or on A_N's zero diagonal); measured, with the dual
    end below 4e-8: n = 50 at N = 3, n = 100 at N <= 4, n = 1000 at N <= 54
    but 29, 34, 41, 42, 44 and 50, and n = 10^4 at N = 3, ..., 79, 100, 200,
    300 and 500 but not 400, of n in {10, 25, 50, 100, 1000, 10^4}.
    """
    n, N = check_grid(n, N)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    m = N - 1
    generator = Generator(n, N)
    d = generator.d

    def dual_direction(mu):  # C^T mu = D^T (d sum(mu) - B^T mu)
        return np.diff(d * mu.sum() - generator.rmatvec(mu), prepend=0.0, append=0.0)

    block = _grid_block([_kappa_level(n)[0]], N, 2, 2)
    rows = np.array([dual_direction(np.eye(1, m, i)[0]) for i in block])
    w = np.full(len(block), 1.0 / len(block))
    rounds = projections = line_searches = 0
    while True:
        rounds += 1
        w, projected, searched = _min_norm_mixture(rows, w)
        p = isotonic_regression(dual_direction(np.bincount(block, w, m)), increasing=False).x
        projections, line_searches = projections + projected + 1, line_searches + searched
        z = -np.diff(p)
        dz = d @ z
        a = dz - generator.matvec(z)
        best = int(np.argmin(a))
        # no level beats the block by more than m eps d^T z, the scale of the
        # rounding in a: d^T z and B z are length-m sums in [0, d^T z]
        if a[block].min() - a[best] <= m * np.finfo(np.float64).eps * dz:
            break
        block.append(best)
        rows = np.vstack((rows, dual_direction(np.eye(1, m, best)[0])))
        w = np.append(w, 0.0)

    if not a.min() > 0.0:
        raise SolverError(f"kappa primal z = -diff(Pi_K(C^T mu)) is 0 or on A_N's zero diagonal: "
                          f"min A_N z = {a.min():.3e}, dual end {sigma * np.sqrt(N * (p @ p)):.3e}")
    # primal: scale z to min A_N z = 1; its norm is the variance of S
    z /= a.min()
    norm_sq = float(np.var(np.append(_suffix_sum(z), 0.0)))
    dual_bound = min(1.0 / (N * float(p @ p)), norm_sq)
    kappa_lower, kappa_upper = sigma / np.sqrt(norm_sq), sigma / np.sqrt(dual_bound)
    gap = kappa_upper - kappa_lower
    if gap > tol:
        raise SolverError(f"kappa gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    z_star = kappa_lower * z
    certificate = {
        "kappa_lower": float(kappa_lower), "kappa_upper": float(kappa_upper), "gap": float(gap),
        "norm_sq": norm_sq, "dual_bound": dual_bound,
        "feasibility_margin": float((d @ z_star - generator.matvec(z_star)).min() - kappa_lower),
        # each round but the last adds a level to the seeded block
        "lbfgs_iterations": 0, "kkt_exact": True, "rounds": rounds, "block_rows": len(block),
        "projections": projections, "line_searches": line_searches,
    }
    return KappaResult(value=float(kappa_lower), z=z_star, certificate=certificate)


def _min_norm_mixture(rows: np.ndarray, w: np.ndarray):
    """Weights on the simplex minimizing ||Pi_K(rows^T w)||, starting from w,
    with the number of PAVA projections and of line searches it ran.

    ||Pi_K||^2 is convex and piecewise quadratic: with PAVA's blocks fixed,
    Pi_K averages over blocks, so the Newton point is the min-norm point of
    the block-averaged rows, one NNLS (Lawson and Hanson, ch. 23).  A Newton
    point that does not lower ||p||^2 is replaced by the point a 60-step
    bisection on the sign of phi' finds on the segment to it, phi(t) =
    ||Pi_K(v + t delta)||^2; the loop ends when neither lowers ||p||^2.
    phi is convex with phi'(0) = 2 <p, delta>, so phi >= ||p||^2 + 2 <p, delta>
    on the segment: when -2 <p, delta> <= (N-1) eps ||p||^2, which bounds the
    rounding of the length-(N-1) dot product ||p||^2 itself, no point of the
    segment lowers ||p||^2 by more than that rounding and w is returned
    without the search.
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
        norm_sq = fit.x @ fit.x
        if not new.x @ new.x < norm_sq and (slope := fit.x @ delta) < 0.0:
            if -2.0 * slope <= rows.shape[1] * np.finfo(np.float64).eps * norm_sq:
                return w, projections, searches
            # phi(t) = ||Pi_K(v + t delta)||^2 is convex with phi'(t) = 2 <Pi_K(.), delta>
            searches += 1
            lo, hi = 0.0, 1.0
            for _ in range(60):
                t = 0.5 * (lo + hi)
                lo, hi = (lo, t) if project(w + t * (step - w)).x @ delta > 0.0 else (t, hi)
            step = w + lo * (step - w)
            new = project(step)
        if not new.x @ new.x < norm_sq:
            return w, projections, searches
        w, fit = step, new


def pareto_band(N: int, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """The Pareto-like band (q_lo, q_hi) on the cumulative quantiles u_i, i < N:
    the i/N-quantiles (N/(N-i))^{1/p} of P(X > x) = x^{-p} at finite p0 > p1 > 1."""
    check_integer(N, "grid size", 3)
    if not np.inf > p0 > p1 > 1.0:
        raise ValueError(f"need finite p0 > p1 > 1, got p0={p0!r}, p1={p1!r}")
    base = N / (N - np.arange(1, N, dtype=np.float64))
    return base ** (1.0 / p0), base ** (1.0 / p1)


@dataclass(frozen=True)
class ParetoResult:
    value: float
    v: np.ndarray
    certificate: dict
    stats: dict = field(default_factory=dict)  # SharpConstantReport's, and dinkelbach_steps

    def as_dict(self) -> dict:
        return {"value": self.value, "certificate": self.certificate, "stats": self.stats}


def pareto_ratio(n: int, N: int, p0: float, p1: float, tol: float = 1e-6) -> ParetoResult:
    """Worst-case ratio max_i (B v)_i / d^T v over increments v of quantiles
    q_lo <= u <= q_hi, the band pareto_band(N, p0, p1): the value of min over
    w in W = {v / d^T v} of max over lam of lam^T B w, by game.double_oracle
    on stopper levels and points of W, stored as B w_k.  The stopper responds
    by argmax B w, the adversary by _dinkelbach on c = B^T lam, each new when
    it beats the block's own best (game._beats).  value is the ratio of the
    witness u = y / s, (y, s) the mixture of the columns' (cumsum(w), s),
    replayed through B v; the lower end is the last certified rho.  One
    kernel.Generator gives d and every product B w and B^T lam."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    n, N = check_grid(n, N)
    q_lo, q_hi = pareto_band(N, p0, p1)
    m = N - 1
    generator = Generator(n, N)
    d = generator.d
    band = _band_windows(q_lo, q_hi)
    points = [_scaled(np.diff(q_hi, prepend=0.0), d)]  # the first column: u = q_hi
    payoffs, steps = generator.matvec(points[0][0])[:, None], []

    def respond(rows, cols, alpha, weights):
        nonlocal payoffs
        lam = np.zeros(m)
        lam[rows] = weights / weights.sum()
        row_payoffs = payoffs[:, cols] @ alpha
        best_row = int(np.argmax(row_payoffs))
        restricted = float((lam @ payoffs[:, cols]).min())
        lower, best, taken = _dinkelbach(generator.rmatvec(lam), d, band, restricted)
        steps.append(taken)
        new_cols = []
        if best is not None and _beats(-best[0], -restricted):
            new_cols = [len(points)]
            points.append(best[1])
            payoffs = np.column_stack((payoffs, generator.matvec(best[1][0])))
        new_rows = [best_row] if _beats(row_payoffs[best_row], row_payoffs[rows].max()) else []
        return new_rows, new_cols, (cols, alpha / alpha.sum(), lower)

    (cols, alpha, lower), stats = double_oracle(
        lambda rows, cols: payoffs[np.ix_(rows, cols)], respond, [m // 2], [0])
    y = np.cumsum(sum(a * points[k][0] for k, a in zip(cols, alpha)))
    u = y / sum(a * points[k][1] for k, a in zip(cols, alpha))
    violation = float(max(np.max(q_lo - u, initial=0.0), np.max(u - q_hi, initial=0.0)))
    # the bounds are nondecreasing, so the clipped u is too and v >= 0
    v = np.diff(np.clip(u, q_lo, q_hi), prepend=0.0)
    achieved = float((generator.matvec(v) / (d @ v)).max())
    lower = min(lower, achieved)
    certificate = {
        "bracket": [lower, achieved],
        "achieved_ratio": achieved,
        "band_violation": violation,  # of the mixture witness, before the clip
        "normalization": float(d @ v),
    }
    gap = achieved - lower
    if not gap <= tol:
        raise SolverError(f"pareto witness ratio exceeds the lower end by {gap:.3e} > tol {tol:.3e}",
                          gap=gap)
    return ParetoResult(value=achieved, v=v, certificate=certificate,
                        stats={**stats, "dinkelbach_steps": sum(steps)})


def _scaled(v: np.ndarray, d: np.ndarray):  # the band point v as (w, s) in W
    return v / (d @ v), 1.0 / float(d @ v)


def _band_windows(q_lo: np.ndarray, q_hi: np.ndarray):
    """Breakpoints s_t (0 and the band's values) and the windows [#{q_hi <= s_t},
    #{q_lo <= s_t}] of the starts k of {j : u_j > s} = {j >= k}, s in [s_t,
    s_t+1) (k = N-1: empty)."""
    s = np.unique(np.concatenate(([0.0], q_lo, q_hi)))
    return s, np.searchsorted(q_hi, s, side="right"), np.searchsorted(q_lo, s, side="right")


def _dinkelbach(c: np.ndarray, d: np.ndarray, band, rho: float):
    """min of c^T v / d^T v over the band by Dinkelbach steps from a point's
    ratio rho (Management Sci. 13, 1967).  Returns the first rho at which
    min (c - rho d)^T v >= 0 in float (a stalled descent steps rho down), the
    last (ratio, point) that lowered rho or None, and steps; SolverError
    after MAX_DINKELBACH_STEPS steps."""
    best, stall, steps = None, 2.0**-52, 0
    while True:
        if steps == MAX_DINKELBACH_STEPS:
            raise SolverError(f"Dinkelbach steps did not settle in {MAX_DINKELBACH_STEPS}")
        steps += 1
        e = c - rho * d
        v = np.diff(_band_min(e, *band), prepend=0.0)
        if e @ v >= 0.0:
            return rho, best, steps
        candidate = float(c @ v) / float(d @ v), _scaled(v, d)
        if candidate[0] < rho:
            rho, best = candidate[0], candidate
        else:
            rho, stall = rho - stall, 2.0 * stall


def _band_min(e: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """u minimizing e^T v over the band in O(N log N): e^T v integrates
    e_k(s) over s, k(s) the start of {j : u_j > s} (e_{N-1} = 0).  The
    rightmost argmin of e on k(s)'s window, from a sparse table on windows
    of length 2^level, is optimal and nondecreasing in s, so the sets nest."""
    e = np.append(e, 0.0)
    table = np.zeros((e.size.bit_length(), e.size), dtype=np.intp)
    table[0], mins = np.arange(e.size), e
    for level in range(1, table.shape[0]):
        width, count = 2 ** (level - 1), e.size - 2 ** level + 1
        right = mins[width:width + count] <= mins[:count]
        table[level, :count] = np.where(right, table[level - 1, width:width + count],
                                        table[level - 1, :count])
        mins = np.where(right, mins[width:width + count], mins[:count])
    level = np.frexp(hi - lo + 1)[1] - 1
    left, right = table[level, lo], table[level, hi - 2**level + 1]
    k = np.where(e[right] <= e[left], right, left)
    # u_j = s_T for the first interval T whose level set starts above j
    return s[np.searchsorted(k, np.arange(e.size - 1), side="right")]
