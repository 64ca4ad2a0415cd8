"""Zero-sum matrix game solver with duality-gap certificates and the
sharp-constant pipelines for the ratio and difference games.

solve_game takes any dense payoff matrix.  The sharp games never form their
(N-1) x (N-1) matrix: the reward-weight matrix B of the generator is
semiseparable, so each game is one sparse HiGHS LP (scipy.optimize.linprog)
with O(N) nonzeros, built from prefix and suffix sums.  Every returned
solution is re-verified by arithmetic: value and gap are computed by
replaying the strategies against the payoff matrix, for the sharp games
through the O(N) products B v and B^T lam, never taken from solver internals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.optimize import linprog

from .dist import DiscreteDistribution, lfd_from_mu_diff, lfd_from_mu_ratio
from .kernel import (
    KernelKind,
    PayoffMatrix,
    check_grid,
    csr_from_blocks,
    err_bound_diff,
    err_bound_ratio,
    prophet_weights,
    reward_matvec,
    reward_rmatvec,
    reward_rows,
)
from .reward import ThresholdRule, ratio_floor, optimal_rule, rule_at_level

#: entries of mu below this are zeroed before reconstructing distributions
MU_CLEANUP = 1e-12


class SolverError(RuntimeError):
    """LP did not produce a certified solution; carries the best gap achieved."""

    def __init__(self, message: str, gap: float = float("inf")):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class GameSolution:
    """Value, mixed strategies and an arithmetic duality-gap certificate.

    For MinMax (value = min_mu max_i (M mu)_i):
        max_i (M mu)_i <= value + gap  and  value - min_j (M^T lam)_j <= gap.
    For MaxMin the two inequalities swap roles.
    """

    value: float
    lam: np.ndarray
    mu: np.ndarray
    gap: float
    iterations: int


def solve_game(payoff, sense: str, tol: float = 1e-7) -> GameSolution:
    """Solve min_mu max_i (M mu)_i ("minmax") or max_mu min_i (M mu)_i ("maxmin").

    lam is the row player's mixed strategy recovered from the LP duals; the
    gap certificate is recomputed from the returned (cleaned) vectors.
    """
    M = np.ascontiguousarray(
        payoff.entries if isinstance(payoff, PayoffMatrix) else payoff, dtype=np.float64
    )
    if M.ndim != 2 or M.size == 0:
        raise ValueError("payoff must be a nonempty 2-D matrix")
    if sense not in ("minmax", "maxmin"):
        raise ValueError(f"sense must be 'minmax' or 'maxmin', got {sense!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    rows, cols = M.shape
    sgn = 1.0 if sense == "minmax" else -1.0
    c = np.concatenate((np.zeros(cols), [sgn]))
    A_ub = np.hstack([sgn * M, -sgn * np.ones((rows, 1))])
    A_eq = np.concatenate((np.ones(cols), [0.0])).reshape(1, -1)
    bounds = [(0.0, None)] * cols + [(None, None)]

    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(rows), A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver failed with status {res.status}: {res.message}")

    mu = np.maximum(res.x[:cols], 0.0)
    mu /= mu.sum()
    lam = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=np.float64), 0.0)
    if lam.sum() <= 0.0:
        raise SolverError("LP returned a degenerate dual; no row strategy available")
    lam /= lam.sum()

    value = float(res.x[-1])
    row_payoffs = M @ mu
    col_payoffs = M.T @ lam
    if sense == "minmax":
        upper, lower = float(row_payoffs.max()), float(col_payoffs.min())
    else:
        lower, upper = float(row_payoffs.min()), float(col_payoffs.max())
    value = min(max(value, lower), upper)
    gap = max(upper - value, value - lower, 0.0)
    iterations = int(getattr(res, "nit", -1))
    if gap > tol:
        raise SolverError(f"duality gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    return GameSolution(value=value, lam=lam, mu=mu, gap=gap, iterations=iterations)


@dataclass(frozen=True)
class SharpConstantReport:
    """Sharp constant at (n, N) with its continuum bracket and reconstruction.

    stats records how the LP was solved: HiGHS iterations and the LP's rows,
    columns and nonzeros.
    """

    n: int
    N: int
    kind: KernelKind
    value: float
    bracket: tuple[float, float]
    gap: float
    rule: ThresholdRule
    lfd: DiscreteDistribution
    lam: np.ndarray
    mu: np.ndarray
    certified: bool  # False when no two-sided continuum certificate exists (ratio, n < 4)
    stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "kind": self.kind.value,
            "value": self.value,
            "bracket": list(self.bracket),
            "gap": self.gap,
            "certified": self.certified,
            "rule": {"theta": self.rule.theta, "p": self.rule.p},
            "lfd": {"atoms": [[v, p] for v, p in zip(self.lfd.values, self.lfd.probs)]},
            "stats": dict(self.stats),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def default_tol(N: int) -> float:
    """Looser default above N=2000: the bracket is dominated by the
    discretization term there, not the solver gap."""
    return 1e-7 if N <= 2000 else 1e-5


def sharp_ratio(n: int, N: int, tol: float | None = None) -> SharpConstantReport:
    """Value of the N-grid game for the competitive ratio, with bracket.

    Both players are restricted to the grid: the adversary to the N-grid
    family, the stopper to the levels {i/N}.  The game min_mu max_i (R_N mu)_i
    is solved as one sparse LP in v = mu / d (see _solve_sharp); value and gap
    come from replaying (lam, mu) through the O(N) products B v and B^T lam.
    rule is the best grid-level rule on the lfd.  The bracket always floors
    at ratio_floor(n); the two-sided discretization certificate exists for
    n >= 4 only.
    """
    tol = default_tol(N) if tol is None else tol
    sol, stats = _solve_sharp(KernelKind.RATIO, n, N, tol)
    mu = _cleanup(sol.mu)
    lfd = lfd_from_mu_ratio(mu, n, N)
    scores = reward_matvec(n, N, mu / prophet_weights(n, N))
    i_star = _first_argbest(scores, largest=True)
    rule = rule_at_level(lfd, (i_star + 1) / N)
    floor = ratio_floor(n)
    if n >= 4:
        err = err_bound_ratio(n, N)
        bracket = (max(floor, sol.value - err - sol.gap), sol.value + err + sol.gap)
        certified = True
    else:
        bracket = (floor, sol.value + sol.gap)
        certified = False
    return SharpConstantReport(
        n=n, N=N, kind=KernelKind.RATIO, value=sol.value, bracket=bracket, gap=sol.gap,
        rule=rule, lfd=lfd, lam=sol.lam, mu=mu, certified=certified, stats=stats,
    )


def sharp_regret(n: int, N: int, tol: float | None = None) -> SharpConstantReport:
    """Value of the N-grid game for the regret, with bracket.

    The adversary plays the N-grid family supported in [0, 1], the stopper
    the levels {i/N}.  The game max_mu min_i (A_N mu)_i, with
    A_N mu = (d^T mu) 1 - B mu, is solved as one sparse LP in v = mu (see
    _solve_sharp); value and gap come from the O(N) replay.  rule is the
    best grid-level rule on the lfd.
    """
    tol = default_tol(N) if tol is None else tol
    sol, stats = _solve_sharp(KernelKind.DIFFERENCE, n, N, tol)
    mu = _cleanup(sol.mu)
    lfd = lfd_from_mu_diff(mu, N)
    scores = prophet_weights(n, N) @ mu - reward_matvec(n, N, mu)
    i_star = _first_argbest(scores, largest=False)
    rule = rule_at_level(lfd, (i_star + 1) / N)
    err = err_bound_diff(n, N)
    bracket = (max(0.0, sol.value - err - sol.gap), sol.value + err + sol.gap)
    return SharpConstantReport(
        n=n, N=N, kind=KernelKind.DIFFERENCE, value=sol.value, bracket=bracket, gap=sol.gap,
        rule=rule, lfd=lfd, lam=sol.lam, mu=mu, certified=True, stats=stats,
    )


def _solve_sharp(kind: KernelKind, n: int, N: int, tol: float) -> tuple[GameSolution, dict]:
    """Solve the (N-1) x (N-1) grid game as one LP with O(N) nonzeros.

    Columns are v (v = mu/d for the ratio game, v = mu for the regret game),
    the prefix sums P of v and Q of y v, the strict suffix sum S of (1-y) v,
    the game value t and, for the regret game, D = d^T mu.  Payoff row i is
    (B v)_i = P_i - x_i^{n-1} Q_i + g_i S_i, so
        ratio:  min t  s.t.  (B v)_i <= t,      d^T v = 1, v >= 0;
        regret: max t  s.t.  t <= D - (B v)_i,  D = d^T v, 1^T v = 1, v >= 0.
    lam is read from the payoff rows' duals.  The replay bounds the game
    value by lower <= value* <= upper; value is their midpoint and gap half
    their distance.
    """
    n, N = check_grid(n, N)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ratio = kind is KernelKind.RATIO
    m = N - 1
    d = prophet_weights(n, N)
    i = v = np.arange(m)  # payoff rows; the v columns come first
    t, D = 4 * m, 4 * m + 1
    cols = 4 * m + (1 if ratio else 2)

    # equality rows: the three running sums, then the normalization
    eq, ub = reward_rows(n, N)
    if ratio:
        eq += [(3 * m, v, d)]
        b_eq = np.zeros(3 * m + 1)
        b_eq[-1] = 1.0
    else:
        eq += [(3 * m, v, 1.0), (3 * m + 1, D, 1.0), (3 * m + 1, v, -d)]
        b_eq = np.zeros(3 * m + 2)
        b_eq[3 * m] = 1.0
    # payoff rows: (B v)_i - t <= 0, or t - D + (B v)_i <= 0
    ub += [(i, t, -1.0)] if ratio else [(i, t, 1.0), (i, D, -1.0)]
    A_eq = csr_from_blocks(eq, (b_eq.size, cols))
    A_ub = csr_from_blocks(ub, (m, cols))
    c = np.zeros(cols)
    c[t] = 1.0 if ratio else -1.0
    bounds = np.zeros((cols, 2))
    bounds[:, 1] = np.inf
    bounds[t:, 0] = -np.inf

    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver failed with status {res.status}: {res.message}")
    stats = {"iterations": int(getattr(res, "nit", -1)), "lp_rows": m + b_eq.size,
             "lp_cols": cols, "lp_nonzeros": int(A_ub.nnz + A_eq.nnz)}

    mu = np.maximum(res.x[:m], 0.0) * (d if ratio else 1.0)
    mu /= mu.sum()
    lam = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=np.float64), 0.0)
    if lam.sum() <= 0.0:
        raise SolverError("LP returned a degenerate dual; no row strategy available")
    lam /= lam.sum()

    # replay: rows R mu = B (mu/d), columns R^T lam = (B^T lam)/d for the
    # ratio game; rows A mu = d^T mu - B mu, columns A^T lam = d - B^T lam
    if ratio:
        upper = float(reward_matvec(n, N, mu / d).max())
        lower = float((reward_rmatvec(n, N, lam) / d).min())
    else:
        lower = float((d @ mu - reward_matvec(n, N, mu)).min())
        upper = float((d - reward_rmatvec(n, N, lam)).max())
    value = 0.5 * (upper + lower)
    gap = max(0.5 * (upper - lower), 0.0)
    if gap > tol:
        raise SolverError(f"duality gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    return GameSolution(value=value, lam=lam, mu=mu, gap=gap,
                        iterations=stats["iterations"]), stats


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    counterexamples: list

    def __bool__(self) -> bool:
        return self.ok


def verify_solution(
    report: SharpConstantReport,
    alternatives: Iterable[DiscreteDistribution],
    slack: float = 1e-9,
) -> VerificationResult:
    """Cross-validate a report against alternative distributions.

    Ratio kind: every alternative's optimal single-threshold ratio must be at
    least bracket lower.  Difference kind: optimal regret at most bracket
    upper.  Candidates are scanned over the report's own level grid with a
    level-search fallback before anything is flagged; counterexamples come
    back as (index, measured value).
    """
    bad = []
    for idx, alt in enumerate(alternatives):
        best = optimal_rule(alt, report.n, mode="grid-exact", grid_size=report.N)
        if report.kind is KernelKind.RATIO:
            measured = best.evaluation.ratio
            if measured < report.bracket[0] - slack:
                measured = max(measured, optimal_rule(alt, report.n).evaluation.ratio)
            if measured < report.bracket[0] - slack:
                bad.append((idx, measured))
        else:
            measured = best.evaluation.regret
            if measured > report.bracket[1] + slack:
                measured = min(measured, optimal_rule(alt, report.n).evaluation.regret)
            if measured > report.bracket[1] + slack:
                bad.append((idx, measured))
    return VerificationResult(ok=not bad, counterexamples=bad)


def _cleanup(mu: np.ndarray) -> np.ndarray:
    out = np.where(mu < MU_CLEANUP, 0.0, mu)
    return out / out.sum()


def _first_argbest(scores: np.ndarray, largest: bool, tie_tol: float = 1e-9) -> int:
    best = scores.max() if largest else scores.min()
    mask = scores >= best - tie_tol if largest else scores <= best + tie_tol
    return int(np.flatnonzero(mask)[0])
