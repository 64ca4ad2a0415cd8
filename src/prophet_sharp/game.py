"""Zero-sum matrix game solver with duality-gap certificates and the
sharp-constant pipelines for the ratio and difference games.

Every game is solved by double oracle (double_oracle): a small dense
simplex in numpy (_simplex) solves the restricted game on a block of rows
and columns that grows from a start block by both players' best responses
until neither beats the block (_matrix_game).
solve_game takes any dense payoff matrix, starts from its first row and
column, and finds the best responses by full matrix-vector products.  The
sharp games never form their (N-1) x (N-1) matrix: the reward-weight
matrix B of the generator is semiseparable, so their best responses come
from the O(N) products B v and B^T lam, and their start block holds the
grid levels (kernel._grid_block) around the continuum game's pure-level
saddle, which depends on n alone (kernel._saddle_levels): the grid
solution sits there, so one or two rounds close the gap.
constrained.pareto_ratio runs on the same driver.  Every returned solution
is re-verified by arithmetic: value and gap are computed by replaying the
strategies against the payoff matrix, never taken from solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
# unused: perfbench/spans.py's SOLVERS wraps game.linprog by name
from scipy.optimize import linprog  # noqa: F401

from .dist import DiscreteDistribution, lfd_from_mu_diff, lfd_from_mu_ratio
from .kernel import (
    Generator,
    KernelKind,
    _grid_block,
    _saddle_levels,
    check_grid,
    err_bound_diff,
    err_bound_ratio,
)
from .reward import ThresholdRule, ratio_floor, optimal_rule

#: entries of mu below this are zeroed before reconstructing distributions
MU_CLEANUP = 1e-12
#: _simplex's pivot cap per row and column of the block
PIVOTS_PER_LINE = 50
#: a best response is new only when it beats the block's own best by more
#: than this, relative: at n = 2 the payoff is linear in the stopper's level
#: off the diagonal, the restricted optimum is not unique, and without the
#: margin the optimal vertex wanders between equally good levels
TIE = 1e-12
#: cap on double_oracle's rounds; the seeded sharp games take at most 2
#: (n = 2 to 1e12, N = 3 to 2e5) and pareto_ratio at most 19 at N = 20000
MAX_ROUNDS = 1000
VERIFY_SLACK = 1e-9  #: verify_solution's allowance for rounding past a bracket end


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
    """Solve min_mu max_i (M mu)_i ("minmax") or max_mu min_i (M mu)_i ("maxmin")
    on M = payoff, any nonempty 2-D array-like of finite entries.

    Runs _matrix_game on sgn M (sgn = -1 for "maxmin"), from row and column
    0, with the full-matrix products M mu and M^T lam as best-response
    oracles.  Every round adds a row or a column, so a dense game needs at
    most rows + cols - 1 rounds; past MAX_ROUNDS it raises SolverError.
    value is the midpoint of the replayed bounds, gap their half-width.
    """
    M = np.ascontiguousarray(payoff, dtype=np.float64)
    if M.ndim != 2 or M.size == 0 or not np.isfinite(M).all():
        raise ValueError("payoff must be a nonempty 2-D matrix of finite entries")
    if sense not in ("minmax", "maxmin"):
        raise ValueError(f"sense must be 'minmax' or 'maxmin', got {sense!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    sgn = 1.0 if sense == "minmax" else -1.0
    mu, lam, value, gap, stats = _matrix_game(
        lambda rows, cols: sgn * M[np.ix_(rows, cols)], lambda mu: sgn * (M @ mu),
        lambda lam: sgn * (M.T @ lam), M.shape, [0], [0], tol)
    return GameSolution(value=sgn * value, lam=lam, mu=mu, gap=gap,
                        iterations=stats["iterations"])


def _matrix_game(entries, matvec, rmatvec, shape, rows, cols, tol):
    """min_mu max_i (M mu)_i for the (rows, cols) = shape matrix M by
    double_oracle from the block rows x cols, entries(rows, cols) being M's
    block.  Each round re-solves the restricted mu and lam on their supports
    (_from_supports) and replays them over all rows and columns, matvec(mu)
    = M mu and rmatvec(lam) = M^T lam: lower <= value* <= upper; the argmax
    row and argmin column are new when they beat the block's own best
    (_beats).  Returns (mu, lam, value, gap, stats), value the midpoint and
    gap the half-width; SolverError when gap is not <= tol."""

    def respond(rows, cols, alpha, weights):
        mu, lam = np.zeros(shape[1]), np.zeros(shape[0])
        mu[cols], lam[rows] = alpha / alpha.sum(), weights / weights.sum()
        mu, lam = _from_supports(entries, mu, lam) or (mu, lam)
        row_payoffs, col_payoffs = matvec(mu), rmatvec(lam)
        best_row, best_col = int(np.argmax(row_payoffs)), int(np.argmin(col_payoffs))
        upper, lower = float(row_payoffs[best_row]), float(col_payoffs[best_col])
        return ([best_row] if _beats(upper, row_payoffs[rows].max()) else [],
                [best_col] if _beats(-lower, -col_payoffs[cols].min()) else [],
                (mu, lam, upper, lower))

    (mu, lam, upper, lower), stats = double_oracle(entries, respond, rows, cols)
    gap = max(0.5 * (upper - lower), 0.0)
    if not gap <= tol:
        raise SolverError(f"duality gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    return mu, lam, 0.5 * (upper + lower), gap, stats


def _beats(payoff: float, block_best: float) -> bool:
    """Whether a best response's payoff beats the block's best by more than
    TIE, relative; a minimizer's payoffs are passed negated."""
    return payoff > block_best + TIE * abs(block_best)


def _from_supports(entries, mu: np.ndarray, lam: np.ndarray):
    """(mu, lam) re-solved from their supports alone: on the k x k block of
    the supports, the equalizers of [block, -1; 1^T, 0] [mu; v] = [0; 1] and
    of its transpose for lam.  None unless the supports have equal size and
    both solutions are >= 0.  Two starts that end on the same support so
    give the same strategies to the bit."""
    cols, rows = np.flatnonzero(mu), np.flatnonzero(lam)
    k = cols.size
    if rows.size != k:
        return None
    systems = np.zeros((2, k + 1, k + 1))
    block = entries(rows, cols)
    systems[0, :k, :k], systems[1, :k, :k] = block, block.T
    systems[:, :k, k], systems[:, k, :k] = -1.0, 1.0
    try:
        weights = np.linalg.solve(systems, np.eye(k + 1)[k])[:, :k]
    except np.linalg.LinAlgError:
        return None
    if not (weights >= 0.0).all():
        return None
    solutions = weights / weights.sum(axis=1, keepdims=True)
    new_mu, new_lam = np.zeros_like(mu), np.zeros_like(lam)
    new_mu[cols], new_lam[rows] = solutions
    return new_mu, new_lam


@dataclass(frozen=True)
class SharpConstantReport:
    """Sharp constant at (n, N) with its continuum bracket and reconstruction.

    stats records how the game was solved: simplex pivots over all
    rounds, the double-oracle rounds, and the final block's rows (stopper
    levels) and columns (adversary levels).
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
            "lfd": self.lfd.as_dict(),
            "stats": dict(self.stats),
        }


def sharp_ratio(n: int, N: int, tol: float = 1e-7) -> SharpConstantReport:
    """Value of the N-grid game for the competitive ratio, with bracket.

    Both players are restricted to the grid: the adversary to the N-grid
    family, the stopper to the levels {i/N}.  The game min_mu max_i (R_N mu)_i
    is solved by double oracle (see _sharp_report); value and gap come from
    replaying (lam, mu) through the O(N) products B v and B^T lam.
    rule is the best grid-level rule on the lfd.  The bracket always floors
    at ratio_floor(n); the two-sided discretization certificate exists for
    n >= 4 only.
    """
    return _sharp_report(KernelKind.RATIO, n, N, tol)


def sharp_regret(n: int, N: int, tol: float = 1e-7) -> SharpConstantReport:
    """Value of the N-grid game for the regret, with bracket.

    The adversary plays the N-grid family supported in [0, 1], the stopper
    the levels {i/N}.  The game max_mu min_i (A_N mu)_i, with
    A_N mu = (d^T mu) 1 - B mu, is solved by double oracle (see
    _sharp_report); value and gap come from the O(N) replay.  rule is the
    best grid-level rule on the lfd.
    """
    return _sharp_report(KernelKind.DIFFERENCE, n, N, tol)


def _sharp_report(kind: KernelKind, n: int, N: int, tol: float) -> SharpConstantReport:
    """Solve the grid game by _matrix_game with M = R_N, or M = -A_N for the
    regret (value negated), on one kernel.Generator: its blocks are the
    restricted game's entries, and mu and lam are replayed through its O(N)
    products B v and B^T lam.  The start block is the grid levels around the
    continuum saddle (kernel._saddle_levels): the pair of levels around
    each atom, and around x* with the two levels below.  The seed only
    saves rounds: value and gap come from the replay whatever the start."""
    n, N = check_grid(n, N)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ratio = kind is KernelKind.RATIO
    sgn = 1.0 if ratio else -1.0
    m = N - 1
    generator = Generator(n, N)
    d = generator.d

    def matvec(mu):  # R mu = B (mu/d), -A mu = B mu - d^T mu
        return generator.matvec(mu / d) if ratio else generator.matvec(mu) - d @ mu

    def rmatvec(lam):  # R^T lam = (B^T lam)/d, -A^T lam = B^T lam - d
        return generator.rmatvec(lam) / d if ratio else generator.rmatvec(lam) - d

    x, atoms = _saddle_levels(kind, n)
    # two extra stopper rows: the grid solution can sit a level below x*'s pair
    mu, lam, value, gap, stats = _matrix_game(
        lambda rows, cols: sgn * generator.block(kind, rows, cols), matvec, rmatvec, (m, m),
        _grid_block([x], N, 3, 1), _grid_block(atoms, N, 1, 1), tol)
    value *= sgn
    mu = _cleanup(mu)
    if ratio:
        lfd, floor, certified = lfd_from_mu_ratio(mu, n, N), ratio_floor(n), bool(n >= 4)
        err = err_bound_ratio(n, N) if certified else 0.0
    else:
        lfd, floor, certified = lfd_from_mu_diff(mu, N), 0.0, True
        err = err_bound_diff(n, N)
    rule = optimal_rule(lfd, n, mode="grid-exact", grid_size=N).rule
    bracket = (max(floor, value - err - gap if certified else -np.inf), value + err + gap)
    return SharpConstantReport(
        n=n, N=N, kind=kind, value=value, bracket=bracket, gap=gap,
        rule=rule, lfd=lfd, lam=lam, mu=mu, certified=certified, stats=stats,
    )


def double_oracle(entries, respond, rows, cols) -> tuple[object, dict]:
    """min over alpha of max_i (M alpha)_i by double oracle over a block of
    row and column keys grown from the start lists rows and cols;
    entries(rows, cols) is M's block, read whole each round and solved from
    scratch by _simplex.  After each solve respond(rows, cols, alpha, lam)
    gets alpha and the row strategy lam (both unnormalized) and returns the
    lists of new rows and columns and an outcome.  Returns the last outcome
    and stats, iterations counting the pivots of every round; SolverError
    after MAX_ROUNDS rounds."""
    new_rows, new_cols, rows, cols, iterations, rounds = list(rows), list(cols), [], [], 0, 0
    while new_rows or new_cols:
        if rounds == MAX_ROUNDS:
            raise SolverError(f"double oracle still growing after {MAX_ROUNDS} rounds")
        rows += new_rows
        cols += new_cols
        alpha, lam, pivots = _simplex(entries(rows, cols))
        iterations += pivots
        rounds += 1
        if lam.sum() <= 0.0:
            raise SolverError("LP returned a degenerate dual; no row strategy available")
        new_rows, new_cols, outcome = respond(rows, cols, alpha, lam)
    return outcome, {"iterations": iterations, "rounds": rounds,
                     "block_rows": len(rows), "block_cols": len(cols)}


def _simplex(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Optimal strategies of min over alpha of max_i (M alpha)_i on a small
    dense block M, as (alpha, lam, pivots), alpha and lam >= 0 unnormalized.

    M is normalized to A = (M - min M) / (max M - min M) + 1, entries in
    [1, 2], which moves neither player's optimal strategies; then
    max 1^T y s.t. A y <= 1, y >= 0 is solved by a dense tableau from the
    slack basis, which is feasible, by Dantzig's rule: a column enters when
    its reduced cost is below -1e-12, and the row of the least ratio over
    pivot entries above 1e-12 leaves.  The final basis B is solved afresh
    from A, alpha = y from B y_B = 1 and lam, the dual, from B^T lam = 1 on
    the structural columns and 0 on the slacks: a pivot on an entry near
    the 1e-12 floor leaves the tableau's own values off by far more than
    rounding.  SolverError after PIVOTS_PER_LINE * (rows + cols) pivots, so
    that a cycle ends."""
    rows, cols = M.shape
    lo, hi = M.min(), M.max()
    T = np.zeros((rows + 1, cols + rows + 1))
    T[:rows, :cols] = (M - lo) / (hi - lo if hi > lo else 1.0) + 1.0
    T[:rows, cols:-1].flat[::rows + 1] = 1.0
    T[:rows, -1] = 1.0
    T[rows, :cols] = -1.0
    start = T[:rows, :-1].copy()
    objective, rhs, ratios = T[rows, :-1], T[:rows, -1], np.empty(rows)
    basis = np.arange(cols, cols + rows)
    cap = PIVOTS_PER_LINE * (rows + cols)
    for pivots in range(cap + 1):
        enter = objective.argmin()
        if not objective[enter] < -1e-12:
            B, y, z = start[:, basis], np.zeros(cols + rows), objective[cols:]
            try:
                y[basis] = np.linalg.solve(B, np.ones(rows))
                z = np.linalg.solve(B.T, (basis < cols).astype(np.float64))
                z[basis[basis >= cols] - cols] = 0.0  # a basic slack's row has no dual
            except np.linalg.LinAlgError:
                y[basis] = rhs
            return np.maximum(y[:cols], 0.0), np.maximum(z, 0.0), pivots
        column = T[:rows, enter]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > 1e-12)
        leave = ratios.argmin()
        if pivots == cap or ratios[leave] == np.inf:
            break
        pivot = T[leave] / T[leave, enter]
        T -= T[:, enter, None] * pivot
        T[leave] = pivot
        basis[leave] = enter
    raise SolverError(f"restricted game simplex stopped after {pivots} pivots")


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    counterexamples: list

    def __bool__(self) -> bool:
        return self.ok


def verify_solution(
    report: SharpConstantReport,
    alternatives: Iterable[DiscreteDistribution],
) -> VerificationResult:
    """Cross-validate a report against alternative distributions.

    Ratio kind: every alternative's optimal single-threshold ratio must be at
    least bracket lower.  Difference kind: optimal regret at most bracket
    upper, for the [0, 1]-supported alternatives that bound covers; an atom
    above 1 raises ValueError; both ends allow VERIFY_SLACK.  Alternatives are
    measured by the exact level search; a counterexample is (index, value).
    """
    bad = []
    for idx, alt in enumerate(alternatives):
        if report.kind is KernelKind.DIFFERENCE and alt.values[-1] > 1.0:
            raise ValueError(f"alternative {idx} has an atom above 1: the regret covers [0, 1] only")
        best = optimal_rule(alt, report.n).evaluation
        if report.kind is KernelKind.RATIO and best.ratio < report.bracket[0] - VERIFY_SLACK:
            bad.append((idx, best.ratio))
        elif report.kind is KernelKind.DIFFERENCE and best.regret > report.bracket[1] + VERIFY_SLACK:
            bad.append((idx, best.regret))
    return VerificationResult(ok=not bad, counterexamples=bad)


def _cleanup(mu: np.ndarray) -> np.ndarray:
    out = np.where(mu < MU_CLEANUP, 0.0, mu)
    return out / out.sum()
