"""Zero-sum matrix game solver with duality-gap certificates and the
sharp-constant pipelines for the ratio and difference games.

Every game is solved by double oracle (double_oracle) on one small HiGHS
LP over a restricted block of rows and columns that grows from a start
block by both players' best responses until neither is new (_matrix_game).
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
# HiGHS's incremental model interface (addRow, addCol, warm restarts), which
# scipy exposes only through its private bindings
from scipy.optimize._highspy._core import (HIGHS_VERSION_MAJOR, HIGHS_VERSION_MINOR,
                                           HIGHS_VERSION_PATCH, HighsModelStatus, _Highs)

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

#: version of the HiGHS library behind _Highs, for run manifests
HIGHS_VERSION = f"{HIGHS_VERSION_MAJOR}.{HIGHS_VERSION_MINOR}.{HIGHS_VERSION_PATCH}"
#: entries of mu below this are zeroed before reconstructing distributions
MU_CLEANUP = 1e-12
#: options of the restricted game LP; the default feasibility tolerances
#: (1e-7) let the replayed gap stall near 1e-8 for N >= 2000
_HIGHS_OPTIONS = {"output_flag": False, "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}
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
    block.  Each round replays mu and lam over all rows and columns,
    matvec(mu) = M mu and rmatvec(lam) = M^T lam: lower <= value* <= upper;
    the argmax row and argmin column are new when not in the block.  Returns
    (mu, lam, value, gap, stats), value the midpoint and gap the half-width;
    SolverError when gap is not <= tol."""

    def respond(rows, cols, alpha, weights):
        mu, lam = np.zeros(shape[1]), np.zeros(shape[0])
        mu[cols], lam[rows] = alpha, weights
        mu /= mu.sum()
        lam /= lam.sum()
        row_payoffs, col_payoffs = matvec(mu), rmatvec(lam)
        best_row, best_col = int(np.argmax(row_payoffs)), int(np.argmin(col_payoffs))
        upper, lower = float(row_payoffs[best_row]), float(col_payoffs[best_col])
        return ([] if best_row in rows else [best_row], [] if best_col in cols else [best_col],
                (mu, lam, upper, lower))

    (mu, lam, upper, lower), stats = double_oracle(entries, respond, rows, cols)
    gap = max(0.5 * (upper - lower), 0.0)
    if not gap <= tol:
        raise SolverError(f"duality gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)
    return mu, lam, 0.5 * (upper + lower), gap, stats


@dataclass(frozen=True)
class SharpConstantReport:
    """Sharp constant at (n, N) with its continuum bracket and reconstruction.

    stats records how the game was solved: HiGHS iterations over all
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
    """min over alpha of max_i (M alpha)_i by double oracle on one warm-started
    HiGHS LP (min t s.t. M alpha <= t, sum alpha = 1, alpha >= 0) over a block
    of row and column keys grown from the start lists rows and cols;
    entries(rows, cols) is M's block.  After each run respond(rows, cols,
    alpha, lam) gets alpha and the payoff rows' duals lam (clipped at 0,
    unnormalized) and returns the lists of new rows and columns and an
    outcome.  Returns the last outcome and stats; SolverError after
    MAX_ROUNDS rounds."""
    highs = _Highs()
    for option, setting in _HIGHS_OPTIONS.items():
        highs.setOptionValue(option, setting)
    # column 0 is t, row 0 is sum alpha = 1; then one column and one row
    # per block column and row, in the order they entered
    highs.addCol(1.0, -np.inf, np.inf, 0, np.empty(0, np.int32), np.empty(0))
    highs.addRow(1.0, 1.0, 0, np.empty(0, np.int32), np.empty(0))
    new_rows, new_cols, rows, cols, iterations, rounds = list(rows), list(cols), [], [], 0, 0
    while new_rows or new_cols:
        if rounds == MAX_ROUNDS:
            raise SolverError(f"double oracle still growing after {MAX_ROUNDS} rounds")
        for row in new_rows:
            rows.append(row)
            highs.addRow(-np.inf, 0.0, len(cols) + 1, np.arange(len(cols) + 1, dtype=np.int32),
                         np.append(-1.0, entries([row], cols)[0]))
        for col in new_cols:
            cols.append(col)
            highs.addCol(0.0, 0.0, np.inf, len(rows) + 1, np.arange(len(rows) + 1, dtype=np.int32),
                         np.append(1.0, entries(rows, [col])[:, 0]))
        highs.run()
        if (status := highs.getModelStatus()) != HighsModelStatus.kOptimal:
            raise SolverError(f"restricted game LP ended {highs.modelStatusToString(status)}")
        iterations += int(highs.getInfo().simplex_iteration_count)
        rounds += 1
        solution = highs.getSolution()
        alpha = np.maximum(np.asarray(solution.col_value)[1:], 0.0)
        lam = np.maximum(-np.asarray(solution.row_dual)[1:], 0.0)
        if lam.sum() <= 0.0:
            raise SolverError("LP returned a degenerate dual; no row strategy available")
        new_rows, new_cols, outcome = respond(rows, cols, alpha, lam)
    return outcome, {"iterations": iterations, "rounds": rounds,
                     "block_rows": len(rows), "block_cols": len(cols)}


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
