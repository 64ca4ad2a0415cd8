"""Closed-form rewards of randomized single-threshold stopping rules.

A rule tau_p(theta) stops at the first of the first n-1 observations that
strictly exceeds theta, or equals theta with an independent Bernoulli(p)
tie-break; otherwise it takes the last observation.  Two equivalent closed
forms are implemented and cross-checked, plus the quantile-level
parameterization used by the game machinery, optimal-threshold search, and
the classic worked fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.optimize import brentq

from .dist import DiscreteDistribution, infer_grid_size
from .kernel import stop_weight_sums

# below this no-stop probability complement the rule degenerates to "take the
# last observation" and the reward is the mean
_DEGENERATE = 1.0 - 1e-14


@dataclass(frozen=True)
class ThresholdRule:
    """Threshold theta >= 0 and tie-break success probability p in [0, 1]."""

    theta: float
    p: float

    def __post_init__(self):
        if not np.isfinite(self.theta) or self.theta < 0.0:
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class RuleEvaluation:
    """Reward, competitive ratio and regret of a rule against the prophet."""

    value: float
    ratio: float
    regret: float

    def as_dict(self) -> dict:
        return {"value": self.value, "ratio": self.ratio, "regret": self.regret}


@dataclass(frozen=True)
class OptimalRule:
    """Search result: best rule found, its evaluation, certified search gap."""

    rule: ThresholdRule
    evaluation: RuleEvaluation
    search_gap: float


def _pieces(dist: DiscreteDistribution, rule: ThresholdRule):
    theta, p = rule.theta, rule.p
    F = dist.cdf(theta)
    Fl = dist.cdf_left(theta)
    Fp = p * Fl + (1.0 - p) * F
    delta = F - Fl
    above = dist.values > theta
    tail_mean = float(dist.values[above] @ dist.probs[above])
    below_mean = float(dist.values[~above] @ dist.probs[~above])
    return F, Fl, Fp, delta, tail_mean, below_mean


def reward_v1(dist: DiscreteDistribution, n: int, rule: ThresholdRule) -> float:
    """First closed form: geometric sum up to n plus the terminal below-theta term."""
    _require_horizon(n)
    _, _, Fp, delta, tail_mean, below_mean = _pieces(dist, rule)
    if Fp >= _DEGENERATE:
        return dist.mean()
    head = tail_mean + rule.p * rule.theta * delta
    return head * (1.0 - Fp**n) / (1.0 - Fp) + Fp ** (n - 1) * (
        below_mean - rule.p * rule.theta * delta
    )


def reward_v2(dist: DiscreteDistribution, n: int, rule: ThresholdRule) -> float:
    """Second closed form: geometric sum up to n-1 plus the terminal mean term.

    Agrees with reward_v1 to floating-point accuracy for every rule.
    """
    _require_horizon(n)
    _, _, Fp, delta, tail_mean, _ = _pieces(dist, rule)
    if Fp >= _DEGENERATE:
        return dist.mean()
    head = tail_mean + rule.p * rule.theta * delta
    return head * (1.0 - Fp ** (n - 1)) / (1.0 - Fp) + Fp ** (n - 1) * dist.mean()


def _clamped_level(x) -> np.ndarray:
    # cumulative sums may overshoot [0, 1] by float rounding
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):
        raise ValueError(f"level must lie in [0, 1], got {x!r}")
    return np.clip(x, 0.0, 1.0)


def rule_at_level(dist: DiscreteDistribution, x: float) -> ThresholdRule:
    """The rule whose no-stop probability is exactly x.

    theta is the x-quantile; p resolves the atom mass so that
    F_p(theta) = x, with p = 0 whenever F(theta) = x within 1e-12.
    """
    x = float(_clamped_level(x))
    theta = dist.quantile(x)
    F = dist.cdf(theta)
    if F - x <= 1e-12:
        return ThresholdRule(theta, 0.0)
    delta = F - dist.cdf_left(theta)
    return ThresholdRule(theta, min((F - x) / delta, 1.0))


def reward_by_level(dist: DiscreteDistribution, n: int, x):
    """Reward of the level-x rule via the quantile integral; x may be an array.

    Integrates the stopping weight (1-x^{n-1})*min{1,(1-y)/(1-x)} + x^{n-1}(1-y)
    against dF^{<-} (kernel.stop_weight_sums); equals reward_v2 at
    rule_at_level(dist, x).  A float for scalar x, else an array like x.
    """
    _require_horizon(n)
    out = stop_weight_sums(_clamped_level(x), *dist.quantile_jumps(), n)
    return float(out) if out.ndim == 0 else out


def evaluate_rule(dist: DiscreteDistribution, n: int, rule: ThresholdRule) -> RuleEvaluation:
    value = reward_v1(dist, n, rule)
    prophet = dist.expected_max(n)
    ratio = value / prophet if prophet > 0.0 else 1.0
    return RuleEvaluation(value=value, ratio=ratio, regret=prophet - value)


def optimal_rule(
    dist: DiscreteDistribution,
    n: int,
    mode: str = "level-search",
    grid_size: int | None = None,
) -> OptimalRule:
    """Best single-threshold rule for dist.

    mode "grid-exact" requires dist to live on a 1/N-probability grid
    (N = grid_size when given, else inferred) and takes the first of the
    levels {1/N, ..., (N-1)/N} whose reward, scored in one reward_by_level
    call, is within 1e-9 of the best.  mode "level-search" maximizes over
    every level in [0, 1] exactly (see best_level), so its search_gap is 0.
    """
    _require_horizon(n)
    if mode == "grid-exact":
        N = grid_size if grid_size is not None else infer_grid_size(dist)
        if N is None:
            raise ValueError("grid-exact mode needs a distribution on a 1/N probability grid")
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 2:
            raise ValueError(f"grid size must be an integer >= 2, got {N!r}")
        xs = np.arange(1, N) / N
        vals = reward_by_level(dist, n, xs)
        i_star = int(np.flatnonzero(vals >= vals.max() - 1e-9)[0])
        rule = rule_at_level(dist, xs[i_star])
        return OptimalRule(rule, evaluate_rule(dist, n, rule), 0.0)

    if mode != "level-search":
        raise ValueError(f"unknown mode {mode!r}")
    rule = rule_at_level(dist, best_level(dist, n))
    return OptimalRule(rule, evaluate_rule(dist, n, rule), 0.0)


def best_level(dist: DiscreteDistribution, n: int) -> float:
    """Level x in [0, 1] with the largest level-x rule reward.

    Between consecutive jump levels of dF^{<-} the reward is the polynomial
    P + T sum_{k<n} x^k - Q x^{n-1}, where P and Q sum the jump weights w and
    w y at levels y <= x and T sums w (1 - y) at levels y > x.  Its
    derivative T sum_{k<n} k x^{k-1} - (n-1) Q x^{n-2} has at most one sign
    change in its coefficients, so by Descartes' rule it changes sign at
    most once on x > 0, from + to -.  The reward is continuous in x, so each
    piece is settled by the derivative's signs at its ends and, when they
    differ, one bracketed root; the candidates are scored in one
    stop_weight_sums call.
    """
    levels, weights, tails = dist.quantile_jumps()
    a, b = levels, np.append(levels[1:], 1.0)
    Q = np.cumsum(weights * levels)
    T = np.append(np.cumsum((weights * tails)[::-1])[::-1][1:], 0.0)
    ramp = np.arange(1.0, n)

    def slope(x, j):
        return T[j] * polyval(x, ramp) - (n - 1) * Q[j] * x ** (n - 2)

    j = np.arange(levels.size)
    rising_a, rising_b = slope(a, j) > 0.0, slope(b, j) >= 0.0
    xs = np.where(rising_a, b, a)
    for k in np.flatnonzero(rising_a & ~rising_b):
        xs[k] = brentq(slope, a[k], b[k], args=(k,))
    return float(xs[np.argmax(stop_weight_sums(xs, levels, weights, tails, n))])


def ratio_floor(n: int) -> float:
    """Guaranteed competitive-ratio floor 1 - (1 - 1/n)^n (>= 1 - 1/e)."""
    _require_horizon(n, minimum=1)
    return 1.0 - (1.0 - 1.0 / n) ** n


def floor_rule(dist: DiscreteDistribution, n: int) -> ThresholdRule:
    """The rule with threshold at the (1 - 1/n)-quantile, tie-break chosen so
    that the no-stop probability is exactly 1 - 1/n.

    Its ratio is at least ratio_floor(n) for every distribution.
    """
    _require_horizon(n)
    return rule_at_level(dist, 1.0 - 1.0 / n)


def growth_bound_check(dist: DiscreteDistribution, n: int, k: int) -> tuple[float, float]:
    """Both sides of M_n >= (1 - lam) M_{n+k} + lam M_1, lam = (1-1/(n+k))^{n-1}."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    lam = (1.0 - 1.0 / (n + k)) ** (n - 1)
    lhs = dist.expected_max(n)
    rhs = (1.0 - lam) * dist.expected_max(n + k) + lam * dist.mean()
    return lhs, rhs


# -- worked fixtures -------------------------------------------------------


def samuel_cahn_distribution(n: int, a: float, b: float, c: float) -> DiscreteDistribution:
    """Three atoms at 0, a, 1 with probabilities 1-(b+c)/n, c/n, b/n."""
    _check_sc_params(n, a, b, c)
    return DiscreteDistribution.from_atoms(
        [(0.0, 1.0 - (b + c) / n), (a, c / n), (1.0, b / n)]
    )


def samuel_cahn_closed_forms(
    n: int, a: float, b: float, c: float
) -> tuple[float, float, float, float]:
    """(M_n, E X_{tau_0(0)}, E X_{tau_0(a)}, E X_{tau_0(1)}) for the three-atom family."""
    _check_sc_params(n, a, b, c)
    q0 = 1.0 - (b + c) / n  # P(X = 0)
    qb = 1.0 - b / n  # P(X < 1)
    m_n = a * (qb**n - q0**n) + 1.0 - qb**n
    e_mean = (a * c + b) / n
    e_tau_0 = (1.0 - q0 ** (n - 1)) * (a * c + b) / (c + b) + q0 ** (n - 1) * e_mean
    e_tau_a = 1.0 - qb ** (n - 1) + qb ** (n - 1) * e_mean
    return m_n, e_tau_0, e_tau_a, e_mean


def _check_sc_params(n, a, b, c):
    _require_horizon(n)
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a!r}")
    if b <= 0.0 or c <= 0.0 or b + c >= n:
        raise ValueError(f"need b > 0, c > 0, b + c < n; got b={b!r}, c={c!r}, n={n}")


def ehsani_distribution(n: int) -> DiscreteDistribution:
    """Two atoms (e-2)/(e-1) w.p. 1 - 1/n^2 and n/(e-1) w.p. 1/n^2.

    The optimal single-threshold ratio on this family tends to one.
    """
    _require_horizon(n)
    e = math.e
    return DiscreteDistribution.from_atoms(
        [((e - 2.0) / (e - 1.0), 1.0 - 1.0 / n**2), (n / (e - 1.0), 1.0 / n**2)]
    )


def _require_horizon(n, minimum: int = 2):
    if not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"horizon must be an integer >= {minimum}, got {n!r}")
