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
from scipy.optimize import brentq

from .dist import DiscreteDistribution, _mixed_cdf, _prophet_value
from .kernel import (_g, _levels, _power, _scalar_or_array, check_horizon, check_integer,
                     stop_weight_sums, weight_sums)

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
    """Search result: the best rule and its evaluation."""

    rule: ThresholdRule
    evaluation: RuleEvaluation


def _pieces(dist: DiscreteDistribution, rule: ThresholdRule):
    theta, values, probs, cum = rule.theta, dist.values, dist.probs, dist.cumulative
    k = int(np.searchsorted(values, theta, side="right"))  # atoms <= theta, tie last
    cdf = float(cum[k - 1]) if k > 0 else 0.0
    cdf_left = (float(cum[k - 2]) if k > 1 else 0.0) if k > 0 and values[k - 1] == theta else cdf
    tail_mean = float(values[k:] @ probs[k:])
    below_mean = float(values[:k] @ probs[:k])
    # ThresholdRule has checked p, so mixed_cdf's check would be a repeat
    return _mixed_cdf(cdf_left, cdf, rule.p), cdf - cdf_left, tail_mean, below_mean


def reward_v1(dist: DiscreteDistribution, n: int, rule: ThresholdRule) -> float:
    """First closed form: geometric sum up to n plus the terminal below-theta term."""
    check_horizon(n)
    Fp, delta, tail_mean, below_mean = _pieces(dist, rule)
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
    check_horizon(n)
    Fp, delta, tail_mean, _ = _pieces(dist, rule)
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
    cum = dist.cumulative
    x = float(x) if 0.0 <= x <= 1.0 else float(_clamped_level(x))  # outside: check, clamp
    k = min(int(np.searchsorted(cum, x, side="left")), cum.size - 1)
    theta, F = float(dist.values[k]), float(cum[k])
    if F - x <= 1e-12:
        return ThresholdRule(theta, 0.0)
    delta = F - (float(cum[k - 1]) if k > 0 else 0.0)
    return ThresholdRule(theta, min((F - x) / delta, 1.0))


def reward_by_level(dist: DiscreteDistribution, n: int, x):
    """Reward of the level-x rule via the quantile integral; x may be an array.

    Integrates the stopping weight (1-x^{n-1})*min{1,(1-y)/(1-x)} + x^{n-1}(1-y)
    against dF^{<-} (kernel.stop_weight_sums); equals reward_v2 at
    rule_at_level(dist, x).  A float for scalar x, else an array like x.
    """
    check_horizon(n)
    return _scalar_or_array(stop_weight_sums(_clamped_level(x), *dist.quantile_jumps(), n))


def evaluate_rule(dist: DiscreteDistribution, n: int, rule: ThresholdRule) -> RuleEvaluation:
    return _evaluation(reward_v1(dist, n, rule), dist.expected_max(n))


def _evaluation(value: float, prophet: float) -> RuleEvaluation:
    ratio = value / prophet if prophet > 0.0 else 1.0
    return RuleEvaluation(value=value, ratio=ratio, regret=prophet - value)


def optimal_rule(
    dist: DiscreteDistribution,
    n: int,
    mode: str = "level-search",
    grid_size: int | None = None,
) -> OptimalRule:
    """Best single-threshold rule for dist.

    mode "grid-exact" takes the first of the levels {1/N, ..., (N-1)/N},
    N = grid_size (required), whose reward, scored in one reward_by_level
    call, is within 1e-9 of the best.  mode "level-search" maximizes over
    every level in [0, 1] exactly (see best_level).  One quantile measure
    (quantile_jumps) serves the search and the prophet value.
    """
    check_horizon(n)
    levels, weights, tails = dist.quantile_jumps()
    if mode == "grid-exact":
        xs = _levels(grid_size)
        vals = reward_by_level(dist, n, xs)
        x = xs[int(np.flatnonzero(vals >= vals.max() - 1e-9)[0])]
    elif mode == "level-search":
        x = best_level(levels, weights, tails, n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rule = rule_at_level(dist, x)
    return OptimalRule(rule, _evaluation(reward_v1(dist, n, rule),
                                         _prophet_value(weights, tails, n)))


def best_level(levels, weights, tails, n: int) -> float:
    """Level x in [0, 1] with the largest level-x rule reward, for the
    measure dF^{<-} with masses weights at sorted levels and tail masses
    tails (DiscreteDistribution.quantile_jumps).

    Between consecutive jump levels the reward is the polynomial
    P + T sum_{k<n} x^k - Q x^{n-1}, where P and Q sum the weights w and
    w y at levels y <= x and T sums w (1 - y) at levels y > x
    (kernel.weight_sums).  Its derivative T sum_{k<n} k x^{k-1}
    - (n-1) Q x^{n-2} has at most one sign change in its coefficients, so
    by Descartes' rule it changes sign at most once on x > 0, from + to -.
    The reward is continuous in x, so each piece is settled by the
    derivative's signs at its ends and, when they differ, one bracketed
    root.  One weight_sums call gives both the slopes and the candidates'
    scores, stop_weight_sums' P - x^{n-1} Q + g(x) T at their level counts.
    """
    a, b = levels, np.append(levels[1:], 1.0)
    sums = weight_sums(levels, weights, tails)
    _, Q, T = sums[:, 1:]

    def slope(x, j):
        # sum_{k<n} k x^{k-1} by Horner, in numpy's polyval order
        ramp = n - 1.0 + x * 0.0
        for k in range(n - 2, 0, -1):
            ramp = k + ramp * x
        return T[j] * ramp - (n - 1) * Q[j] * x ** (n - 2)

    m, j = levels.size, np.arange(levels.size)
    ends = slope(np.concatenate((a, b)), np.concatenate((j, j)))  # both ends of each piece
    rising_a, rising_b = ends[:m] > 0.0, ends[m:] >= 0.0
    xs = np.where(rising_a, b, a)
    for k in np.flatnonzero(rising_a & ~rising_b):
        xs[k] = brentq(slope, a[k], b[k], args=(k,))
    at = sums[:, np.searchsorted(levels, xs, side="right")]  # P, Q, T at each candidate
    return float(xs[np.argmax(at[0] - _power(xs, n - 1) * at[1] + _g(xs, n) * at[2])])


def ratio_floor(n: int) -> float:
    """Guaranteed competitive-ratio floor 1 - (1 - 1/n)^n (>= 1 - 1/e)."""
    check_horizon(n, minimum=1)
    return 1.0 - (1.0 - 1.0 / n) ** n


def floor_rule(dist: DiscreteDistribution, n: int) -> ThresholdRule:
    """The rule with threshold at the (1 - 1/n)-quantile, tie-break chosen so
    that the no-stop probability is exactly 1 - 1/n.

    Its ratio is at least ratio_floor(n) for every distribution.
    """
    check_horizon(n)
    return rule_at_level(dist, 1.0 - 1.0 / n)


def growth_bound_check(dist: DiscreteDistribution, n: int, k: int) -> tuple[float, float]:
    """Both sides of M_n >= (1 - lam) M_{n+k} + lam M_1, lam = (1-1/(n+k))^{n-1}."""
    check_horizon(n, minimum=1)
    check_integer(k, "k", 0)
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
    check_horizon(n)
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a!r}")
    if b <= 0.0 or c <= 0.0 or b + c >= n:
        raise ValueError(f"need b > 0, c > 0, b + c < n; got b={b!r}, c={c!r}, n={n}")


def ehsani_distribution(n: int) -> DiscreteDistribution:
    """Two atoms (e-2)/(e-1) w.p. 1 - 1/n^2 and n/(e-1) w.p. 1/n^2.

    The optimal single-threshold ratio on this family tends to one.
    """
    check_horizon(n)
    e = math.e
    return DiscreteDistribution.from_atoms(
        [((e - 2.0) / (e - 1.0), 1.0 - 1.0 / n**2), (n / (e - 1.0), 1.0 / n**2)]
    )
