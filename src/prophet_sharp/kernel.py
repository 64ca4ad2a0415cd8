"""Game kernels on the unit square and their discretized payoff matrices.

Both kernels come from one reward weight b(x, y), the integrand of the
quantile representation of the rule reward: the ratio kernel is
R = b / (1 - y^n) and the difference kernel is A = (1 - y^n) - b.  b has
one factor form (_weight), 1 - x^{n-1} y for y <= x and (1 - y) g(x)
above, with g(x) = (1 - x^n) / (1 - x); kernel_r, kernel_a and stop_weight
broadcast it over array arguments.  On the uniform level grid {i/N} it
gives the generator, the reward weights B and the prophet weights d:
R_N = B / d per column, A_N = d - B.  Generator(n, N) is the one home of
the grid factors y^{n-1}, g(y), 1 - y and d, computed once per solve.
Any block of R_N or A_N comes from one entry formula (Generator.block).
B is semiseparable, so B v and B^T lam take O(N) operations from running
sums (Generator.matvec and rmatvec); every solver builds one Generator
and reaches B only through it; only prophet_weights wraps a one-use
Generator.  payoff_matrix is the dense R_N or A_N as an array and the
dense B (reward_weights) is the tests' oracle.  Also: the horizon check,
the discretization error bounds, the support-exclusion constant, and the
Lipschitz constants used by property tests.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class KernelKind(str, Enum):
    RATIO = "ratio"
    DIFFERENCE = "difference"


def check_integer(value, name: str, minimum: int, maximum=None) -> None:
    """Reject a value that is not an integer (int or np.integer, not bool) in
    [minimum, maximum]; name is the argument's name in the message."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum
            or maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_horizon(n, minimum: int = 2) -> None:
    """Reject a horizon n that is not an integer >= minimum."""
    check_integer(n, "horizon", minimum)


def kernel_r(x, y, n: int):
    """Ratio kernel R(x, y) = b(x, y) / (1 - y^n); the diagonal is 1 by
    definition (also at (1,1)) and the column y = 1 takes the continuous
    limit g(x)/n.  A float for scalar x and y, else their broadcast array."""
    x, y = _check_point(x, y, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(y == 1.0, _g(x, n) / n, stop_weight(x, y, n) / (1.0 - y**n))
    return _scalar_or_array(np.where(x == y, 1.0, r))


def kernel_a(x, y, n: int):
    """Difference kernel A(x, y) = (1 - y^n) - b(x, y) >= 0; vanishes on the
    diagonal.  A float for scalar x and y, else their broadcast array."""
    x, y = _check_point(x, y, n)
    return _scalar_or_array(np.where(x == y, 0.0, (1.0 - y**n) - stop_weight(x, y, n)))


def stop_weight(x, y, n: int) -> np.ndarray:
    """Reward weight b(x, y) = (1-x^{n-1}) min{1, (1-y)/(1-x)} + x^{n-1}(1-y).

    This is the integrand of the quantile representation of the rule reward;
    R(x, y) = b(x, y) / (1 - y^n).  Broadcasts over x and y.
    """
    x, y = _check_point(x, y, n)
    return _weight(x, x ** (n - 1), _g(x, n), y)


def _weight(x, xp, g, y):
    """b(x, y) from the factors xp = x^{n-1} and g = g(x) of the stopper's level."""
    return np.where(y <= x, 1.0 - xp * y, (1.0 - y) * g)


def _g(x, n: int):
    """g(x) = (1 - x^n) / (1 - x) = sum_{k<n} x^k, with g(1) = n."""
    top = x >= 1.0
    if not top.any():  # grid levels and most level scans: no 0/0 to guard
        return (1.0 - x**n) / (1.0 - x)
    return np.where(top, n, (1.0 - x**n) / np.where(top, 1.0, 1.0 - x))


def _check_point(x, y, n):
    check_horizon(n)
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if not np.all((0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)):
        raise ValueError(f"kernel arguments must lie in [0, 1], got ({x!r}, {y!r})")
    return x, y


def _scalar_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def check_grid(n: int, N: int) -> tuple[int, int]:
    """Validate a game size: horizon n >= 2 and grid size N >= 3."""
    check_horizon(n)
    check_integer(N, "grid size", 3)
    return int(n), int(N)


def payoff_matrix(kind: KernelKind | str, n: int, N: int) -> np.ndarray:
    """Dense game matrix R_N = B / d (per column) or A_N = d - B on levels
    {1/N, ..., (N-1)/N}, as a float64 (N-1) x (N-1) array (rows = stopper
    levels, columns = adversary): Generator.block on every level pair, so
    its diagonal is exactly 1 or 0.  The sharp solvers never form it: it is
    the dense view for tests, oracles and small games."""
    n, N = check_grid(n, N)
    levels = np.arange(N - 1)
    return Generator(n, N).block(kind, levels, levels)


def reward_weights(n: int, N: int) -> np.ndarray:
    """Matrix B with B[i-1, j-1] = stop_weight(i/N, j/N, n); R_N = B / d per column.

    B[i, j] = 1 - x_i^{n-1} y_j for j <= i (rank 2) and (1 - y_j) g(x_i)
    for j > i (rank 1), so B is semiseparable.
    """
    y = _levels(N)
    return stop_weight(y[:, None], y, n)


def prophet_weights(n: int, N: int) -> np.ndarray:
    """Vector d with d[j-1] = 1 - (j/N)^n (prophet weight of increment j)."""
    return Generator(n, N).d


def _levels(N: int) -> np.ndarray:
    check_integer(N, "grid size", 2)
    return np.arange(1, N, dtype=np.float64) / N


class Generator:
    """The generator of the N-grid games at horizon n: the reward weights B
    and the prophet weights d on the levels y = {1/N, ..., (N-1)/N}.  The
    grid factors y^{n-1}, g(y), 1 - y and d = 1 - y^n are computed once
    here, so a solver builds one Generator per solve and runs every product
    and payoff block through it."""

    def __init__(self, n: int, N: int):
        check_horizon(n)
        self.y = y = _levels(N)
        self.N, n = int(N), int(n)
        self.xp, self.tail, self.d = y ** (n - 1), 1.0 - y, 1.0 - y**n
        self.g = self.d / self.tail  # _g(y, n)'s own operations: no level is 1

    def matvec(self, v) -> np.ndarray:
        """B v in O(N): stop_weight_sums at the grid levels with weights v,
        whose count of levels <= y_i is i."""
        v = self._vector(v)
        T = np.append(_suffix_sum(v * self.tail)[1:], 0.0)
        return np.cumsum(v) - self.xp * np.cumsum(v * self.y) + self.g * T

    def rmatvec(self, lam) -> np.ndarray:
        """B^T lam in O(N): (B^T lam)_j = sum_{i>=j} lam_i - y_j sum_{i>=j} x_i^{n-1} lam_i
        + (1 - y_j) sum_{i<j} g(x_i) lam_i."""
        lam = self._vector(lam)
        strict_prefix = np.concatenate(([0.0], np.cumsum(self.g * lam)[:-1]))
        return _suffix_sum(lam) - self.y * _suffix_sum(self.xp * lam) + self.tail * strict_prefix

    def block(self, kind: KernelKind | str, rows, cols) -> np.ndarray:
        """The block of R_N (B / d per column) or A_N (d - B) at level indices
        rows x cols (0-based, level i is (i+1)/N), with the exact diagonal 1
        (ratio) or 0 (regret), in O(len(rows) * len(cols))."""
        ratio = KernelKind(kind) is KernelKind.RATIO
        i, j = np.asarray(rows, dtype=np.intp)[:, None], np.asarray(cols, dtype=np.intp)[None, :]
        B = _weight(self.y[i], self.xp[i], self.g[i], self.y[j])
        d = self.d[j]
        return np.where(i == j, float(ratio), B / d if ratio else d - B)

    def _vector(self, v) -> np.ndarray:
        """v as a float vector on the grid's N-1 levels."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.N - 1,):
            raise ValueError(f"vector must have length N-1 = {self.N - 1}, got {v.shape}")
        return v


def weight_sums(y, w, tail) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running sums of the measure with masses w at sorted levels y, tail
    masses tail = 1 - y: P[k] and Q[k] sum w and w y over the first k
    levels, T[k] sums w tail over the others (k = 0, ..., len(y))."""
    P = np.concatenate(([0.0], np.cumsum(w)))
    Q = np.concatenate(([0.0], np.cumsum(w * y)))
    T = np.append(_suffix_sum(w * tail), 0.0)
    return P, Q, T


def stop_weight_sums(x, y, w, tail, n: int) -> np.ndarray:
    """sum_k w_k b(x, y_k) at each level x in [0, 1], for sorted levels y
    with weights w and tail masses tail = 1 - y: P - x^{n-1} Q + g(x) T,
    with P, Q and T the weight_sums at the count of levels y_k <= x.  The
    caller's tail keeps T exact for y near 1, where 1 - y cancels.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.searchsorted(y, x, side="right")
    P, Q, T = (s[k] for s in weight_sums(y, w, tail))
    return P - x ** (n - 1) * Q + _g(x, n) * T


def _suffix_sum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1])[::-1]


def err_bound_diff(n: int, N: int) -> float:
    """Discretization error bound (n-1)/(2N) for the difference game, n >= 2."""
    check_horizon(n)
    check_integer(N, "grid size", 1)
    return (n - 1) / (2.0 * N)


def err_bound_ratio(n: int, N: int) -> float:
    """Discretization error bound (n-1) / (2N [(1-1/e)^2 - 1/(n-1)]), n >= 4."""
    check_horizon(n, minimum=4)
    check_integer(N, "grid size", 1)
    return (n - 1) / (2.0 * N * ((1.0 - math.exp(-1.0)) ** 2 - 1.0 / (n - 1)))


def support_cutoff(n: int) -> float:
    """c_n = -ln(1 - (1-1/e)^2 + 1/(n-1)); the optimal stopper strategy puts
    no mass on levels in [1 - c_n/n, 1].  Defined for n >= 4."""
    check_horizon(n, minimum=4)
    return -math.log(1.0 - (1.0 - math.exp(-1.0)) ** 2 + 1.0 / (n - 1))


def lipschitz_a(n: int) -> float:
    """Lipschitz constant n-1 of the difference kernel in either argument."""
    check_horizon(n)
    return float(n - 1)


def lipschitz_r(n: int, eps: float) -> float:
    """Lipschitz constant (n-1)/(1-(1-eps)^n) of R for x restricted to [0, 1-eps]."""
    check_horizon(n)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    return (n - 1) / (1.0 - (1.0 - eps) ** n)
