"""Game kernels on the unit square and their discretized payoff matrices.

The ratio kernel R and difference kernel A drive the two zero-sum games; on
the uniform level grid {i/N} both derive from the generator, the reward
weights B and the prophet weights d: R_N = B / d per column, A_N = d - B.
Any block of R_N or A_N comes from one entry formula (payoff_entries).
B is semiseparable, so B v and B^T lam take O(N) operations
(reward_matvec, reward_rmatvec); every solver reaches B only through them
and through payoff_entries' blocks.  Also: the discretization error
bounds, the support-exclusion constant, and the Lipschitz constants used by
property tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class KernelKind(str, Enum):
    RATIO = "ratio"
    DIFFERENCE = "difference"


def kernel_r(x: float, y: float, n: int) -> float:
    """Ratio kernel R(x, y); the diagonal is 1 by definition (also at (1,1))."""
    _check_point(x, y, n)
    if x == y:
        return 1.0
    if x > y:
        return (1.0 - x ** (n - 1) * y) / (1.0 - y**n)
    if y == 1.0:
        # continuous limit of the x < y branch
        return (1.0 - x**n) / (1.0 - x) / n
    return (1.0 - y) / (1.0 - y**n) * (1.0 - x**n) / (1.0 - x)


def kernel_a(x: float, y: float, n: int) -> float:
    """Difference kernel A(x, y) >= 0; vanishes on the diagonal."""
    _check_point(x, y, n)
    if x == y:
        return 0.0
    if x > y:
        return y * (x ** (n - 1) - y ** (n - 1))
    return (1.0 - y) * (_power_sum(y, n) - _power_sum(x, n))


def stop_weight(x: float, y, n: int):
    """Reward weight b(x, y) = (1-x^{n-1}) min{1, (1-y)/(1-x)} + x^{n-1}(1-y).

    This is the integrand of the quantile representation of the rule reward;
    R(x, y) = b(x, y) / (1 - y^n).  Vectorized in y.
    """
    y = np.asarray(y, dtype=np.float64)
    if x >= 1.0:
        return 1.0 - y
    low = 1.0 - x ** (n - 1) * y  # y <= x
    high = (1.0 - y) * (1.0 - x**n) / (1.0 - x)  # y > x
    return np.where(y <= x, low, high)


def _power_sum(z: float, n: int) -> float:
    """sum_{k=1}^{n-1} z^k."""
    if z == 1.0:
        return float(n - 1)
    return (z - z**n) / (1.0 - z)


def _check_point(x, y, n):
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"kernel arguments must lie in [0, 1], got ({x!r}, {y!r})")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"horizon must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class PayoffMatrix:
    """Dense (N-1) x (N-1) payoff matrix; rows = stopper levels, cols = adversary."""

    kind: KernelKind
    n: int
    N: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.shape != (self.N - 1, self.N - 1):
            raise ValueError(f"entries must be {(self.N - 1, self.N - 1)}, got {entries.shape}")
        object.__setattr__(self, "kind", KernelKind(self.kind))
        object.__setattr__(self, "entries", entries)

    def to_csv(self) -> str:
        lines = [",".join(format(v, ".17g") for v in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind.value, "n": self.n, "N": self.N,
             "rows": [[float(v) for v in row] for row in self.entries]}
        )

    @classmethod
    def from_json(cls, text: str) -> "PayoffMatrix":
        obj = json.loads(text)
        return cls(KernelKind(obj["kind"]), int(obj["n"]), int(obj["N"]),
                   np.asarray(obj["rows"], dtype=np.float64))


def check_grid(n: int, N: int) -> tuple[int, int]:
    """Validate a game size: horizon n >= 2 and grid size N >= 3."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"horizon must be an integer >= 2, got {n!r}")
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ValueError(f"grid size must be an integer >= 3, got {N!r}")
    return int(n), int(N)


def payoff_matrix(kind: KernelKind | str, n: int, N: int) -> PayoffMatrix:
    """Dense game matrix R_N = B / d (per column) or A_N = d - B on levels
    {1/N, ..., (N-1)/N}: payoff_entries on every level pair, so its diagonal
    is exactly 1 or 0.  The sharp solvers never form it: it is the dense
    view for tests, oracles and small games."""
    kind = KernelKind(kind)
    n, N = check_grid(n, N)
    levels = np.arange(N - 1)
    return PayoffMatrix(kind, n, N, payoff_entries(kind, n, N)(levels, levels))


def payoff_entries(kind: KernelKind | str, n: int, N: int):
    """Entry function of R_N or A_N: entries(rows, cols) is the block of the
    game matrix at level indices rows x cols (0-based, level i is (i+1)/N),
    with the exact diagonal 1 (ratio) or 0 (regret).  The generator factors
    are computed once here; each block costs O(len(rows) * len(cols))."""
    ratio = KernelKind(kind) is KernelKind.RATIO
    factors, d = generator_factors(n, N), prophet_weights(n, N)

    def entries(rows, cols) -> np.ndarray:
        i, j = np.asarray(rows, dtype=np.intp)[:, None], np.asarray(cols, dtype=np.intp)[None, :]
        B = _weight_block(factors, i, j)
        return np.where(i == j, float(ratio), B / d[j] if ratio else d[j] - B)

    return entries


def reward_weights(n: int, N: int) -> np.ndarray:
    """Matrix B with B[i-1, j-1] = stop_weight(i/N, j/N, n); R_N = B / d per column."""
    levels = np.arange(N - 1)
    return _weight_block(generator_factors(n, N), levels[:, None], levels[None, :])


def _weight_block(factors, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """B at broadcast level indices i (rows) and j (columns)."""
    y, xp, g = factors
    return np.where(j <= i, 1.0 - xp[i] * y[j], (1.0 - y[j]) * g[i])


def prophet_weights(n: int, N: int) -> np.ndarray:
    """Vector d with d[j-1] = 1 - (j/N)^n (prophet weight of increment j)."""
    g = np.arange(1, N, dtype=np.float64) / N
    return 1.0 - g**n


def generator_factors(n: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels y = {i/N}, x^{n-1} and g = (1 - x^n) / (1 - x) on them.

    They factor B: B[i, j] = 1 - x_i^{n-1} y_j for j <= i (rank 2) and
    (1 - y_j) g_i for j > i (rank 1), so B is semiseparable.
    """
    y = np.arange(1, N, dtype=np.float64) / N
    return y, y ** (n - 1), (1.0 - y**n) / (1.0 - y)


def stop_weight_sums(x, y, w, tail, n: int) -> np.ndarray:
    """sum_k w_k b(x, y_k) at each level x in [0, 1], for sorted levels y
    with weights w and tail masses tail = 1 - y: P - x^{n-1} Q + g(x) T,
    with P and Q the sums of w and w y over y_k <= x, T the sum of w tail
    over y_k > x and g(x) = (1 - x^n) / (1 - x), g(1) = n.  The caller's
    tail keeps T exact for y near 1, where 1 - y cancels.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.searchsorted(y, x, side="right")
    P = np.concatenate(([0.0], np.cumsum(w)))[k]
    Q = np.concatenate(([0.0], np.cumsum(w * y)))[k]
    T = np.append(_suffix_sum(w * tail), 0.0)[k]
    top = x >= 1.0
    g = np.where(top, n, (1.0 - x**n) / np.where(top, 1.0, 1.0 - x))
    return P - x ** (n - 1) * Q + g * T


def reward_matvec(n: int, N: int, v) -> np.ndarray:
    """B v from O(N) running sums: stop_weight_sums at the grid levels, weights v."""
    y = np.arange(1, N, dtype=np.float64) / N
    return stop_weight_sums(y, y, _grid_vector(v, N), 1.0 - y, n)


def reward_rmatvec(n: int, N: int, lam) -> np.ndarray:
    """B^T lam in O(N): (B^T lam)_j = sum_{i>=j} lam_i - y_j sum_{i>=j} x_i^{n-1} lam_i
    + (1 - y_j) sum_{i<j} g_i lam_i."""
    y, xp, g = generator_factors(n, N)
    lam = _grid_vector(lam, N)
    prefix = np.cumsum(g * lam)
    strict_prefix = np.concatenate(([0.0], prefix[:-1]))
    return _suffix_sum(lam) - y * _suffix_sum(xp * lam) + (1.0 - y) * strict_prefix


def _grid_vector(v, N: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (N - 1,):
        raise ValueError(f"vector must have length N-1 = {N - 1}, got {v.shape}")
    return v


def _suffix_sum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1])[::-1]


def err_bound_diff(n: int, N: int) -> float:
    """Discretization error bound (n-1)/(2N) for the difference game, n >= 2."""
    if n < 2 or N < 1:
        raise ValueError(f"need n >= 2 and N >= 1, got n={n!r}, N={N!r}")
    return (n - 1) / (2.0 * N)


def err_bound_ratio(n: int, N: int) -> float:
    """Discretization error bound (n-1) / (2N [(1-1/e)^2 - 1/(n-1)]), n >= 4."""
    if n < 4:
        raise ValueError(f"the ratio error bound requires n >= 4, got {n!r}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N!r}")
    return (n - 1) / (2.0 * N * ((1.0 - math.exp(-1.0)) ** 2 - 1.0 / (n - 1)))


def support_cutoff(n: int) -> float:
    """c_n = -ln(1 - (1-1/e)^2 + 1/(n-1)); the optimal stopper strategy puts
    no mass on levels in [1 - c_n/n, 1].  Defined for n >= 4."""
    if n < 4:
        raise ValueError(f"the support cutoff requires n >= 4, got {n!r}")
    return -math.log(1.0 - (1.0 - math.exp(-1.0)) ** 2 + 1.0 / (n - 1))


def lipschitz_a(n: int) -> float:
    """Lipschitz constant n-1 of the difference kernel in either argument."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    return float(n - 1)


def lipschitz_r(n: int, eps: float) -> float:
    """Lipschitz constant (n-1)/(1-(1-eps)^n) of R for x restricted to [0, 1-eps]."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    return (n - 1) / (1.0 - (1.0 - eps) ** n)
