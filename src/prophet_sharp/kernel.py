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
sums (Generator.matvec, from weight_sums, and rmatvec); every solver
builds one Generator and reaches B only through it; only prophet_weights
wraps a one-use Generator.  payoff_matrix is the dense R_N or A_N as an
array and the dense B (reward_weights) is the tests' oracle.  Also: the
horizon check, the continuum game's pure-level saddle at horizon n, which
knows no grid and seeds the grid games (_saddle_levels), the level x*_n
whose continuum single-level bound on kappa_n is least, which seeds kappa
the same way (_kappa_level), the one map of such levels to grid indices
(_grid_block), the discretization error bounds, the support-exclusion
constant, and the Lipschitz constants used by property tests.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.optimize import brentq


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
        r = np.where(y == 1.0, _g(x, n) / n, stop_weight(x, y, n) / (1.0 - _power(y, n)))
    return _scalar_or_array(np.where(x == y, 1.0, r))


def kernel_a(x, y, n: int):
    """Difference kernel A(x, y) = (1 - y^n) - b(x, y) >= 0; vanishes on the
    diagonal.  For y <= x it is y x^{n-1} (1 - (1 - r)^{n-1}), r = (x - y)/x,
    the bracket by expm1 and log1p so that nothing cancels near the
    diagonal; for y > x it is (y - x)(1 - y) h_{n-2}(1, x, y) (_h3).  A
    float for scalar x and y, else their broadcast array."""
    x, y = _check_point(x, y, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.clip((x - y) / x, 0.0, 1.0)  # 0 on and above the diagonal, nan at x = 0
        below = np.where(r > 0.0, -y * _power(x, n - 1) * np.expm1(_times(n - 1, np.log1p(-r))),
                         0.0)
    return _scalar_or_array(np.where(y <= x, below, (y - x) * (1.0 - y) * _h3(x, y, n)))


def _h3(x, y, n: int):
    """h_{n-2}(1, x, y), the sum of x^i y^j over i + j <= n - 2 (the second
    divided difference of z^n at x, y and 1), for x < y, within about 16 eps.
    Where n (1 - x) >= 1/2 it is (g(y) - (y^n - x^n) / (y - x)) / (1 - x),
    each power through expm1 and log, a difference that loses a few bits
    at most; nearer 1 it is the same divided difference of (1 - w)^n at
    w = 0, u = 1 - x and v = 1 - y, the series sum_{k>=2} C(n, k) (-1)^k
    h_{k-2}(u, v), whose terms shrink at least threefold from one to the
    next."""
    u, v, d = 1.0 - x, 1.0 - y, y - x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gy = np.where(v > 0.0, -np.expm1(_times(n, np.log(y))) / v, n)
        far = (gy + _power(y, n) * np.expm1(_times(n, np.log1p(-d / y))) / d) / u
        # at n u < 1/2 term k is below 2 (k - 1) 2**(2 - k) / k! of the
        # first, 1e-19 at k = 18; C(n, k) = 0 for k > n
        near, h, vk, c = 0.0, 1.0, 1.0, 0.5 * n * (n - 1)
        for k in range(2, 18):
            near = near + (-1) ** k * c * h
            vk = vk * v
            h, c = u * h + vk, c * (n - k) / (k + 1)
        return np.where(n * u >= 0.5, far, near)


def stop_weight(x, y, n: int) -> np.ndarray:
    """Reward weight b(x, y) = (1-x^{n-1}) min{1, (1-y)/(1-x)} + x^{n-1}(1-y).

    This is the integrand of the quantile representation of the rule reward;
    R(x, y) = b(x, y) / (1 - y^n).  Broadcasts over x and y.
    """
    x, y = _check_point(x, y, n)
    return _weight(x, _power(x, n - 1), _g(x, n), y)


def _weight(x, xp, g, y):
    """b(x, y) from the factors xp = x^{n-1} and g = g(x) of the stopper's level."""
    return np.where(y <= x, 1.0 - xp * y, (1.0 - y) * g)


def _g(x, n: int):
    """g(x) = (1 - x^n) / (1 - x) = sum_{k<n} x^k, with g(1) = n, for level scans and kernels."""
    top = x >= 1.0
    return np.where(top, n, (1.0 - _power(x, n)) / np.where(top, 1.0, 1.0 - x))


def _split(k: int) -> tuple[float, int]:
    """k >= 0 as a float e <= k plus the exact k - e, nonzero only where float(k) rounds."""
    e = float(k) if float(k) <= int(k) else math.nextafter(float(k), 0.0)
    return e, int(k) - int(e)


def _power(x, k: int):  # x**k, as x**e * x**(k - e) when k is split
    e, r = _split(k)
    return x ** k if r == 0 else x ** e * x ** r


def _times(k: int, z):  # k * z, as e * z + (k - e) * z when k is split
    e, r = _split(k)
    return k * z if r == 0 else e * z + r * z


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
        from the weight_sums at each level's count i of levels <= y_i."""
        P, Q, T = weight_sums(self.y, self._vector(v), self.tail)[:, 1:]
        return P - self.xp * Q + self.g * T

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


def weight_sums(y, w, tail) -> np.ndarray:
    """Running sums of the measure with masses w at sorted levels y, tail
    masses tail = 1 - y, as the rows P, Q, T of one array: P[k] and Q[k]
    sum w and w y over the first k levels, T[k] sums w tail over the others
    (k = 0, ..., len(y))."""
    sums = np.zeros((3, len(w) + 1))
    np.cumsum(w, out=sums[0, 1:])
    np.cumsum(w * y, out=sums[1, 1:])
    sums[2, :-1] = _suffix_sum(w * tail)
    return sums


def stop_weight_sums(x, y, w, tail, n: int) -> np.ndarray:
    """sum_k w_k b(x, y_k) at each level x in [0, 1], for sorted levels y
    with weights w and tail masses tail = 1 - y: P - x^{n-1} Q + g(x) T,
    with P, Q and T the weight_sums at the count of levels y_k <= x.  The
    caller's tail keeps T exact for y near 1, where 1 - y cancels.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.searchsorted(y, x, side="right")
    P, Q, T = weight_sums(y, w, tail)[:, k]
    return P - _power(x, n - 1) * Q + _g(x, n) * T


def _suffix_sum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1])[::-1]


def _log_power(t: float, k: int, n: int) -> float:
    """log (1 - t/n)^k, for the continuum levels in the scale t = n (1 - x)."""
    return k * math.log1p(-t / n)


def _saddle_levels(kind: KernelKind | str, n: int) -> tuple[float, tuple[float, float]]:
    """The pure stopper level x* and the adversary's two atoms of the
    continuum game's conjectured saddle point at horizon n: a starting
    block for the grid games, certified by nothing.  Ratio: y0 minimizes
    R(x, y) = (1 - a y)/(1 - y^n), a = x^{n-1}, over y <= x, which gives
    a = n y0^{n-1} / (1 + (n-1) y0^n); y0 solves R(x, y0) = g(x)/n, and the
    atoms are {y0, 1}.  Regret: A(x, y) peaks at y1 = x n^{-1/(n-1)} below x
    and at y2 = (g(x)/n)^{1/(n-1)} above it, and x equalizes the two peaks.
    One brentq per kind, by expm1 and log1p so that nothing cancels near 1
    at any n: the ratio in t = n (1 - y0) on [1/2, min(ln n + 2, 0.999 n)]
    (t0 is 1.17 at n = 2 and ln n + 0.31 to 0.54 for n >= 10), the regret
    in s = n (1 - x) on [1/2, min(2, 0.999 n)] (s* rises from 1 at n = 2
    to 1.7508 as n grows)."""
    kind = KernelKind(kind)
    check_horizon(n)
    n = int(n)

    def one_minus_power(t, k):
        return -math.expm1(_log_power(t, k, n))

    if kind is KernelKind.RATIO:
        def level(t):  # s and log a of the x whose minimizing y0 is 1 - t/n
            log_a = (math.log(n) + _log_power(t, n - 1, n)
                     - math.log1p((n - 1) * math.exp(_log_power(t, n, n))))
            return -n * math.expm1(log_a / (n - 1)), log_a

        def excess(t):  # R(x, y0) - g(x)/n
            s, log_a = level(t)
            return ((-math.expm1(log_a) + math.exp(log_a) * t / n) / one_minus_power(t, n)
                    - one_minus_power(s, n) / s)

        t = brentq(excess, 0.5, min(math.log(n) + 2.0, 0.999 * n))
        return 1.0 - level(t)[0] / n, (1.0 - t / n, 1.0)

    shrink = math.exp(-math.log(n) / (n - 1))  # n^{-1/(n-1)}

    def upper_atom(s):  # t2 = n (1 - y2), and g(x)/n
        G = one_minus_power(s, n) / s
        return -n * math.expm1(math.log(G) / (n - 1)), G

    def excess(s):  # A(x, y1) = (1 - 1/n) n^{-1/(n-1)} x^n minus A(x, y2)
        t2, G = upper_atom(s)  # A(x, y2) = 1 - G (1 + (n-1)(1 - y2))
        return ((1.0 - 1.0 / n) * shrink * math.exp(_log_power(s, n, n))
                - (1.0 - G * (1.0 + t2 * (n - 1) / n)))

    s = brentq(excess, 0.5, min(2.0, 0.999 * n))
    x = 1.0 - s / n
    return x, (x * shrink, 1.0 - upper_atom(s)[0] / n)


def _kappa_level(n: int) -> tuple[float, tuple[float, float]]:
    """The level x* minimizing the continuum single-level guarantee
    h(x)^2 = int_0^1 (C_x')^2 at horizon n, and the ends y1 < x* < y2 of
    its bridge: a starting block for kappa, certified by nothing.  h is the
    N -> infinity limit of kappa's bound sqrt(N) ||Pi_K(C^T mu)|| at
    mu = delta_x, and C_x, the least concave majorant of y -> A(x, y), has
    the antitonic projection of A(x, .)' as its slope (Barlow, Bartholomew,
    Bremner & Brunk 1972).  A(x, .) is concave on each side of x with a
    convex kink at x, so C_x is A but on one tangent bridge [y1, y2] of slope
    s = x^{n-1} - n y1^{n-1}, where n (y2^{n-1} - y1^{n-1}) = g(x) - x^{n-1}
    and (n-1)(y2^n - y1^n) = g(x) - 1.  The gradient of ||Pi_K v||^2 / 2 is
    Pi_K v (Moreau 1962), so h^2 is stationary where
    [(n-1) x^{n-2} - g'(x)] C_x(x) = (g(x) - x^{n-1}) s, with
    g'(x) = (g(x) - n x^{n-1}) / (1 - x).  One brentq in t = n (1 - x) on
    [0.9, 1.3], of the stationarity equation divided by n^2, around one for
    the bridge in u1 = n (1 - y1) on [t, min(4, 0.999 n)], by expm1 and
    log1p: t* rises from 1 at n = 2 to 1.2073, and u1 stays in [1.4, 3.2]."""
    check_horizon(n)
    n = int(n)

    def power(t, k):  # (1 - t/n)^k
        return math.exp(_log_power(t, k, n))

    def bridge(t):  # x^{n-1}, g(x)/n, the bridge's u1 and u2, and y1^{n-1}
        xp, G = power(t, n - 1), -math.expm1(_log_power(t, n, n)) / t
        # n (y2^{n-1} - y1^{n-1}) - n (y2^n - y1^n) = u2 y2^{n-1} - u1 y1^{n-1}
        rise, moment = G - xp / n, (n * (1.0 - G) - (n - 1) * xp) / (n - 1)

        def upper(u1):
            p1 = power(u1, n - 1)
            p2 = p1 + rise
            return -n * math.expm1(math.log(p2) / (n - 1)), p1, p2

        def excess(u1):
            u2, p1, p2 = upper(u1)
            return u2 * p2 - u1 * p1 - moment

        u1 = brentq(excess, t, min(4.0, 0.999 * n))
        return xp, G, u1, *upper(u1)[:2]

    def stationarity(t):
        xp, G, u1, _, p1 = bridge(t)
        majorant = p1 * (t - u1 - 1.0 + u1 / n) + xp * (1.0 - t / n)  # C_x(x)
        return (((n - 1) * power(t, n - 2) / n**2 - (G - xp) / t) * majorant
                - (G - xp / n) * (xp / n - p1))

    t = brentq(stationarity, 0.9, 1.3)
    _, _, u1, u2, _ = bridge(t)
    return 1.0 - t / n, (1.0 - u1 / n, 1.0 - u2 / n)


def _grid_block(levels, N: int, below: int, above: int) -> list:
    """The one place where continuum levels meet the N-grid: for each level
    z the 0-based indices floor(zN) + k, k = -below, ..., above - 1 (level
    i is (i+1)/N), clipped to [0, N-2], sorted and without repeats."""
    return sorted({min(max(math.floor(z * N) + k, 0), N - 2)
                   for z in levels for k in range(-below, above)})


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
