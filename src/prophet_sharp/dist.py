"""Finite atomic distributions on [0, inf).

Everything downstream (rewards, games, simulation) consumes this one type:
sorted atoms with positive probabilities summing to one.  Also holds the
constructor of the N-atom equal-probability grid family (grid_distribution)
and the reconstruction of least-favorable distributions from optimal
adversary strategies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .kernel import _suffix_sum, check_horizon, check_integer, prophet_weights

#: absolute tolerance for probability normalization; inputs outside it are
#: rejected, never renormalized (silent renormalization hides caller bugs).
PROB_TOL = 1e-12


def _mixed_cdf(cdf_left: float, cdf: float, p: float) -> float:
    """p*F(x-) + (1-p)*F(x) from F(x-) and F(x), for a p already in [0, 1]."""
    return p * cdf_left + (1.0 - p) * cdf


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atomic distribution: strictly increasing values, positive probs."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be 1-D arrays of equal length")
        if values.size == 0:
            raise ValueError("a distribution needs at least one atom")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(probs)):
            raise ValueError("values and probs must be finite")
        if values[0] < 0.0:
            raise ValueError("atom values must be nonnegative")
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("atom values must be strictly increasing")
        if np.any(probs <= 0.0):
            raise ValueError("atom probabilities must be positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_TOL}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        try:
            pairs = sorted((float(v), float(p)) for v, p in atoms)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"atoms must be (value, probability) pairs of numbers: {exc}") from exc
        if not pairs:
            raise ValueError("empty atom list")
        return cls(np.array([v for v, _ in pairs]), np.array([p for _, p in pairs]))

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls(np.array([float(value)]), np.array([1.0]))

    # -- CDF machinery ---------------------------------------------------

    @property
    def cumulative(self) -> np.ndarray:
        return self._cum

    def cdf(self, x: float) -> float:
        """Right-continuous F(x) = P(X <= x)."""
        k = int(np.searchsorted(self.values, x, side="right"))
        return float(self._cum[k - 1]) if k > 0 else 0.0

    def cdf_left(self, x: float) -> float:
        """F(x-) = P(X < x)."""
        k = int(np.searchsorted(self.values, x, side="left"))
        return float(self._cum[k - 1]) if k > 0 else 0.0

    def mixed_cdf(self, x: float, p: float) -> float:
        """F_p(x) = p*F(x-) + (1-p)*F(x), the no-stop probability at level x."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p!r}")
        return _mixed_cdf(self.cdf_left(x), self.cdf(x), p)

    def quantile(self, t: float) -> float:
        """Left-continuous inverse: smallest atom with cumulative prob >= t.

        Total on [0, 1]: t <= 0 maps to the smallest atom, t >= 1 (and any t
        above the accumulated mass) to the largest.
        """
        k = int(np.searchsorted(self._cum, min(t, 1.0), side="left"))
        return float(self.values[min(k, self.values.size - 1)])

    # -- moments and extremes ---------------------------------------------

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def variance(self) -> float:
        mu = self.mean()
        return float(self.values**2 @ self.probs) - mu * mu

    def expected_max(self, n: int) -> float:
        """Prophet value M_n = E max of n iid draws; equals the mean at n=1.

        Computed as int (1 - y^n) dF^{<-}(y), with 1 - y^n taken from the
        tail mass t = 1 - y as -expm1(n log1p(-t)), which does not cancel
        for y near 1; the jump at level 0 contributes values[0].
        """
        check_horizon(n, minimum=1)
        return _prophet_value(*self.quantile_jumps()[1:], n)

    def quantile_jumps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels, masses and tail masses of the measure dF^{<-} on [0, 1).

        The quantile function jumps by values[k+1]-values[k] at each interior
        cumulative probability, plus a jump of values[0] at level 0 (the
        convention that makes int (1-y^n) dF^{<-} equal expected_max).  The
        tail mass at level y is 1 - y, summed from probs so that it does not
        cancel when y is near 1.
        """
        levels = np.concatenate(([0.0], self._cum[:-1]))
        weights = np.concatenate(([self.values[0]], np.diff(self.values)))
        tails = _suffix_sum(self.probs)
        return levels, weights, tails

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        return {"atoms": [[v, p] for v, p in zip(self.values, self.probs)]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "DiscreteDistribution":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("distribution JSON must be an object with an 'atoms' key")
        return cls.from_atoms(obj["atoms"])

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteDistribution":
        rows = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not rows or rows[0].replace(" ", "") != "value,prob":
            raise ValueError("distribution CSV must start with a 'value,prob' header")
        atoms = []
        for ln in rows[1:]:
            v, p = ln.split(",")
            atoms.append((float(v), float(p)))
        return cls.from_atoms(atoms)

    @classmethod
    def from_file(cls, path: str) -> "DiscreteDistribution":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if str(path).endswith(".csv"):
            return cls.from_csv(text)
        return cls.from_json(text)


def _prophet_value(weights: np.ndarray, tails: np.ndarray, n: int) -> float:
    """M_n from the masses and tail masses of dF^{<-} (quantile_jumps)."""
    # probs may sum to 1 + PROB_TOL; at a tail of 1, log1p(-1) = -inf is exact
    with np.errstate(divide="ignore"):
        powers = -np.expm1(n * np.log1p(-np.minimum(tails[1:], 1.0)))
    return float(weights[0] + weights[1:] @ powers)


def grid_distribution(u: Sequence[float], N: int) -> DiscreteDistribution:
    """Member of the N-atom grid family with i/N-quantiles u_1, ..., u_{N-1}.

    Its atoms are {0, u_1, ..., u_{N-1}}, each carrying mass 1/N (equal
    values merged); u_i is the cumulative sum of the increments
    v_j = u_j - u_{j-1} (u_0 = 0), so callers with increments write
    grid_distribution(np.cumsum(v), N).  The top increment carries zero
    weight in every value formula, so it is pinned to zero (u_N = u_{N-1}).
    """
    check_integer(N, "grid size", 2)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (N - 1,):
        raise ValueError(f"expected N-1 = {N - 1} quantiles, got {u.shape}")
    if np.any(np.diff(u) < 0.0) or (u.size and u[0] < 0.0):
        raise ValueError("grid quantiles must be nonnegative and nondecreasing")
    vals, counts = np.unique(np.concatenate(([0.0], u)), return_counts=True)
    return DiscreteDistribution(vals, counts / N)


def lfd_from_mu_ratio(mu: Sequence[float], n: int, N: int) -> DiscreteDistribution:
    """Least-favorable distribution of the ratio game from adversary strategy mu.

    u_i = sum_{j<=i} mu_j / (1 - (j/N)^n); the result is the grid member with
    i/N-quantiles u_i and prophet value exactly sum(mu).
    """
    check_horizon(n)
    mu = _checked_mu(mu, N, require_sum_one=True)
    return grid_distribution(np.cumsum(mu / prophet_weights(n, N)), N)


def lfd_from_mu_diff(mu: Sequence[float], N: int) -> DiscreteDistribution:
    """Least-favorable distribution of the difference game: u_i = sum_{j<=i} mu_j."""
    mu = _checked_mu(mu, N, require_sum_one=False)
    return grid_distribution(np.cumsum(mu), N)


def _checked_mu(mu: Sequence[float], N: int, require_sum_one: bool) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (N - 1,):
        raise ValueError(f"mu must have length N-1 = {N - 1}, got {mu.shape}")
    if np.any(mu < -1e-12):
        raise ValueError("mu must be nonnegative")
    mu = np.maximum(mu, 0.0)
    total = float(mu.sum())
    if require_sum_one and abs(total - 1.0) > 1e-9:
        raise ValueError(f"mu must sum to 1 within 1e-9, got {total!r}")
    if not require_sum_one and total > 1.0 + 1e-9:
        raise ValueError(f"mu must sum to at most 1, got {total!r}")
    return mu
