"""Monte Carlo simulation of threshold rules and the prophet benchmark.

RNG: counter-based splitmix64 streams, one per trial, keyed by
(seed, trial index).  A draw is random-access within its stream, so the
vectorized trial loops consume draws exactly as a sequential walk through
each trial (TrialStream) would.  Tie-break draws are consumed only when an
observation equals the threshold exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution
from .reward import ThresholdRule

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_INV53 = 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    n: int

    def __post_init__(self):
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"horizon must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    mean: float
    std_error: float
    trials: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {"mean": self.mean, "std_error": self.std_error,
             "trials": self.trials, "seed": self.seed}
        )


# -- splitmix64 primitives (python-int reference implementation) ------------


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _stream_state(seed: int, trial: int) -> int:
    return _mix(_mix((seed + _GOLDEN) & _MASK) ^ _mix(((trial + 1) * _GOLDEN) & _MASK))


def _draw(state: int, k: int) -> float:
    return (_mix((state + (k + 1) * _GOLDEN) & _MASK) >> 11) * _INV53


class TrialStream:
    """Sequential view of one trial's uniform stream; replayable by seed."""

    def __init__(self, seed: int, trial: int = 0):
        self._state = _stream_state(int(seed), int(trial))
        self._count = 0

    def uniform(self) -> float:
        u = _draw(self._state, self._count)
        self._count += 1
        return u


def sample(dist: DiscreteDistribution, stream: TrialStream) -> float:
    """Inverse-CDF draw: always an atom of dist."""
    return dist.quantile(stream.uniform())


# -- vectorized trial loops -------------------------------------------------

_U = np.uint64


def _mix_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U(30))) * _U(_MIX1)
    z = (z ^ (z >> _U(27))) * _U(_MIX2)
    return z ^ (z >> _U(31))


def _stream_states_vec(seed: int, trials: int) -> np.ndarray:
    t = np.arange(1, trials + 1, dtype=np.uint64)
    a = _mix_vec(np.full(trials, (seed + _GOLDEN) & _MASK, dtype=np.uint64))
    return _mix_vec(a ^ _mix_vec(t * _U(_GOLDEN)))


def _draw_vec(states: np.ndarray, counts: np.ndarray) -> np.ndarray:
    z = _mix_vec(states + (counts + _U(1)) * _U(_GOLDEN))
    return (z >> _U(11)).astype(np.float64) * _INV53


def _atoms_at(values, cum, u) -> np.ndarray:
    idx = np.minimum(np.searchsorted(cum, u, side="left"), values.size - 1)
    return values[idx]


def _rule_rewards(values, cum, theta, p, n, seed, trials) -> np.ndarray:
    with np.errstate(over="ignore"):
        states = _stream_states_vec(seed, trials)
        counts = np.zeros(trials, dtype=np.uint64)
        rewards = np.zeros(trials)
        alive = np.ones(trials, dtype=bool)
        for _ in range(n - 1):
            u = _draw_vec(states, counts)
            counts[alive] += _U(1)
            x = _atoms_at(values, cum, u)
            hit = alive & (x > theta)
            tie = alive & (x == theta)
            if tie.any():
                xi = _draw_vec(states, counts)
                counts[tie] += _U(1)
                hit |= tie & (xi < p)
            rewards[hit] = x[hit]
            alive &= ~hit
        u = _draw_vec(states, counts)
        rewards[alive] = _atoms_at(values, cum, u[alive])
    return rewards


def _prophet_rewards(values, cum, n, seed, trials) -> np.ndarray:
    with np.errstate(over="ignore"):
        states = _stream_states_vec(seed, trials)
        best = np.zeros(trials)
        for k in range(n):
            u = _draw_vec(states, np.full(trials, k, dtype=np.uint64))
            np.maximum(best, _atoms_at(values, cum, u), out=best)
    return best


def _summarize(rewards: np.ndarray, cfg: SimConfig) -> SimResult:
    mean = float(np.mean(rewards))  # numpy pairwise summation: reproducible
    if cfg.trials > 1:
        se = float(np.std(rewards, ddof=1) / np.sqrt(cfg.trials))
    else:
        se = 0.0
    return SimResult(mean=mean, std_error=se, trials=cfg.trials, seed=cfg.seed)


def run_rule(dist: DiscreteDistribution, rule: ThresholdRule, cfg: SimConfig) -> SimResult:
    """Estimate the reward of tau_p(theta) over cfg.trials independent runs."""
    rewards = _rule_rewards(dist.values, dist.cumulative, float(rule.theta), float(rule.p),
                            int(cfg.n), int(cfg.seed), int(cfg.trials))
    return _summarize(rewards, cfg)


def run_prophet(dist: DiscreteDistribution, cfg: SimConfig) -> SimResult:
    """Estimate the prophet value E max of cfg.n iid draws."""
    rewards = _prophet_rewards(dist.values, dist.cumulative, int(cfg.n), int(cfg.seed),
                               int(cfg.trials))
    return _summarize(rewards, cfg)
