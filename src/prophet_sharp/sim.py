"""Monte Carlo simulation of threshold rules and the prophet benchmark.

RNG: counter-based splitmix64 streams, one per trial, keyed by
(seed, trial index); draw k of a stream is a pure function of (seed, trial,
k), so every run replays by seed.  The draw positions never depend on the
data: observation t of a trial is its draw t (t < n), and the tie-break
coin of step t is its draw n + t, whether or not step t ties.  A trial that
has stopped therefore draws nothing more, and the rule loop keeps only the
indices of the trials still running.  Trials run in chunks of _CHUNK into
one float64 reward array, about 16 bytes per trial at the peak including
the summary; the result does not depend on the chunk size.  TrialStream is
the sequential view of one stream, drawn by the same generator.
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


# -- splitmix64 ---------------------------------------------------------------

_U = np.uint64
_CHUNK = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U(30))) * _U(_MIX1)
    z = (z ^ (z >> _U(27))) * _U(_MIX2)
    return z ^ (z >> _U(31))


def _stream_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """States of the streams of trials lo, ..., hi - 1."""
    key = _mix(np.full(1, (seed + _GOLDEN) & _MASK, dtype=np.uint64))
    return _mix(key ^ _mix(np.arange(lo + 1, hi + 1, dtype=np.uint64) * _U(_GOLDEN)))


def _draw(states: np.ndarray, k: int) -> np.ndarray:
    """Draw k, a uniform in [0, 1), of each stream."""
    z = _mix(states + _U(((k + 1) * _GOLDEN) & _MASK))
    return (z >> _U(11)).astype(np.float64) * _INV53


class TrialStream:
    """Sequential view of one trial's uniform stream; replayable by seed."""

    def __init__(self, seed: int, trial: int = 0):
        self._state = _stream_states(int(seed), int(trial), int(trial) + 1)
        self._count = 0

    def uniform(self) -> float:
        u = float(_draw(self._state, self._count)[0])
        self._count += 1
        return u


def sample(dist: DiscreteDistribution, stream: TrialStream) -> float:
    """Inverse-CDF draw: always an atom of dist."""
    return dist.quantile(stream.uniform())


# -- trial loops ----------------------------------------------------------------


def _atoms_at(values, cum, u) -> np.ndarray:
    idx = np.minimum(np.searchsorted(cum, u, side="left"), values.size - 1)
    return values[idx]


def _simulate(cfg: SimConfig, rewards_of) -> SimResult:
    """Fill one reward array chunk by chunk from rewards_of(stream states)."""
    trials = int(cfg.trials)
    rewards = np.empty(trials)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        rewards[lo:hi] = rewards_of(_stream_states(int(cfg.seed), lo, hi))
    mean = float(np.mean(rewards))  # numpy pairwise summation: reproducible
    se = float(np.std(rewards, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimResult(mean=mean, std_error=se, trials=cfg.trials, seed=cfg.seed)


def run_rule(dist: DiscreteDistribution, rule: ThresholdRule, cfg: SimConfig) -> SimResult:
    """Estimate the reward of tau_p(theta) over cfg.trials independent runs."""
    values, cum, n = dist.values, dist.cumulative, int(cfg.n)
    theta, p = float(rule.theta), float(rule.p)

    def rewards_of(states):
        rewards = np.empty(states.size)
        live = np.arange(states.size)
        for t in range(n - 1):
            x = _atoms_at(values, cum, _draw(states, t))
            stop = x > theta
            tie = np.flatnonzero(x == theta)
            stop[tie] = _draw(states[tie], n + t) < p
            rewards[live[stop]] = x[stop]
            live, states = live[~stop], states[~stop]
        rewards[live] = _atoms_at(values, cum, _draw(states, n - 1))
        return rewards

    return _simulate(cfg, rewards_of)


def run_prophet(dist: DiscreteDistribution, cfg: SimConfig) -> SimResult:
    """Estimate the prophet value E max of cfg.n iid draws."""
    values, cum, n = dist.values, dist.cumulative, int(cfg.n)

    def rewards_of(states):
        best = _atoms_at(values, cum, _draw(states, 0))
        for k in range(1, n):
            np.maximum(best, _atoms_at(values, cum, _draw(states, k)), out=best)
        return best

    return _simulate(cfg, rewards_of)
