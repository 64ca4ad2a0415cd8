"""Monte Carlo simulation of threshold rules and the prophet benchmark.

RNG: counter-based splitmix64 streams, one per trial, keyed by (seed, trial
index): draw k of a stream, a 53-bit integer b (the uniform b * 2**-53), is
a pure function of (seed, trial, k), so every run replays by seed.
Observation t of a trial is its draw t (t < n) and the tie-break coin of
step t its draw n + t, whether or not step t ties.  The loops stay on the
integers (inversion by cut points, Devroye 1986, sec. III.2): the rule
compares b with two cut points and the coin with ceil(p * 2**53), keeps the
stopping b of each trial and drops the stopped ones; the prophet keeps the
largest b; one lookup per trial then gives the atom.  Trials run in chunks
of _CHUNK into one float64 reward array, about 16 bytes per trial at the
peak including the summary; the result does not depend on the chunk size.
TrialStream is the sequential view of one stream, by the same generator.
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
_SCALE = 2**53  # draw b is the uniform b / _SCALE


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    n: int

    def __post_init__(self):
        if any(isinstance(x, bool) for x in (self.trials, self.seed, self.n)):
            raise ValueError("trials, seed and n must be integers, not booleans")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.n, (int, np.integer)) or not 2 <= self.n <= 2**63:
            # the coin's draw positions n + t, t < n - 1, fit in 64 bits
            raise ValueError(f"horizon must be an integer in [2, 2**63], got {self.n!r}")
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
_BLOCK = 256


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U(30))) * _U(_MIX1)
    z = (z ^ (z >> _U(27))) * _U(_MIX2)
    return z ^ (z >> _U(31))


def _stream_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """States of the streams of trials lo, ..., hi - 1."""
    key = _mix(np.full(1, (seed + _GOLDEN) & _MASK, dtype=np.uint64))
    return _mix(key ^ _mix(np.arange(lo + 1, hi + 1, dtype=np.uint64) * _U(_GOLDEN)))


def _bits(states: np.ndarray, k) -> np.ndarray:
    """Draw k (a position or a range of them) of each stream as a 53-bit
    int64; the offsets (k + 1) * golden wrap mod 2**64 as Python ints."""
    offsets = np.array([(int(j) + 1) * _GOLDEN & _MASK for j in np.atleast_1d(k)], dtype=np.uint64)
    return (_mix(states + offsets) >> _U(11)).view(np.int64)


class TrialStream:
    """Sequential view of one trial's uniform stream; replayable by seed.
    Draws are made _BLOCK positions at a time and handed out one by one."""

    def __init__(self, seed: int, trial: int = 0):
        self._state = _stream_states(int(seed), int(trial), int(trial) + 1)
        self._count = 0
        self._block: list[float] = []

    def uniform(self) -> float:
        k = self._count % _BLOCK
        if k == 0:
            positions = range(self._count, self._count + _BLOCK)
            self._block = (_bits(self._state, positions) / _SCALE).tolist()
        self._count += 1
        return self._block[k]


def sample(dist: DiscreteDistribution, stream: TrialStream) -> float:
    """Inverse-CDF draw: always an atom of dist."""
    return dist.quantile(stream.uniform())


# -- trial loops ----------------------------------------------------------------


def _cuts(dist: DiscreteDistribution) -> np.ndarray:
    """Draw b has atom searchsorted(cuts, b): b / 2**53 <= F_k exactly when
    b <= floor(F_k * 2**53), and b past the last cut takes the last atom."""
    return np.floor(dist.cumulative[:-1] * _SCALE).astype(np.int64)


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
    values, cuts, n, p = dist.values, _cuts(dist), int(cfg.n), float(rule.p)
    # b's atom is above theta when b > hi, at theta when lo < b <= hi
    edges = np.concatenate(([-1], cuts, [_SCALE]))
    lo, hi = (int(edges[np.searchsorted(values, rule.theta, side)]) for side in ("left", "right"))
    if p in (0.0, 1.0):  # every tie stops (p = 1) or none does (p = 0)
        lo = hi = lo if p else hi
    coin = int(np.ceil(p * _SCALE))  # coin b wins when b / 2**53 < p

    def rewards_of(states):
        stops = np.empty(states.size, dtype=np.int64)
        live = np.arange(states.size)
        for t in range(n - 1):
            b = _bits(states, t)
            stop = b > hi
            if lo < hi:
                tie = np.flatnonzero((b > lo) & ~stop)
                stop[tie] = _bits(states[tie], n + t) < coin
            done, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
            stops[live[done]] = b[done]
            live, states = live[keep], states[keep]
            if live.size == 0:
                break
        stops[live] = _bits(states, n - 1)
        return values[np.searchsorted(cuts, stops)]

    return _simulate(cfg, rewards_of)


def run_prophet(dist: DiscreteDistribution, cfg: SimConfig) -> SimResult:
    """Estimate the prophet value E max of cfg.n iid draws."""
    values, cuts, n = dist.values, _cuts(dist), int(cfg.n)

    def rewards_of(states):
        best = _bits(states, 0)
        for k in range(1, n):
            np.maximum(best, _bits(states, k), out=best)
        return values[np.searchsorted(cuts, best)]

    return _simulate(cfg, rewards_of)
