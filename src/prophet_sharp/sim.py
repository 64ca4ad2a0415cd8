"""Monte Carlo simulation of threshold rules and the prophet benchmark.

RNG: counter-based splitmix64 streams, one per trial, keyed by (seed, trial
index).  With mix splitmix64's finalizer and all arithmetic mod 2**64, the
state of trial t is mix(mix(seed + golden) ^ mix((t + 1) * golden)) and its
draw k is the 53-bit integer b = mix(state + (k + 1) * golden) >> 11, the
uniform b * 2**-53: a pure function of (seed, trial, k), so every run
replays by seed.  The seed-free inner mix of the first chunk's trials is
made once per process, on first use.  Observation t of a trial is its draw
t (t < n) and the tie-break coin of step t its draw n + t, whether or not
step t ties.  The loops stay on the integers (inversion by cut points,
Devroye 1986, sec. III.2): the rule compares b with two cut points and the
coin with ceil(p * 2**53) and drops the trials that stop; the prophet keeps
the largest 64-bit word, whose top 53 bits are the largest b.  No draw that
cannot change a trial's atom is made: none after a trial stops, none for a
one-atom law, none before step n - 1 for a rule that no draw stops sooner
(theta at or above the top atom, ties going on).  As draw k of trial t
depends on (seed, t, k) alone, a skipped draw moves no other.  Trials run
in chunks of _CHUNK: each chunk mixes its words in place in a few buffers
of its own size and counts its trials that end on a draw b <= c, for each
cut point c: the rule counts a trial at the step where it stops, the
prophet its largest draw.  _counts_le makes one comparison per cut point
below _SORT_CUTS of them, else sorts in place and binary-searches.  The
differences are added to one int64 count per atom.  The mean and
standard error come from the counts alone (_summary), so memory is
bounded by one chunk whatever the trial count, and the result depends
neither on the chunk size nor on the order of the trials; a point mass
returns its atom with standard error 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDistribution
from .kernel import check_integer
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
        check_integer(self.trials, "trials", 1)
        # the coin's draw positions n + t, t < n - 1, fit in 64 bits
        check_integer(self.n, "horizon", 2, 2**63)
        check_integer(self.seed, "seed", 0, 2**64 - 1)


@dataclass(frozen=True)
class SimResult:
    mean: float
    std_error: float
    trials: int
    seed: int

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "trials": self.trials, "seed": self.seed}


# -- splitmix64 ---------------------------------------------------------------

_U = np.uint64
_CHUNK = 1 << 16
_SORT_CUTS = 8  # from this many cut points up, a sort counts faster than comparisons
_M1, _M2 = _U(_MIX1), _U(_MIX2)
_S11, _S27, _S30, _S31 = _U(11), _U(27), _U(30), _U(31)


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finalizer, in place on z; tmp, if given, is uint64 scratch
    of z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _mix_int(z: int) -> int:
    """splitmix64's finalizer on one Python integer below 2**64."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


@functools.cache
def _counter_head() -> np.ndarray:
    """mix((t + 1) * golden) of trials t < _CHUNK, made on first use; read-only,
    as every caller shares it."""
    head = np.arange(1, _CHUNK + 1, dtype=np.uint64)
    head *= _U(_GOLDEN)
    _mix(head)
    head.flags.writeable = False
    return head


def _stream_states(seed: int, lo: int, hi: int, tmp: np.ndarray | None = None) -> np.ndarray:
    """States mix(key ^ mix((t + 1) * golden)) of the streams of trials
    lo, ..., hi - 1; the seed-free inner mix of a chunk that starts at 0
    is a slice of _counter_head.  tmp, if given, is uint64 scratch of
    hi - lo entries."""
    key = _U(_mix_int((seed + _GOLDEN) & _MASK))
    if lo == 0 and hi <= _counter_head().size:
        z = np.bitwise_xor(_counter_head()[:hi], key)
    else:
        z = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z *= _U(_GOLDEN)
        _mix(z, tmp)
        z ^= key
    return _mix(z, tmp)


def _words(states: np.ndarray, k: int, tmp: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Draw k of each stream as its 64-bit mixed word; the offset
    (k + 1) * golden wraps mod 2**64 as a Python int.  tmp and out, if
    given, are uint64 buffers of the states' shape: the scratch of the mix
    and the array it returns."""
    z = np.add(states, _U((int(k) + 1) * _GOLDEN & _MASK), out=out)
    return _mix(z, tmp)


def _bits(states: np.ndarray, k: int, tmp: np.ndarray | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Draw k of each stream as a 53-bit int64: the top 53 bits of its word."""
    z = _words(states, k, tmp, out)
    z >>= _S11
    return z.view(np.int64)


# -- trial loops ----------------------------------------------------------------


def _cuts(dist: DiscreteDistribution) -> np.ndarray:
    """Draw b has atom searchsorted(cuts, b): b / 2**53 <= F_k exactly when
    b <= floor(F_k * 2**53), and b past the last cut takes the last atom."""
    return np.floor(dist.cumulative[:-1] * _SCALE).astype(np.int64)


def _counts_le(b: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """#(b <= cuts[j]) for each j, of 53-bit draws b, which it may reorder:
    one comparison per cut point when they are few, else a sort in place
    and one binary search per cut point."""
    if cuts.size < _SORT_CUTS:
        return np.array([np.count_nonzero(b <= c) for c in cuts.tolist()], dtype=np.int64)
    b.sort()
    return np.searchsorted(b, cuts, side="right")


def _summary(values: np.ndarray, counts: np.ndarray, cfg: SimConfig) -> SimResult:
    """Mean and standard error of cfg.trials rewards, counts[i] of them equal
    to values[i]: each a single pairwise np.sum over the atoms hit, of the
    frequencies times the atoms and times their squared deviations."""
    trials = int(cfg.trials)
    hit = np.flatnonzero(counts)
    freq, x = counts[hit] / trials, values[hit]
    mean = float(np.sum(freq * x))
    # sample variance sum(counts (x - mean)**2) / (trials - 1), over trials
    se = float(np.sqrt(np.sum(freq * (x - mean) ** 2) / (trials - 1))) if trials > 1 else 0.0
    return SimResult(mean=mean, std_error=se, trials=cfg.trials, seed=cfg.seed)


def _simulate(cfg: SimConfig, values: np.ndarray, cuts: np.ndarray, counts_of) -> SimResult:
    """Count the trials at each atom, chunk by chunk, from counts_of(stream
    states, uint64 scratch of their shape), which gives _counts_le's counts
    of the chunk's trials over the cut points."""
    trials, seed = int(cfg.trials), int(cfg.seed)
    counts = np.zeros(values.size, dtype=np.int64)
    if cuts.size == 0:  # one atom: every trial takes it, so nothing is drawn
        counts[0] = trials
        return _summary(values, counts, cfg)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        tmp = np.empty(hi - lo, dtype=np.uint64)
        le = counts_of(_stream_states(seed, lo, hi, tmp), tmp)
        counts += np.diff(le, prepend=0, append=hi - lo)
    return _summary(values, counts, cfg)


def run_rule(dist: DiscreteDistribution, rule: ThresholdRule, cfg: SimConfig) -> SimResult:
    """Estimate the reward of tau_p(theta) over cfg.trials independent runs."""
    values, cuts, n, p = dist.values, _cuts(dist), int(cfg.n), float(rule.p)
    # b's atom is above theta when b > hi, at theta when lo < b <= hi
    edges = np.concatenate(([-1], cuts, [_SCALE]))
    lo, hi = (int(edges[np.searchsorted(values, rule.theta, side)]) for side in ("left", "right"))
    if p in (0.0, 1.0):  # every tie stops (p = 1) or none does (p = 0)
        lo = hi = lo if p else hi
    coin = int(np.ceil(p * _SCALE))  # coin b wins when b / 2**53 < p
    # if no draw b < 2**53 stops the rule before step n - 1, draw only that one
    first, steps = (0, n - 1) if hi < _SCALE - 1 or lo < hi else (n - 1, 0)
    # a trial that goes on has b <= hi and one that stops b > lo, so no stop
    # lies at or below a cut under hi, and at each cut c >= hi the stops
    # with b <= c number #(b <= c) less the m trials that go on
    j0 = int(np.searchsorted(cuts, hi))

    def counts_of(states, tmp):
        # count each trial where it stops; those that go on draw into w
        le = np.zeros(cuts.size, dtype=np.int64)
        b = _bits(states, first, tmp)
        w = np.empty_like(states)
        for t in range(steps):
            go = b <= hi
            tie = np.flatnonzero(go & (b > lo)) if lo < hi else None
            le[j0:] += _counts_le(b, cuts[j0:])  # now: the coins may overwrite b (in w)
            if tie is not None:
                j = tie.size
                go[tie] = _bits(states[tie], n + t, tmp[:j], w[:j]) >= coin
            keep = np.flatnonzero(go)
            m = keep.size
            le[j0:] -= m
            if m == 0:
                return le
            states = states[keep]
            b = _bits(states, t + 1, tmp[:m], w[:m])
        return le + _counts_le(b, cuts)

    return _simulate(cfg, values, cuts, counts_of)


def run_prophet(dist: DiscreteDistribution, cfg: SimConfig) -> SimResult:
    """Estimate the prophet value E max of cfg.n iid draws."""
    values, cuts, n = dist.values, _cuts(dist), int(cfg.n)

    def counts_of(states, tmp):
        # the largest word has the largest top 53 bits
        best = _words(states, 0, tmp)
        w = np.empty_like(states)
        for k in range(1, n):
            np.maximum(best, _words(states, k, tmp, w), out=best)
        best >>= _S11
        return _counts_le(best.view(np.int64), cuts)

    return _simulate(cfg, values, cuts, counts_of)
