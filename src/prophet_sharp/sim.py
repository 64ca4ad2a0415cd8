"""Monte Carlo simulation of threshold rules and the prophet benchmark.

RNG: counter-based splitmix64 streams, one per trial, keyed by (seed, trial
index).  With mix splitmix64's finalizer and all arithmetic mod 2**64, the
state of trial t is mix(mix(seed + golden) ^ mix((t + 1) * golden)) and its
draw k the 64-bit word w = mix(state + (k + 1) * golden), with uniform
b * 2**-53, b = w >> 11: a pure function of (seed, trial, k), so every run
replays by seed.  Observation t of a trial is its draw t (t < n) and the
tie-break coin of step t its draw n + t, whether or not step t ties.  The
loops compare raw words (inversion by cut points, Devroye 1986, sec.
III.2): b <= c exactly when w <= c * 2**11 + 2047, so the CDF's cut points
are words (_cuts), the rule compares each word with two of them and the
coin with ceil(p * 2**53) * 2**11, and the prophet keeps the largest word.
No draw that cannot change a trial's atom is made: none after a trial
stops, none for a one-atom law, none before step n - 1 for a rule that no
draw stops sooner (theta at or above the top atom, ties going on); as draw
k of trial t depends on (seed, t, k) alone, a skipped draw moves no other.
Trials run in chunks of _CHUNK, each mixing its words in place in a few
buffers of its own size and counting, per cut point c, its trials that end
on a word <= c (_counts_le): the rule counts a trial at the step where it
stops, the prophet its largest word.  These counts, summed over the chunks
and differenced once into one count per atom, alone give the mean and
standard error (_summary): memory is bounded by one chunk, the result
depends neither on the chunk size nor on the order of the trials, and a
point mass returns its atom with standard error 0.
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
_SCALE = 2**53  # the uniform of a word is its top 53 bits over _SCALE


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


# -- trial loops ----------------------------------------------------------------


def _cuts(dist: DiscreteDistribution) -> np.ndarray:
    """Word w has atom searchsorted(cuts, w): b = w >> 11 has b / 2**53 <= F_k
    exactly when b <= c = floor(F_k * 2**53), or w <= c * 2**11 + 2047, which
    is 2**64 - 1 from c = 2**53 - 1 up; w past the last cut takes the last atom."""
    c = np.minimum(np.floor(dist.cumulative[:-1] * _SCALE), _SCALE - 1).astype(np.uint64)
    return c << _S11 | _U(2047)


def _counts_le(w: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """#(w <= cuts[j]) for each j, of words w, which it may reorder: one
    comparison per cut point when they are few, else a sort in place and
    one binary search per cut point."""
    if cuts.size < _SORT_CUTS:
        return np.array([np.count_nonzero(w <= c) for c in cuts], dtype=np.int64)
    w.sort()
    return np.searchsorted(w, cuts, side="right")


def _summary(values: np.ndarray, counts: np.ndarray, cfg: SimConfig) -> SimResult:
    """Mean and standard error of cfg.trials rewards, counts[i] of them equal
    to values[i]: each a single pairwise sum over the atoms hit, of the
    frequencies times the atoms and times their squared deviations."""
    trials = int(cfg.trials)
    hit = np.flatnonzero(counts)
    freq, x = counts[hit] / trials, values[hit]
    mean = float((freq * x).sum())
    # sample variance sum(counts (x - mean)**2) / (trials - 1), over trials
    se = float(np.sqrt((freq * (x - mean) ** 2).sum() / (trials - 1))) if trials > 1 else 0.0
    return SimResult(mean=mean, std_error=se, trials=cfg.trials, seed=cfg.seed)


def _simulate(cfg: SimConfig, values: np.ndarray, cuts: np.ndarray, counts_of) -> SimResult:
    """Trials per atom from the sum over chunks of counts_of(stream states,
    uint64 scratch of their shape), _counts_le's counts of a chunk's trials."""
    trials, seed = int(cfg.trials), int(cfg.seed)
    le = np.zeros(cuts.size, dtype=np.int64)
    for lo in range(0, trials, _CHUNK) if cuts.size else ():  # one atom: nothing is drawn
        hi = min(lo + _CHUNK, trials)
        tmp = np.empty(hi - lo, dtype=np.uint64)
        le += counts_of(_stream_states(seed, lo, hi, tmp), tmp)
    return _summary(values, np.diff(np.concatenate(([0], le, [trials]))), cfg)


def run_rule(dist: DiscreteDistribution, rule: ThresholdRule, cfg: SimConfig) -> SimResult:
    """Estimate the reward of tau_p(theta) over cfg.trials independent runs."""
    values, cuts, n, p = dist.values, _cuts(dist), int(cfg.n), float(rule.p)
    # a word's atom is above theta when it is > hi, at theta when lo < it <= hi
    edges = [-1, *cuts.tolist(), _MASK]
    lo, hi = (edges[np.searchsorted(values, rule.theta, side)] for side in ("left", "right"))
    if p in (0.0, 1.0):  # every tie stops (p = 1) or none does (p = 0)
        lo = hi = lo if p else hi
    coin = int(np.ceil(p * _SCALE)) << 11  # a coin word wins when below it: b / 2**53 < p
    # theta below every atom: all stop at step 0; none can stop early: draw step n - 1 only
    first, steps = (0, 0) if hi < 0 else (0, n - 1) if hi < _MASK or lo < hi else (n - 1, 0)
    # a trial that goes on has a word <= hi and one that stops a word > lo,
    # so no stop lies at or below a cut under hi, and at each cut c >= hi
    # the stops with words <= c number #(words <= c) less the m that go on
    j0 = int(np.searchsorted(cuts, max(hi, 0)))

    def counts_of(states, tmp):
        # count each trial where it stops; those that go on draw into buf
        le = np.zeros(cuts.size, dtype=np.int64)
        w = _words(states, first, tmp)
        buf = np.empty_like(states)
        for t in range(steps):
            go = w <= hi
            tie = None if lo >= hi else np.flatnonzero(go & (w > lo) if lo >= 0 else go)
            le[j0:] += _counts_le(w, cuts[j0:])  # now: the coins may overwrite w (in buf)
            if tie is not None:
                j = tie.size
                go[tie] = _words(states[tie], n + t, tmp[:j], buf[:j]) >= coin
            keep = np.flatnonzero(go)
            m = keep.size
            le[j0:] -= m
            if m == 0:
                return le
            states = states[keep]
            w = _words(states, t + 1, tmp[:m], buf[:m])
        return le + _counts_le(w, cuts)

    return _simulate(cfg, values, cuts, counts_of)


def run_prophet(dist: DiscreteDistribution, cfg: SimConfig) -> SimResult:
    """Estimate the prophet value E max of cfg.n iid draws."""
    values, cuts, n = dist.values, _cuts(dist), int(cfg.n)

    def counts_of(states, tmp):
        # the largest word has the largest atom
        best = _words(states, 0, tmp)
        w = np.empty_like(states)
        for k in range(1, n):
            np.maximum(best, _words(states, k, tmp, w), out=best)
        return _counts_le(best, cuts)

    return _simulate(cfg, values, cuts, counts_of)
