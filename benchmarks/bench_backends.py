#!/usr/bin/env python3
"""Benchmark the numba and numpy backends on the Monte Carlo trial loops.

Usage:
  python benchmarks/bench_backends.py            # default sizes
  python benchmarks/bench_backends.py --quick
"""

import os
import sys
import time

import numpy as np


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    quick = "--quick" in sys.argv
    trials = 10**5 if quick else 10**6

    from prophet_sharp import DiscreteDistribution, SimConfig, ThresholdRule
    from prophet_sharp._backend import HAS_NUMBA
    from prophet_sharp.sim import run_prophet, run_rule

    if not HAS_NUMBA:
        print("numba not installed; benchmarking the numpy path only")
    backends = ["numba", "numpy"] if HAS_NUMBA else ["numpy"]

    F = DiscreteDistribution.from_atoms([(0.0, 0.3), (0.4, 0.45), (2.5, 0.25)])
    rule = ThresholdRule(0.4, 0.35)
    cfg = SimConfig(trials=trials, seed=20240101, n=10)

    results = {}
    for backend in backends:
        os.environ["PROPHET_SHARP_BACKEND"] = backend
        # warm-up compiles the numba kernels before timing
        run_rule(F, rule, SimConfig(trials=1000, seed=1, n=10))

        t_rule, r_rule = timed(lambda: run_rule(F, rule, cfg))
        t_pro, r_pro = timed(lambda: run_prophet(F, cfg))
        results[backend] = (t_rule, t_pro, r_rule, r_pro)
        print(f"[{backend:>5}] rule sim {trials:.0e} trials: {t_rule*1e3:8.1f} ms   "
              f"prophet sim: {t_pro*1e3:8.1f} ms")

    if len(backends) == 2:
        tr_nb, tp_nb, rr_nb, rp_nb = results["numba"]
        tr_np, tp_np, rr_np, rp_np = results["numpy"]
        print(f"\nspeedup numba vs numpy: rule sim x{tr_np / tr_nb:.2f}, "
              f"prophet sim x{tp_np / tp_nb:.2f}")
        same = (rr_nb == rr_np) and (rp_nb == rp_np)
        print(f"simulation results bit-identical across backends: {same}")
    os.environ.pop("PROPHET_SHARP_BACKEND", None)


if __name__ == "__main__":
    main()
