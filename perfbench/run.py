"""Benchmark of prophet-sharp: one workload per invocation.

    python3 perfbench/run.py --workload table1|constrained|validate \
        --seed N --seconds S --trace 0|1

Runs the workload in WORKERS fresh worker processes, one after the other,
each for an equal share of --seconds; checks every worker's outputs against
the benchmark's own computations, and prints one JSON line: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones: wall_s, the median round time at the reference speed of
reference.py; setup_s, the median of the workers' set-up times; and
peak_rss_mb.  With --trace 1 one worker prints the per-layer ones.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("table1", "constrained", "validate")
#: worker processes per run.  A deterministic call's speed differs from one
#: process to the next, so rounds from several processes give a steadier
#: median than one process; each worker's set-up is also a set-up sample
WORKERS = 5
#: a run must end within 180 s; the workers get what remains of this
DEADLINE_S = 170.0
#: one BLAS thread: an idle second thread spins and takes the other core
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args: argparse.Namespace, seconds: float, outdir: Path, timeout: float) -> dict:
    """Run one worker; return its result.json with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", str(outdir)]
    outdir.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ENV}, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    result = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - t0
    return result


def _check(workload: str, seed: int, outdir: Path, outputs: dict) -> list:
    import checks

    if workload == "table1":
        return checks.check_table1(outdir / "table1", outputs)
    if workload == "constrained":
        return checks.check_constrained(outputs)
    return checks.check_validate(seed, outputs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "prophet_sharp" / "__init__.py").is_file():
        print(f"error: no prophet_sharp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    begin = time.perf_counter()

    rundir = HERE / "out" / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    results, failures = [], []
    try:
        for i in range(1 if args.trace else WORKERS):
            outdir = rundir / f"worker-{i}"
            res = _worker(args, args.seconds / WORKERS, outdir,
                          DEADLINE_S - (time.perf_counter() - begin))
            failures += _check(args.workload, args.seed, outdir, res["outputs"])
            results.append(res)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        from spans import UNITS

        layers = results[0]["layers"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in UNITS.items()}
    else:
        import reference

        rounds = [t for r in results for t in reference.scaled(r["round_s"], r["reference_s"])]
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
        }
    print(json.dumps({"correct": not failures,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
