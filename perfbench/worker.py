"""One worker process of a run: set-up, timed rounds, outputs for the checks.

Started by run.py, never by hand.  It imports prophet_sharp from the src/
directory of the checkout it lives in, builds the workload's inputs and
reports the moment it was ready (time.perf_counter, which every process on
the machine shares).  Then it runs whole rounds of the workload, starting
another only while the time spent plus half the last round's time stays
within --seconds, and writes result.json to --out.  Before every round and
after the last it runs the reference task of reference.py, which measures
the machine's speed next to each round.

With --trace 1 it runs three rounds whatever --seconds says: one with spans
and tracemalloc for the allocation peaks, which also warms the process up;
one with spans for the layer times and counts; and one untraced, whose time
the traced round's is compared with.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import prophet_sharp as ps
    import prophet_sharp.cli  # noqa: F401  (set-up covers the CLI import too)

    if not Path(ps.__file__).resolve().is_relative_to(src):
        raise ImportError(f"prophet_sharp imported from {ps.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))
    import reference
    import workloads

    out = Path(args.out)
    inputs = workloads.build_inputs(ps, args.workload, args.seed, str(out / "table1"))
    ready = time.perf_counter()

    times, refs, attempted, failed = [], [], 0, 0
    reference.run()  # warm-up: first calls into HiGHS and L-BFGS-B
    refs.append(reference.run())

    def one_round():
        nonlocal attempted, failed
        t0 = time.perf_counter()
        outputs, rnd = workloads.run_round(ps, args.workload, inputs)
        times.append(time.perf_counter() - t0)
        refs.append(reference.run())
        attempted += rnd.attempted
        failed += rnd.failed
        return outputs

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.alloc_round = True
        one_round()
        tracer.round, tracer.alloc_round = 1, False
        one_round()
        tracer.uninstall()
        outputs = one_round()
    else:
        start = time.perf_counter()
        outputs = one_round()
        while time.perf_counter() - start + times[-1] / 2 <= args.seconds:
            outputs = one_round()

    result = {"ready": ready, "round_s": times, "reference_s": refs,
              "attempted": attempted, "failed": failed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "outputs": outputs}
    if tracer is not None:
        layers = tracer.layer_metrics(1, alloc_rnd=0)
        layers["trace.wall_s"] = times[1]
        at_ref = reference.scaled(times, refs)
        layers["trace.overhead_s"] = at_ref[1] - at_ref[2]
        layers["trace.reference_s"] = statistics.median(refs)
        result["layers"] = layers
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
