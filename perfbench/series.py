"""Make a series of benchmark runs and compare two series.

    python3 perfbench/series.py collect --workload validate --seeds 1-10 \
        --out perfbench/out/a.jsonl
    python3 perfbench/series.py compare perfbench/out/a.jsonl [perfbench/out/b.jsonl]

`collect` runs run.py once per seed, untraced and for BENCHMARK.json's
run_seconds, and appends its result line, tagged with the workload and seed,
to --out.  `compare` prints, per workload and end-to-end metric, the median,
the quartiles and the quartile spread as a share of the median, against the
bound in BENCHMARK.json.  Given a second series it also prints the shift of
the median (positive = worse) and the failed share of each series.  It exits
1 if a spread or a shift exceeds its bound, a run is not correct, or the
failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{args.workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.splitlines()[-1])
        line.update(workload=args.workload, seed=seed)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        print(json.dumps(line), flush=True)
    return 0


def _load(path) -> dict:
    runs = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        if ln.strip():
            rec = json.loads(ln)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    series = [_load(p) for p in args.series]
    ok = True
    for wl in series[0]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for runs in series:
                vals = [r["metrics"][name]["value"] for r in runs.get(wl, [])]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = "" if spread <= bound else "  SPREAD > BOUND"
                ok &= not flag
                print(f"{wl:12s} {name:12s} n={len(vals):2d} median={med:.4f} "
                      f"q1={q1:.4f} q3={q3:.4f} spread={spread:.3f} bound={bound}"
                      f" (third {bound / 3:.3f}){flag}")
            if len(meds) == 2:
                shift = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
                flag = "" if shift <= bound else "  SHIFT > BOUND"
                ok &= not flag
                print(f"{wl:12s} {name:12s} shift of median {shift:+.3f}{flag}")
        shares = []
        for runs in series:
            att = sum(r["attempted"] for r in runs.get(wl, []))
            shares.append((sum(r["failed"] for r in runs.get(wl, [])), att))
            ok &= all(r["correct"] for r in runs.get(wl, []))
        print(f"{wl:12s} failed/attempted per series: {shares}")
        if len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            ok = False
            print(f"{wl:12s} failed shares differ")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=collect)
    p = sub.add_parser("compare")
    p.add_argument("series", nargs="+")
    p.set_defaults(fn=compare)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
