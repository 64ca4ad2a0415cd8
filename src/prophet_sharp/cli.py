"""Command-line front end: table reproduction at configurable scale, single-rule
evaluation, and simulation.

Exit codes: 0 success, 2 invalid arguments, 3 solver failure, 4 I/O error.
Every output file embeds a run manifest (command, parameters, version,
timestamp, seeds); numeric columns are reproducible given the same inputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .constrained import kappa, pareto_ratio
from .dist import DiscreteDistribution
from .game import SharpConstantReport, SolverError, sharp_ratio, sharp_regret
from .reward import ThresholdRule, ratio_floor, evaluate_rule, reward_v1, reward_v2
from .sim import SimConfig, run_rule

_FMT = ".17g"


@dataclass
class RunManifest:
    command: str
    parameters: dict
    version: str = __version__
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    seeds: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "version": self.version,
            "timestamp": self.timestamp,
            "seeds": self.seeds,
        }


def _fmt(x: float) -> str:
    return format(float(x), _FMT)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_table(path: Path, manifest: RunManifest, header: list, rows: list, fmt: str):
    if fmt == "json":
        payload = {"manifest": manifest.as_dict(),
                   "rows": [dict(zip(header, row)) for row in rows]}
        _write_text(path.with_suffix(".json"), json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["# manifest: " + json.dumps(manifest.as_dict()), ",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        _write_text(path.with_suffix(".csv"), "\n".join(lines) + "\n")


def _write_report(path: Path, manifest: RunManifest, report: SharpConstantReport):
    payload = {"manifest": manifest.as_dict(), "report": report.as_dict()}
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _parse_n_list(text: str) -> list:
    if not text.strip():
        return []
    try:
        values = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from exc
    if any(v < 2 for v in values):
        raise argparse.ArgumentTypeError("every n must be >= 2")
    return values


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer (--jobs or PROPHET_SHARP_JOBS), got {text!r}")
    return jobs


def _map_jobs(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))  # preserves input order


def cmd_table1(args) -> int:
    out = Path(args.out)
    manifest = RunManifest("table1", {"n": args.n, "N": args.N, "tol": args.tol,
                                      "jobs": args.jobs, "format": args.format})
    failures = []

    def one(n):
        try:
            ratio = sharp_ratio(n, args.N, args.tol)
            regret = sharp_regret(n, args.N, args.tol)
            return n, ratio, regret
        except SolverError as exc:
            return n, None, exc

    header = ["n", "R_value", "R_lo", "R_hi", "A_value", "A_lo", "A_hi", "gap_R", "gap_A"]
    rows = []
    for n, ratio, regret in _map_jobs(one, args.n, args.jobs):
        if ratio is None:
            print(f"table1: solver failed for n={n}: {regret}", file=sys.stderr)
            failures.append(n)
            continue
        rows.append([n, ratio.value, ratio.bracket[0], ratio.bracket[1],
                     regret.value, regret.bracket[0], regret.bracket[1],
                     ratio.gap, regret.gap])
        _write_report(out / f"report_ratio_n{n}.json", manifest, ratio)
        _write_report(out / f"report_regret_n{n}.json", manifest, regret)
        _write_text(out / f"lfd_ratio_n{n}.json", ratio.lfd.to_json() + "\n")
        _write_text(out / f"lfd_regret_n{n}.json", regret.lfd.to_json() + "\n")
    _write_table(out / "table1", manifest, header, rows, args.format)
    return 3 if failures else 0


def cmd_table2(args) -> int:
    out = Path(args.out)
    manifest = RunManifest("table2", {"n": args.n, "N": args.N, "tol": args.tol,
                                      "sigma": args.sigma, "format": args.format})
    failures = []
    rows = []
    for n in args.n:
        try:
            res = kappa(n, args.N, tol=args.tol, sigma=args.sigma)
        except SolverError as exc:
            print(f"table2: solver failed for n={n}: {exc}", file=sys.stderr)
            failures.append(n)
            continue
        rows.append([n, res.value, res.certificate["kappa_lower"],
                     res.certificate["kappa_upper"], res.certificate["gap"]])
        _write_text(out / f"kappa_n{n}.json",
                    json.dumps({"manifest": manifest.as_dict(), "n": n,
                                "family": "variance", "params": {"sigma": args.sigma},
                                "kappa": res.value, "certificate": res.certificate},
                               indent=2) + "\n")
    _write_table(out / "table2", manifest, ["n", "kappa", "kappa_lo", "kappa_hi", "gap"],
                 rows, args.format)
    return 3 if failures else 0


def cmd_table3(args) -> int:
    out = Path(args.out)
    manifest = RunManifest("table3", {"n": args.n, "N": args.N, "p0": args.p0,
                                      "p1": args.p1, "tol": args.tol, "format": args.format})
    failures = []
    rows = []
    for n in args.n:
        try:
            res = pareto_ratio(n, args.N, args.p0, args.p1, tol=args.tol)
        except SolverError as exc:
            print(f"table3: solver failed for n={n}: {exc}", file=sys.stderr)
            failures.append(n)
            continue
        rows.append([n, res.value, res.certificate["bracket"][0],
                     res.certificate["bracket"][1]])
        _write_text(out / f"pareto_n{n}.json",
                    json.dumps({"manifest": manifest.as_dict(), "n": n,
                                "family": "pareto",
                                "params": {"p0": args.p0, "p1": args.p1},
                                "value": res.value, "certificate": res.certificate},
                               indent=2) + "\n")
    _write_table(out / "table3", manifest, ["n", "value", "rho_lo", "rho_hi"],
                 rows, args.format)
    return 3 if failures else 0


def cmd_eval(args) -> int:
    dist = DiscreteDistribution.from_file(args.dist)
    rule = ThresholdRule(args.theta, args.p)
    ev = evaluate_rule(dist, args.n, rule)
    payload = {
        "manifest": RunManifest("eval", {"dist": args.dist, "n": args.n,
                                         "theta": args.theta, "p": args.p}).as_dict(),
        "reward_v1": reward_v1(dist, args.n, rule),
        "reward_v2": reward_v2(dist, args.n, rule),
        "value": ev.value,
        "ratio": ev.ratio,
        "regret": ev.regret,
        "ratio_floor": ratio_floor(args.n),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    dist = DiscreteDistribution.from_file(args.dist)
    cfg = SimConfig(trials=args.trials, seed=args.seed, n=args.n)
    result = run_rule(dist, ThresholdRule(args.theta, args.p), cfg)
    payload = {
        "manifest": RunManifest("simulate", {"dist": args.dist, "n": args.n,
                                             "theta": args.theta, "p": args.p,
                                             "trials": args.trials},
                                seeds=[args.seed]).as_dict(),
        "mean": result.mean,
        "std_error": result.std_error,
        "trials": result.trials,
        "seed": result.seed,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prophet-sharp",
        description="Sharp prophet-inequality constants for single-threshold rules",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=1e-7):
        p.add_argument("--N", type=int, default=1000, help="grid size (default 1000)")
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # a string default goes through type= at parse time, so a bad
        # PROPHET_SHARP_JOBS is a usage error (exit 2), not a traceback
        p.add_argument("--jobs", type=_jobs,
                       default=os.environ.get("PROPHET_SHARP_JOBS", "").strip() or "1")

    p1 = sub.add_parser("table1", help="sharp ratio and regret constants per n")
    p1.add_argument("--n", type=_parse_n_list, default=[10, 25, 50, 100])
    common(p1)
    p1.set_defaults(fn=cmd_table1)

    p2 = sub.add_parser("table2", help="bounded-variance constants kappa_n")
    p2.add_argument("--n", type=_parse_n_list, default=[10, 25, 50, 100])
    p2.add_argument("--sigma", type=float, default=1.0)
    common(p2, tol=inspect.signature(kappa).parameters["tol"].default)
    p2.set_defaults(fn=cmd_table2)

    p3 = sub.add_parser("table3", help="Pareto-band ratio constants")
    p3.add_argument("--n", type=_parse_n_list, default=[10, 25, 50, 100])
    p3.add_argument("--p0", type=float, default=20.0)
    p3.add_argument("--p1", type=float, default=5.0)
    common(p3)
    p3.set_defaults(fn=cmd_table3)

    pe = sub.add_parser("eval", help="closed-form evaluation of one rule")
    pe.add_argument("--dist", required=True, help="distribution file (.json or .csv)")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--theta", type=float, required=True)
    pe.add_argument("--p", type=float, default=0.0)
    pe.add_argument("--out", default="")
    pe.set_defaults(fn=cmd_eval)

    ps = sub.add_parser("simulate", help="Monte Carlo estimate of one rule")
    ps.add_argument("--dist", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--theta", type=float, required=True)
    ps.add_argument("--p", type=float, default=0.0)
    ps.add_argument("--trials", type=int, default=100000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default="")
    ps.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
