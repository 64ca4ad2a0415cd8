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
from dataclasses import asdict, dataclass, field
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
        return asdict(self)


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


def _print_or_write(out: str, payload: dict) -> int:
    text = json.dumps(payload, indent=2)
    if out:
        _write_text(Path(out), text + "\n")
    else:
        print(text)
    return 0


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
    """(item, fn(item)) for each item, in input order, on up to jobs threads;
    a SolverError raised by fn takes the place of its result."""
    def one(item):
        try:
            return item, fn(item)
        except SolverError as exc:
            return item, exc

    if jobs <= 1 or len(items) <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, items))


def _run_table(name: str, args, params: dict, solve, header: list, emit) -> int:
    """Solve each n in args.n on up to args.jobs threads and write the table;
    emit(out, manifest, n, result) writes n's own files and returns its row."""
    out = Path(args.out)
    manifest = RunManifest(name, params)
    rows, failed = [], False
    for n, res in _map_jobs(solve, args.n, args.jobs):
        if isinstance(res, SolverError):
            print(f"{name}: solver failed for n={n}: {res}", file=sys.stderr)
            failed = True
        else:
            rows.append(emit(out, manifest, n, res))
    _write_table(out / name, manifest, header, rows, args.format)
    return 3 if failed else 0


def cmd_table1(args) -> int:
    def solve(n):
        return sharp_ratio(n, args.N, args.tol), sharp_regret(n, args.N, args.tol)

    def emit(out, manifest, n, res):
        ratio, regret = res
        _write_report(out / f"report_ratio_n{n}.json", manifest, ratio)
        _write_report(out / f"report_regret_n{n}.json", manifest, regret)
        _write_text(out / f"lfd_ratio_n{n}.json", ratio.lfd.to_json() + "\n")
        _write_text(out / f"lfd_regret_n{n}.json", regret.lfd.to_json() + "\n")
        return [n, ratio.value, ratio.bracket[0], ratio.bracket[1],
                regret.value, regret.bracket[0], regret.bracket[1], ratio.gap, regret.gap]

    params = {"n": args.n, "N": args.N, "tol": args.tol, "jobs": args.jobs, "format": args.format}
    header = ["n", "R_value", "R_lo", "R_hi", "A_value", "A_lo", "A_hi", "gap_R", "gap_A"]
    return _run_table("table1", args, params, solve, header, emit)


def cmd_table2(args) -> int:
    def solve(n):
        return kappa(n, args.N, tol=args.tol, sigma=args.sigma)

    def emit(out, manifest, n, res):
        _write_text(out / f"kappa_n{n}.json",
                    json.dumps({"manifest": manifest.as_dict(), "n": n,
                                "family": "variance", "params": {"sigma": args.sigma},
                                "kappa": res.value, "certificate": res.certificate},
                               indent=2) + "\n")
        return [n, res.value, res.certificate["kappa_lower"],
                res.certificate["kappa_upper"], res.certificate["gap"]]

    params = {"n": args.n, "N": args.N, "tol": args.tol, "sigma": args.sigma,
              "jobs": args.jobs, "format": args.format}
    return _run_table("table2", args, params, solve,
                      ["n", "kappa", "kappa_lo", "kappa_hi", "gap"], emit)


def cmd_table3(args) -> int:
    def solve(n):
        return pareto_ratio(n, args.N, args.p0, args.p1, tol=args.tol)

    def emit(out, manifest, n, res):
        _write_text(out / f"pareto_n{n}.json",
                    json.dumps({"manifest": manifest.as_dict(), "n": n,
                                "family": "pareto", "params": {"p0": args.p0, "p1": args.p1},
                                "value": res.value, "certificate": res.certificate,
                                "stats": res.stats},
                               indent=2) + "\n")
        return [n, res.value, res.certificate["bracket"][0], res.certificate["bracket"][1]]

    params = {"n": args.n, "N": args.N, "p0": args.p0, "p1": args.p1, "tol": args.tol,
              "jobs": args.jobs, "format": args.format}
    return _run_table("table3", args, params, solve, ["n", "value", "rho_lo", "rho_hi"], emit)


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
    return _print_or_write(args.out, payload)


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
    return _print_or_write(args.out, payload)


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
