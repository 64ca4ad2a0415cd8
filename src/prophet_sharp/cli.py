"""Command-line front end: table reproduction at configurable scale, single-rule
evaluation, and simulation.

Exit codes: 0 success, 2 invalid arguments, 3 solver failure, 4 I/O error.
main builds a fresh argparse parser on each call, declaring the options of
the command it names alone, and so reads PROPHET_SHARP_JOBS, the tables'
--jobs default, on each call.
Tables and result files hold a run manifest (command, every parsed option but
--out, version, timestamp, seeds, environment), then the result's as_dict();
lfd_*.json files are bare distributions.  Numeric columns are reproducible.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .constrained import kappa, pareto_ratio
from .dist import DiscreteDistribution
from .game import SolverError, sharp_ratio, sharp_regret
from .reward import ThresholdRule, ratio_floor, evaluate_rule, reward_v1, reward_v2
from .sim import SimConfig, run_rule


def _manifest(args) -> dict:
    """How a run was made: the parsed options except --out, and the
    environment, read from the modules the solvers have loaded."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out")}
    return {
        "command": args.command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seeds": [args.seed] if "seed" in params else [],
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "cpu_count": os.cpu_count(),
        },
    }


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(out, manifest: dict, **fields) -> None:
    """{manifest, **fields} as indented JSON, to the file out or, when out
    is empty, to stdout."""
    text = json.dumps({"manifest": manifest, **fields}, indent=2)
    if out:
        _write_text(Path(out), text + "\n")
    else:
        print(text)


def _write_table(path: Path, manifest: dict, header: list, rows: list, fmt: str):
    if fmt == "json":
        _write_json(path.with_suffix(".json"), manifest,
                    rows=[dict(zip(header, row)) for row in rows])
    else:
        lines = ["# manifest: " + json.dumps(manifest), ",".join(header)]
        for row in rows:
            lines.append(",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                                  for v in row))
        _write_text(path.with_suffix(".csv"), "\n".join(lines) + "\n")


def _parse_n_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("no n given")
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


def _run_table(args, solve, header: list, emit) -> int:
    """Solve each n in args.n on up to args.jobs threads and write the table;
    emit(out, manifest, n, result) writes n's own files and returns its row."""
    out, manifest = Path(args.out), _manifest(args)
    rows, failed = [], False
    for n, res in _map_jobs(solve, args.n, args.jobs):
        if isinstance(res, SolverError):
            print(f"{args.command}: solver failed for n={n}: {res}", file=sys.stderr)
            failed = True
        else:
            rows.append(emit(out, manifest, n, res))
    _write_table(out / args.command, manifest, header, rows, args.format)
    return 3 if failed else 0


def cmd_table1(args) -> int:
    def solve(n):
        return sharp_ratio(n, args.N, args.tol), sharp_regret(n, args.N, args.tol)

    def emit(out, manifest, n, res):
        for kind, report in zip(("ratio", "regret"), res):
            _write_json(out / f"report_{kind}_n{n}.json", manifest, report=report.as_dict())
            _write_text(out / f"lfd_{kind}_n{n}.json", report.lfd.to_json() + "\n")
        ratio, regret = res
        return [n, ratio.value, ratio.bracket[0], ratio.bracket[1],
                regret.value, regret.bracket[0], regret.bracket[1], ratio.gap, regret.gap]

    header = ["n", "R_value", "R_lo", "R_hi", "A_value", "A_lo", "A_hi", "gap_R", "gap_A"]
    return _run_table(args, solve, header, emit)


def cmd_table2(args) -> int:
    def solve(n):
        return kappa(n, args.N, tol=args.tol, sigma=args.sigma)

    def emit(out, manifest, n, res):
        _write_json(out / f"kappa_n{n}.json", manifest, n=n, family="variance",
                    params={"sigma": args.sigma}, **res.as_dict())
        cert = res.certificate
        return [n, res.value, cert["kappa_lower"], cert["kappa_upper"], cert["gap"]]

    return _run_table(args, solve, ["n", "kappa", "kappa_lo", "kappa_hi", "gap"], emit)


def cmd_table3(args) -> int:
    def solve(n):
        return pareto_ratio(n, args.N, args.p0, args.p1, tol=args.tol)

    def emit(out, manifest, n, res):
        _write_json(out / f"pareto_n{n}.json", manifest, n=n, family="pareto",
                    params={"p0": args.p0, "p1": args.p1}, **res.as_dict())
        return [n, res.value, res.certificate["bracket"][0], res.certificate["bracket"][1]]

    return _run_table(args, solve, ["n", "value", "rho_lo", "rho_hi"], emit)


def cmd_eval(args) -> int:
    dist = DiscreteDistribution.from_file(args.dist)
    rule = ThresholdRule(args.theta, args.p)
    _write_json(args.out, _manifest(args), reward_v1=reward_v1(dist, args.n, rule),
                reward_v2=reward_v2(dist, args.n, rule),
                **evaluate_rule(dist, args.n, rule).as_dict(), ratio_floor=ratio_floor(args.n))
    return 0


def cmd_simulate(args) -> int:
    dist = DiscreteDistribution.from_file(args.dist)
    cfg = SimConfig(trials=args.trials, seed=args.seed, n=args.n)
    result = run_rule(dist, ThresholdRule(args.theta, args.p), cfg)
    _write_json(args.out, _manifest(args), **result.as_dict())
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A fresh argparse tree, whose tables read their --jobs default from
    PROPHET_SHARP_JOBS now.  Every command is listed; given one's name, only
    that command's options are declared, which is all that a parse of its
    arguments reads, so usage lines and errors are the full tree's."""
    parser = argparse.ArgumentParser(
        prog="prophet-sharp",
        description="Sharp prophet-inequality constants for single-threshold rules",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command_parser(name, fn, help):
        # another command than the one named is listed, without options
        declared = command in (None, name)
        p = sub.add_parser(name, help=help, add_help=declared)
        p.set_defaults(fn=fn)
        return p if declared else None

    def table(name, fn, help, tol=1e-7, **floats):
        if (p := command_parser(name, fn, help)) is None:
            return
        p.add_argument("--n", type=_parse_n_list, default=[10, 25, 50, 100])
        for option, default in floats.items():
            p.add_argument(f"--{option}", type=float, default=default)
        p.add_argument("--N", type=int, default=1000, help="grid size (default 1000)")
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # a string default goes through type= at parse time, so a bad
        # PROPHET_SHARP_JOBS is a usage error (exit 2), not a traceback
        p.add_argument("--jobs", type=_jobs,
                       default=os.environ.get("PROPHET_SHARP_JOBS", "").strip() or "1")

    def rule(name, fn, help, **ints):
        if (p := command_parser(name, fn, help)) is None:
            return
        p.add_argument("--dist", required=True, help="distribution file (.json or .csv)")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--p", type=float, default=0.0)
        for option, default in ints.items():
            p.add_argument(f"--{option}", type=int, default=default)
        p.add_argument("--out", default="")

    table("table1", cmd_table1, "sharp ratio and regret constants per n")
    table("table2", cmd_table2, "bounded-variance constants kappa_n",
          tol=inspect.signature(kappa).parameters["tol"].default, sigma=1.0)
    table("table3", cmd_table3, "Pareto-band ratio constants", p0=20.0, p1=5.0)
    rule("eval", cmd_eval, "closed-form evaluation of one rule")
    rule("simulate", cmd_simulate, "Monte Carlo estimate of one rule", trials=100000, seed=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no top-level option takes a value, so the first argument that is no
    # option names the command (or is an invalid choice either way)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
