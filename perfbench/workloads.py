"""The three workloads: their inputs, made from the seed, and one round of
calls into prophet_sharp.

Input generation uses numpy alone, so the checks can rebuild the same inputs
from the seed without the program.  A round calls the library through the
package's module attributes, looked up at call time, so that the tracer's
rebinding takes effect.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

TABLE1 = {"n": (10, 25), "N": 700, "tol": 1e-7}
#: (n, N, sigma) of the kappa calls, and (n, N, p0, p1) of the Pareto call
KAPPA = ((10, 200, 1.0), (10, 200, 2.0), (25, 200, 1.0))
KAPPA_TOL = 1e-3
PARETO = (10, 200, 20.0, 5.0)
PARETO_TOL = 1e-6
#: validate: sharp games at every N, largest first (the traced run takes the
#: allocation peak of the first game), and doubling checks from N to 2N
GAME_N = (5, 10)
GAME_GRIDS = (500, 250, 125)
DOUBLING = (125, 250)
GAME_TOL = 1e-7
MC_CONFIGS = 100
MC_TRIALS = 2 * 10**4
REPLAY_EVERY = 10


def mc_configs(seed: int) -> list[dict]:
    """Random distributions on [0, 3], a rule at one of the atoms with
    tie-break p in {0, 1/2, 1}, and a simulator seed.  The atom counts (1-5)
    and horizons (2-8) cycle with the index and do not depend on the seed,
    so every seed asks for the same amount of simulation."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(MC_CONFIGS):
        k = 1 + i % 5
        values = np.sort(rng.choice(np.linspace(0.0, 3.0, 200), size=k, replace=False))
        probs = rng.dirichlet(np.ones(k))
        probs = probs / probs.sum()
        n = 2 + i % 7
        theta = float(rng.choice(values))
        p = float(rng.choice([0.0, 0.5, 1.0]))
        out.append({"values": values.tolist(), "probs": probs.tolist(), "n": n,
                    "theta": theta, "p": p, "sim_seed": int(rng.integers(0, 2**63))})
    return out


def build_inputs(ps, workload: str, seed: int, outdir: str) -> dict:
    if workload == "table1":
        argv = ["table1", "--n", ",".join(map(str, TABLE1["n"])), "--N", str(TABLE1["N"]),
                "--tol", str(TABLE1["tol"]), "--out", outdir, "--jobs", "1"]
        return {"argv": argv}
    if workload == "constrained":
        return {}
    if workload == "validate":
        configs = mc_configs(seed)
        for c in configs:
            c["dist"] = ps.DiscreteDistribution(np.array(c["values"]), np.array(c["probs"]))
            c["rule"] = ps.ThresholdRule(c["theta"], c["p"])
            c["cfg"] = ps.SimConfig(trials=MC_TRIALS, seed=c["sim_seed"], n=c["n"])
        return {"configs": configs}
    raise ValueError(f"unknown workload {workload!r}")


class Round:
    """Counts the operations of one round; a raising call counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def run_round(ps, workload: str, inputs: dict) -> tuple[dict, Round]:
    r = Round()
    if workload == "table1":
        rc = r.call(ps.cli.main, inputs["argv"])
        if rc not in (0, None):
            r.failed += 1
        return {"rc": rc}, r
    if workload == "constrained":
        return _constrained(ps, r), r
    return _validate(ps, inputs, r), r


def _constrained(ps, r: Round) -> dict:
    out = {"kappa": [], "pareto": None}
    for n, N, sigma in KAPPA:
        res = r.call(ps.kappa, n, N, tol=KAPPA_TOL, sigma=sigma)
        if res is not None:
            out["kappa"].append({"n": n, "N": N, "sigma": sigma, "value": res.value,
                                 "z": res.z.tolist(), "certificate": res.certificate})
    n, N, p0, p1 = PARETO
    res = r.call(ps.pareto_ratio, n, N, p0, p1, tol=PARETO_TOL)
    if res is not None:
        out["pareto"] = {"value": res.value, "v": res.v.tolist(), "certificate": res.certificate}
    return out


def _report(rep) -> dict:
    return {"value": rep.value, "gap": rep.gap, "bracket": list(rep.bracket),
            "values": rep.lfd.values.tolist(), "probs": rep.lfd.probs.tolist()}


def _validate(ps, inputs: dict, r: Round) -> dict:
    games, doubling = {}, {}
    for n in GAME_N:
        for N in GAME_GRIDS:
            for kind, solve in (("ratio", ps.sharp_ratio), ("regret", ps.sharp_regret)):
                rep = r.call(solve, n, N, GAME_TOL)
                if rep is None:
                    continue
                games[f"{kind}/{n}/{N}"] = _report(rep)
                if N in DOUBLING:
                    best = r.call(ps.optimal_rule, rep.lfd, n, mode="grid-exact", grid_size=2 * N)
                    if best is not None:
                        doubling[f"{kind}/{n}/{N}"] = best.evaluation.as_dict()
    sims, searches = [], []
    for i, c in enumerate(inputs["configs"]):
        runs = [r.call(ps.run_rule, c["dist"], c["rule"], c["cfg"]),
                r.call(ps.run_prophet, c["dist"], c["cfg"])]
        if i % REPLAY_EVERY == 0:
            runs += [r.call(ps.run_rule, c["dist"], c["rule"], c["cfg"]),
                     r.call(ps.run_prophet, c["dist"], c["cfg"])]
        sims.append([None if s is None else [s.mean, s.std_error] for s in runs])
        best = r.call(ps.optimal_rule, c["dist"], c["n"])
        searches.append(None if best is None else
                        {"theta": best.rule.theta, "p": best.rule.p, "value": best.evaluation.value})
    return {"games": games, "doubling": doubling, "sims": sims, "searches": searches}
