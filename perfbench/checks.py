"""Checks of one run's outputs against the benchmark's own computations.

Each check function takes the worker's outputs and returns a list of
failure messages; an empty list means every output is correct.  Nothing
here imports prophet_sharp: the references come from `oracles`, and the
validate inputs are rebuilt from the seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles as o
import workloads as w

#: published sharp regret constants at N = 13000
REGRET_REF = {10: 0.1395, 25: 0.1572}


class Failures(list):
    def expect(self, ok, message: str):
        if not ok:
            self.append(message)


def _best_grid(values, probs, n: int, N: int, kind: str) -> float:
    """Best ratio (max) or regret (min) of the distribution over levels i/N."""
    prophet = o.prophet_value(values, probs, n)
    rewards = o.level_rewards(values, probs, n, o.grid(N))
    return float(rewards.max() / prophet) if kind == "ratio" else float((prophet - rewards).min())


def check_table1(outdir: Path, outputs: dict) -> list:
    f = Failures()
    tol, N = w.TABLE1["tol"], w.TABLE1["N"]
    f.expect(outputs.get("rc") == 0, f"table1 exited {outputs.get('rc')}")
    table = outdir / "table1.csv"
    if not table.is_file():
        return f + ["table1.csv not written"]
    lines = [ln for ln in table.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = {int(r["n"]): {k: float(v) for k, v in r.items()} for r in csv.DictReader(lines)}
    f.expect(sorted(rows) == sorted(w.TABLE1["n"]), f"table1 rows {sorted(rows)}")
    for n, row in rows.items():
        for kind, key in (("ratio", "R"), ("regret", "A")):
            value, gap = row[f"{key}_value"], row[f"gap_{key}"]
            f.expect(row[f"{key}_lo"] <= value <= row[f"{key}_hi"], f"{kind} n={n}: value outside bracket")
            f.expect(0.0 <= gap <= tol, f"{kind} n={n}: gap {gap:.3e} > tol")
            report = json.loads((outdir / f"report_{kind}_n{n}.json").read_text(encoding="utf-8"))
            f.expect(report["report"]["value"] == value, f"{kind} n={n}: report and table differ")
            atoms = json.loads((outdir / f"lfd_{kind}_n{n}.json").read_text(encoding="utf-8"))["atoms"]
            values, probs = zip(*atoms)
            best = _best_grid(values, probs, n, N, kind)
            f.expect(abs(best - value) <= gap + 1e-9,
                     f"{kind} n={n}: lfd best grid level {best!r} vs value {value!r}")
        ratio, regret = row["R_value"], row["A_value"]
        f.expect(ratio >= 1.0 - (1.0 - 1.0 / n) ** n, f"ratio n={n} below the floor")
        lower, upper = o.ratio_bracket(n)
        delta = o.err_ratio(n, N) + 2 * tol
        f.expect(lower - delta <= ratio <= upper + delta,
                 f"ratio n={n}: {ratio!r} outside [L*, U*] = [{lower}, {upper}] +/- {delta}")
        delta = o.err_diff(n, N) + o.err_diff(n, 13000) + 2 * tol
        f.expect(abs(regret - REGRET_REF[n]) <= delta, f"regret n={n}: {regret!r} not {REGRET_REF[n]}")
    return f


def check_constrained(outputs: dict) -> list:
    f = Failures()
    by_key = {}
    for k in outputs["kappa"]:
        n, N, sigma, value = k["n"], k["N"], k["sigma"], k["value"]
        z, cert = np.array(k["z"]), k["certificate"]
        A, Q = o.diff_matrix(n, N), o.variance_matrix(N)
        label = f"kappa(n={n}, N={N}, sigma={sigma})"
        f.expect(z.min() >= 0.0, f"{label}: negative witness entry")
        f.expect((A @ z).min() >= value - 1e-12, f"{label}: A z below kappa by {value - (A @ z).min():.3e}")
        f.expect(abs(z @ Q @ z - sigma**2) <= 1e-9, f"{label}: z'Qz = {z @ Q @ z!r}")
        f.expect(cert["kappa_lower"] <= value <= cert["kappa_upper"] and cert["gap"] <= w.KAPPA_TOL,
                 f"{label}: certificate {cert}")
        by_key[(n, N, sigma)] = value
    f.expect(len(by_key) == len(w.KAPPA), "kappa calls missing")
    n, N = w.KAPPA[0][:2]
    if (n, N, 1.0) in by_key and (n, N, 2.0) in by_key:
        dev = abs(by_key[(n, N, 2.0)] - 2.0 * by_key[(n, N, 1.0)])
        f.expect(dev <= 1e-6, f"kappa homogeneity off by {dev:.3e}")
    par = outputs["pareto"]
    if par is None:
        return f + ["pareto_ratio missing"]
    n, N, p0, p1 = w.PARETO
    v = np.array(par["v"])
    u = np.cumsum(v)
    lo, hi = o.pareto_band(N, p0, p1)
    f.expect(v.min() >= 0.0, "pareto witness has a negative increment")
    # the LP holds the band as variable bounds; 1e-12 relative absorbs re-summing v
    f.expect(np.all(u >= lo * (1 - 1e-12)) and np.all(u <= hi * (1 + 1e-12)),
             f"pareto witness leaves the band by {max((lo - u).max(), (u - hi).max()):.3e}")
    values = np.concatenate(([0.0], u))
    probs = np.full(N, 1.0 / N)
    best = _best_grid(values, probs, n, N, "ratio")
    f.expect(best <= par["value"] + 1e-9, f"pareto witness ratio {best!r} > value {par['value']!r}")
    lo_b, hi_b = par["certificate"]["bracket"]
    f.expect(lo_b <= par["value"] == hi_b and hi_b - lo_b <= w.PARETO_TOL, "pareto bracket")
    return f


def check_validate(seed: int, outputs: dict) -> list:
    f = Failures()
    games = outputs["games"]
    f.expect(len(games) == 2 * len(w.GAME_N) * len(w.GAME_GRIDS), "games missing")
    for key, g in games.items():
        kind, n, N = key.split("/")
        n, N = int(n), int(N)
        f.expect(g["gap"] <= w.GAME_TOL, f"{key}: gap {g['gap']:.3e}")
        f.expect(g["bracket"][0] <= g["value"] <= g["bracket"][1], f"{key}: value outside bracket")
        best = _best_grid(g["values"], g["probs"], n, N, kind)
        f.expect(abs(best - g["value"]) <= g["gap"] + 1e-9, f"{key}: lfd best grid level {best!r}")
    for key, ev in outputs["doubling"].items():
        kind, n, N = key.split("/")
        n, N = int(n), int(N)
        coarse, fine = games[key], games.get(f"{kind}/{n}/{2 * N}")
        best = _best_grid(coarse["values"], coarse["probs"], n, 2 * N, kind)
        got = ev["ratio"] if kind == "ratio" else ev["regret"]
        # grid-exact takes the first level within 1e-9 of the best reward
        f.expect(abs(got - best) <= 2e-9, f"{key}: grid-exact {got!r} vs {best!r} on the 2N grid")
        if fine is not None:
            ok = fine["value"] <= best + 2 * w.GAME_TOL if kind == "ratio" else \
                fine["value"] >= best - 2 * w.GAME_TOL
            f.expect(ok, f"{key}: 2N value {fine['value']!r} not bounded by lfd_N ({best!r})")
    f.expect(len(outputs["doubling"]) == 2 * len(w.GAME_N) * len(w.DOUBLING), "doubling missing")

    configs = w.mc_configs(seed)
    for i, (c, sims, search) in enumerate(zip(configs, outputs["sims"], outputs["searches"])):
        vals, probs, n = c["values"], c["probs"], c["n"]
        spread = vals[-1] - vals[0]
        exact = [o.rule_moments(vals, probs, n, c["theta"], c["p"]), o.prophet_moments(vals, probs, n)]
        for j, sim in enumerate(sims):
            if sim is None:
                continue
            mean, var = exact[j % 2]
            # 5 exact standard errors, plus Bernstein's range term for rare atoms
            slack = 5.0 * math.sqrt(var / w.MC_TRIALS) + 10.0 * spread / w.MC_TRIALS + 1e-12
            f.expect(abs(sim[0] - mean) <= slack,
                     f"config {i}: simulated {sim[0]!r} vs exact {mean!r} (slack {slack:.2e})")
        if len(sims) == 4:
            f.expect(sims[2:] == sims[:2], f"config {i}: replay is not bit-identical")
        if search is not None:
            best = o.exact_best_level(vals, probs, n)[1]
            f.expect(search["value"] <= best + 1e-12, f"config {i}: level search beats the optimum")
            own = o.rule_moments(vals, probs, n, search["theta"], search["p"])[0]
            f.expect(abs(search["value"] - own) <= 1e-12 * max(1.0, abs(own)),
                     f"config {i}: level-search reward {search['value']!r} vs recursion {own!r}")
    f.expect(len(outputs["sims"]) == len(configs), "simulations missing")
    return f
