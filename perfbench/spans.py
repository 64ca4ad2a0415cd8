"""Spans around the calls into prophet_sharp's modules, recorded from outside.

`Tracer.install()` rebinds each traced public function, in every module of
the package that holds a reference to it, to a wrapper that records a span:
name, start, end, parent span and round.  `linprog` and `minimize` are
wrapped only under the names `game` and `constrained` import, to read solver
time and problem size.  The program's source is not touched.  Spans stay in
memory until `write()`.

tracemalloc slows the HiGHS calls about threefold, so allocation peaks come
from a round of their own (`alloc_round`), in which tracemalloc runs only
during the first call of each span name in ALLOC; its times are not used.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

MB = 1e6

#: (module, function) -> span name; the module is where the function lives
TRACED = {
    ("cli", "main"): "cli.main",
    ("kernel", "payoff_matrix"): "kernel.payoff_matrix",
    ("kernel", "reward_weights"): "kernel.reward_weights",
    ("kernel", "prophet_weights"): "kernel.reward_weights",
    ("game", "solve_game"): "game.solve_game",
    ("game", "sharp_ratio"): "game.sharp",
    ("game", "sharp_regret"): "game.sharp",
    ("dist", "lfd_from_mu_ratio"): "dist.lfd",
    ("dist", "lfd_from_mu_diff"): "dist.lfd",
    ("reward", "optimal_rule"): "reward.optimal_rule",
    ("reward", "reward_v1"): "reward.reward_v1",
    ("constrained", "kappa"): "constrained.kappa",
    ("constrained", "pareto_ratio"): "constrained.pareto_ratio",
    ("sim", "run_rule"): "sim.run_rule",
    ("sim", "run_prophet"): "sim.run_prophet",
}
#: solver entry points, wrapped only in the module that imports them
SOLVERS = {
    ("game", "linprog"): "game.linprog",
    ("constrained", "linprog"): "constrained.linprog",
    ("constrained", "minimize"): "constrained.minimize",
}
#: spans whose tracemalloc peak is recorded; none of them nests in another,
#: and the calls of one name in a round have the same sizes, except validate's
#: games, which run the largest grid first
ALLOC = {"game.sharp", "constrained.kappa", "constrained.pareto_ratio",
         "sim.run_rule", "sim.run_prophet"}


@dataclass
class Span:
    id: int
    parent: int
    name: str
    round: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.round = 0
        self.alloc_round = False
        self._measured: set[str] = set()
        self._stack: list[Span] = []
        self._originals: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "reward.optimal_rule":
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "level-search")
                span_name = "reward.optimal_rule_grid" if mode == "grid-exact" else "reward.optimal_rule_search"
            parent = self._stack[-1].id if self._stack else -1
            span = Span(len(self.spans), parent, span_name, self.round, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            measure = self.alloc_round and span_name in ALLOC and span_name not in self._measured
            if measure:
                self._measured.add(span_name)
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure:
                    span.info["alloc_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            if annotate is not None:
                annotate(span, args, kwargs, out)
            return out

        return traced

    def _count_levels(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and self._stack[-1].name == "reward.optimal_rule_grid":
                key = (self.round, "reward.reward_by_level_calls")
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Rebind every traced name in the package."""
        pkg = sys.modules["prophet_sharp"]
        mods = {name: sys.modules[f"prophet_sharp.{name}"] for name in
                ("cli", "kernel", "game", "dist", "reward", "constrained", "sim")}
        everywhere = [pkg, *mods.values()]
        replace = {}
        for (mod, fname), span_name in TRACED.items():
            fn = getattr(mods[mod], fname)
            replace[id(fn)] = self._wrap(fn, span_name, ANNOTATE.get(span_name))
        rbl = mods["reward"].reward_by_level
        replace[id(rbl)] = self._count_levels(rbl)
        for module in everywhere:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        for (mod, fname), span_name in SOLVERS.items():
            fn = getattr(mods[mod], fname)
            self._originals.append((mods[mod], fname, fn))
            setattr(mods[mod], fname, self._wrap(fn, span_name, ANNOTATE.get(span_name)))

    def uninstall(self):
        """Restore every name that install() rebound."""
        for module, attr, value in self._originals:
            setattr(module, attr, value)
        self._originals = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "round": s.round, "start": s.start, "end": s.end,
                                     **s.info}) + "\n")
            for (rnd, name), value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "round": rnd, "value": value}) + "\n")

    # -- per-round layer metrics ------------------------------------------

    def layer_metrics(self, rnd: int, alloc_rnd: int) -> dict:
        """Layer metrics of round rnd, with the allocation peaks of alloc_rnd."""
        spans = [s for s in self.spans if s.round == rnd]
        child_time = {}
        for s in spans:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

        def total(name):
            return sum(s.end - s.start for s in spans if s.name == name)

        def self_time(name):
            return sum(s.end - s.start - child_time.get(s.id, 0.0) for s in spans if s.name == name)

        def info_sum(name, key):
            return sum(s.info.get(key, 0) for s in spans if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def alloc(*names):
            return max((s.info["alloc_mb"] for s in self.spans
                        if s.round == alloc_rnd and s.name in names and "alloc_mb" in s.info),
                       default=0.0)

        sim_s = self_time("sim.run_rule") + self_time("sim.run_prophet")
        lp_calls = calls("constrained.linprog")
        return {
            "kernel.payoff_matrix_s": self_time("kernel.payoff_matrix"),
            "kernel.payoff_matrix_mb": info_sum("kernel.payoff_matrix", "bytes") / MB,
            "kernel.reward_weights_s": self_time("kernel.reward_weights"),
            "game.solve_game_s": self_time("game.solve_game"),
            "game.solve_game_calls": calls("game.solve_game"),
            "game.highs_iterations": info_sum("game.solve_game", "iterations"),
            "game.linprog_s": self_time("game.linprog"),
            "game.lp_nonzeros": info_sum("game.linprog", "nonzeros"),
            "game.sharp_self_s": self_time("game.sharp"),
            "game.alloc_mb": alloc("game.sharp"),
            "dist.lfd_s": self_time("dist.lfd"),
            "reward.optimal_rule_grid_s": self_time("reward.optimal_rule_grid"),
            "reward.reward_by_level_calls": self.counts.get((rnd, "reward.reward_by_level_calls"), 0),
            "reward.optimal_rule_search_s": self_time("reward.optimal_rule_search"),
            "reward.reward_v1_s": self_time("reward.reward_v1"),
            "constrained.kappa_s": total("constrained.kappa"),
            "constrained.kappa_self_s": self_time("constrained.kappa"),
            "constrained.minimize_s": self_time("constrained.minimize"),
            "constrained.kappa_lbfgs_iterations": info_sum("constrained.kappa", "lbfgs_iterations"),
            "constrained.kappa_kkt_exact": info_sum("constrained.kappa", "kkt_exact"),
            "constrained.pareto_ratio_s": total("constrained.pareto_ratio"),
            "constrained.pareto_lp_calls": lp_calls,
            "constrained.pareto_lp_s": self_time("constrained.linprog"),
            "constrained.pareto_lp_nonzeros": (
                info_sum("constrained.linprog", "nonzeros") / lp_calls if lp_calls else 0.0),
            "constrained.alloc_mb": alloc("constrained.kappa", "constrained.pareto_ratio"),
            "sim.run_rule_s": self_time("sim.run_rule"),
            "sim.run_prophet_s": self_time("sim.run_prophet"),
            "sim.trials_per_s": (
                (info_sum("sim.run_rule", "trials") + info_sum("sim.run_prophet", "trials")) / sim_s
                if sim_s > 0.0 else 0.0),
            "sim.alloc_mb": alloc("sim.run_rule", "sim.run_prophet"),
            "cli.self_s": self_time("cli.main"),
        }


def _matrix_bytes(span, args, kwargs, out):
    span.info["bytes"] = int(out.entries.nbytes)


def _solve_info(span, args, kwargs, out):
    span.info["iterations"] = int(out.iterations)


def _lp_nonzeros(span, args, kwargs, out):
    total = 0
    for key in ("A_ub", "A_eq"):
        A = kwargs.get(key)
        if A is not None:
            total += int(A.nnz) if hasattr(A, "nnz") else int(np.count_nonzero(A))
    span.info["nonzeros"] = total


def _kappa_info(span, args, kwargs, out):
    span.info["lbfgs_iterations"] = int(out.certificate["lbfgs_iterations"])
    span.info["kkt_exact"] = int(bool(out.certificate["kkt_exact"]))


def _trials(span, args, kwargs, out):
    span.info["trials"] = int(out.trials)


ANNOTATE = {
    "kernel.payoff_matrix": _matrix_bytes,
    "game.solve_game": _solve_info,
    "game.linprog": _lp_nonzeros,
    "constrained.linprog": _lp_nonzeros,
    "constrained.kappa": _kappa_info,
    "sim.run_rule": _trials,
    "sim.run_prophet": _trials,
}

#: per-layer metric -> unit, in the order they are printed
UNITS = {
    "kernel.payoff_matrix_s": "s", "kernel.payoff_matrix_mb": "MB",
    "kernel.reward_weights_s": "s", "game.solve_game_s": "s",
    "game.solve_game_calls": "count", "game.highs_iterations": "count",
    "game.linprog_s": "s", "game.lp_nonzeros": "count", "game.sharp_self_s": "s",
    "game.alloc_mb": "MB", "dist.lfd_s": "s", "reward.optimal_rule_grid_s": "s",
    "reward.reward_by_level_calls": "count", "reward.optimal_rule_search_s": "s",
    "reward.reward_v1_s": "s", "constrained.kappa_s": "s", "constrained.kappa_self_s": "s",
    "constrained.minimize_s": "s", "constrained.kappa_lbfgs_iterations": "count",
    "constrained.kappa_kkt_exact": "count", "constrained.pareto_ratio_s": "s",
    "constrained.pareto_lp_calls": "count", "constrained.pareto_lp_s": "s",
    "constrained.pareto_lp_nonzeros": "count", "constrained.alloc_mb": "MB",
    "sim.run_rule_s": "s", "sim.run_prophet_s": "s", "sim.trials_per_s": "1/s",
    "sim.alloc_mb": "MB", "cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.reference_s": "s",
}
