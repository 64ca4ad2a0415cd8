"""The benchmark's tracer (perfbench/spans.py) rebinds package functions by
name; every name it lists must exist, or a traced run stops at install."""

import importlib

import numpy as np
import pytest

import prophet_sharp
import prophet_sharp.cli  # noqa: F401  (the tracer rebinds names in cli too)
from helpers import load_perfbench

spans = load_perfbench("spans")
#: Tracer.install also rebinds reward.reward_by_level to count calls
NAMES = sorted({*spans.TRACED, *spans.SOLVERS, ("reward", "reward_by_level")})


@pytest.mark.parametrize("module,name", NAMES, ids=[".".join(k) for k in NAMES])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"prophet_sharp.{module}"), name, None))


def test_pareto_ratio_makes_no_lp_call():
    # the band is solved by double oracle on game's simplex driver, so the
    # wrapped constrained.linprog never fires
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = prophet_sharp.pareto_ratio(4, 40, 20.0, 5.0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0, 0)
    assert metrics["constrained.pareto_lp_calls"] == 0
    assert metrics["constrained.pareto_lp_nonzeros"] == 0
    assert metrics["constrained.pareto_ratio_s"] > 0.0
    assert np.isfinite(res.value)


def test_kappa_is_one_traced_qp():
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = prophet_sharp.kappa(5, 40)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0, 0)
    assert metrics["constrained.kappa_lbfgs_iterations"] == 0
    assert metrics["constrained.kappa_kkt_exact"] == 1
    assert metrics["constrained.minimize_s"] == 0
    assert np.isfinite(res.value)
