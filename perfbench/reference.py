"""A fixed reference task that measures the machine's speed during a run.

The machine the benchmark runs on changes speed by 30-45% within seconds
(README.md, "Why wall_s is scaled"), and every kind of work slows down
together: HiGHS, BLAS, L-BFGS-B and the interpreter.  The worker runs this
task before every round and after the last one; run.py divides each round's
time by the mean of the two reference times around it, and multiplies by
REFERENCE_S, so `wall_s` reads as seconds at one fixed machine speed.

The task uses numpy and scipy alone, never prophet_sharp, and its inputs do
not depend on the seed, so no change to the program changes its time.  It
has one piece of each kind of work the workloads do, each about a quarter of
its time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog, minimize

#: the reference task's median time on the machine of the README's figures;
#: it only sets the scale of wall_s
REFERENCE_S = 0.15

_rng = np.random.default_rng(20240601)
_GAME = _rng.random((170, 170))
_B = _rng.random((300, 300))
_RHS = _rng.random(300)
_Q = _B @ _B.T / 300 + np.eye(300)


def _matrix_game() -> float:
    """Value of the zero-sum game _GAME by one dense HiGHS LP."""
    m = _GAME.shape[0]
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-_GAME.T, np.ones((m, 1))])
    a_eq = np.ones((1, m + 1))
    a_eq[0, -1] = 0.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    return float(res.x[-1])


def _interpreter() -> int:
    total = 0
    for _ in range(4):
        total += sum(i * i for i in range(150_000))
    return total


def _blas() -> float:
    out = 0.0
    for _ in range(18):
        out += float(np.linalg.solve(_B @ _B.T + np.eye(300), _RHS)[0])
    return out


def _lbfgs() -> float:
    out = 0.0
    for _ in range(40):
        res = minimize(lambda x: (0.5 * x @ _Q @ x - _RHS @ x, _Q @ x - _RHS), np.zeros(300),
                       jac=True, method="L-BFGS-B", options={"maxiter": 200})
        out += float(res.fun)
    return out


def run() -> float:
    """Run the task once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _matrix_game()
    _interpreter()
    _blas()
    _lbfgs()
    return time.perf_counter() - t0


def scaled(round_s: list, reference_s: list) -> list:
    """Each round's time at the reference speed: round i divided by the mean
    of reference times i and i + 1, the ones taken just before and after it,
    times REFERENCE_S."""
    return [REFERENCE_S * t * 2.0 / (reference_s[i] + reference_s[i + 1])
            for i, t in enumerate(round_s)]


if __name__ == "__main__":
    run()
    for _ in range(5):
        print(f"{run():.4f}")
