"""Backend selection for the Monte Carlo trial loops.

Two implementations exist: a numba-compiled one and a vectorized pure-numpy
one.  The env var PROPHET_SHARP_BACKEND picks which runs ("auto" | "numba" |
"numpy").  Simulation results are bit-identical across backends.
"""

import os

try:
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    HAS_NUMBA = False
    prange = range

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

_VALID = ("auto", "numba", "numpy")


def backend() -> str:
    """Resolve the active backend name, re-reading the env var each call."""
    mode = os.environ.get("PROPHET_SHARP_BACKEND", "auto").strip().lower()
    if mode not in _VALID:
        raise ValueError(f"PROPHET_SHARP_BACKEND must be one of {_VALID}, got {mode!r}")
    if mode == "numpy":
        return "numpy"
    if mode == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("PROPHET_SHARP_BACKEND=numba but numba is not importable")
        return "numba"
    return "numba" if HAS_NUMBA else "numpy"
