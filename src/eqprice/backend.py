"""Kernel backend selection: numba-jitted hot loops with a plain-Python fallback.

The per-period step functions and fused loops in :mod:`eqprice.kernels` are
written once in numba-compatible style and compiled with ``@njit`` when numba
is importable. The steps then always run compiled (the step-level API and
both loop paths call them), and the active path selects the jitted or the
plain-Python loop; without numba everything runs as plain Python. The active
path is chosen by the ``EQPRICE_BACKEND`` environment variable (``numba`` or
``numpy``) read at import time, or at runtime via :func:`set_backend`.

Both paths execute the identical sequence of IEEE-754 double operations, so
trajectories agree across backends (bit-for-bit for the interval-tracking
policies, which use no transcendental functions).
"""

from __future__ import annotations

import os

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    NUMBA_AVAILABLE = False

_VALID = ("numba", "numpy")


def _initial_backend() -> str:
    env = os.environ.get("EQPRICE_BACKEND", "").strip().lower()
    if env:
        if env not in _VALID:
            raise ValueError(f"EQPRICE_BACKEND must be one of {_VALID}, got {env!r}")
        if env == "numba" and not NUMBA_AVAILABLE:
            raise ImportError("EQPRICE_BACKEND=numba but numba is not installed")
        return env
    return "numba" if NUMBA_AVAILABLE else "numpy"


_ACTIVE = _initial_backend()


def active_backend() -> str:
    """Name of the kernel path currently in use: ``numba`` or ``numpy``."""
    return _ACTIVE


def set_backend(name: str) -> None:
    """Switch the kernel path at runtime (used by tests and the benchmark)."""
    global _ACTIVE
    if name not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}, got {name!r}")
    if name == "numba" and not NUMBA_AVAILABLE:
        raise ImportError("numba backend requested but numba is not installed")
    _ACTIVE = name


def compile_kernel(fn):
    """Return the jitted variant of ``fn`` when numba is present, else ``fn``."""
    if NUMBA_AVAILABLE:
        return njit(cache=True, fastmath=False)(fn)
    return fn
