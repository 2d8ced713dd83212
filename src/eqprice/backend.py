"""Name of the kernel path, for environment records.

The kernels in :mod:`eqprice.kernels` run as plain Python; there is no
compiled backend. These two names remain only because the benchmark's
environment record (``perfbench/run.py``) imports them.
"""

from __future__ import annotations

NUMBA_AVAILABLE = False


def active_backend() -> str:
    """Name of the kernel path in use: always ``numpy``."""
    return "numpy"
