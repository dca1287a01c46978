"""Where a benchmark result was measured: CPUs, BLAS threads, versions, commit."""

from __future__ import annotations

import ctypes
import glob
import os

# Environment variables that set how many threads BLAS and OpenMP start.
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read through ctypes; None when
    no OpenBLAS library with a known getter is found next to numpy."""
    import numpy as np

    base = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(base, "numpy*.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance(root: str) -> dict:
    """JSON-ready description of the machine and code a run measured: the
    repository's own provenance block (versions, platform, git SHA and
    dirty flag, performance knobs) plus CPU affinity and BLAS threads."""
    from repro.obs.runmeta import provenance as repro_provenance

    return {
        **repro_provenance(cwd=root),
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV_VARS if k in os.environ},
        "blas_threads": blas_threads(),
    }
