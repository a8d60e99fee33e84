"""Machine and environment description, and peak-RSS measurement.

The benchmark pins BLAS to one thread before numpy is imported (see
run.py); this module records that setting next to what the BLAS library
itself reports.
"""

import ctypes
import glob
import os
import platform
import resource
from pathlib import Path

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _blas_info() -> dict:
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": _openblas_threads()}


def _openblas_threads():
    """Thread count as the loaded OpenBLAS reports it, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest peak RSS
    of the child processes reaped so far.  Called before the benchmark
    starts any other child, so those children are the search's pool
    workers; with no pool the second term is 0.  Both peaks are the
    kernel's own high-water marks, so no sampling can miss one."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0
