"""Environment stamp recorded with every benchmark result.

It reads the BLAS thread count from the environment and from the
OpenBLAS library that numpy loaded (through ctypes), and never changes
any setting: the benchmark measures the program as a user runs it.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None when unknown."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from its .git directory only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(root: Path) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": affinity or os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(root),
    }
