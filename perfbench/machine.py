"""The environment record printed with every result."""

import os
import platform
import sys

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def usable_cpus() -> list[int]:
    """The CPUs this process may run on (what ``nproc`` counts)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def describe(blas_threads: int, nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpus_in_use": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
