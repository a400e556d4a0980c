"""The environment record stored beside every benchmark result.

A number from this benchmark is only comparable with another taken on the
same kind of machine, so each result carries the core count, interpreter and
numpy versions, the BLAS thread settings and a fixed numpy calibration
timing (batched Hermitian eigendecompositions, the kernel the ADMM solve
spends most of its time in).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import numpy as np

#: Environment variables that set BLAS/OpenMP thread counts.
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def calibration_seconds(repeats: int = 7) -> float:
    """Median seconds of a fixed batched ``eigh`` (512 Hermitian 16x16 blocks, x2)."""
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((512, 16, 16)) + 1j * rng.standard_normal((512, 16, 16))
    blocks = blocks + blocks.conj().swapaxes(-1, -2)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(2):
            np.linalg.eigh(blocks)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("name", "unknown"))
    except Exception:  # the config layout differs across numpy releases
        return "unknown"


def environment() -> dict:
    """The record: machine, interpreter, numpy/BLAS settings and calibration."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "calibration_eigh_s": calibration_seconds(),
    }
