"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by name:
``conftest`` is not an importable module name once several conftest files
exist on ``sys.path`` (the ``benchmarks/`` conftest used to shadow this one
and break collection of six test modules).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.circuits import Circuit
from repro.circuits.program import GateOp, Seq
from repro.mps.approximator import MPSApproximator
from repro.sdp import GateBoundCache, gate_error_bound

__all__ = [
    "MALFORMED_JOB_FIELDS",
    "RETIRED_CACHE_SWITCH_KEY",
    "RETIRED_CONFIG_KEY",
    "RETIRED_COUNTER_FIELDS",
    "RETIRED_DISK_CACHE_KEY",
    "RETIRED_DOMINANCE_KEY",
    "RETIRED_JOB_KIND",
    "RETIRED_RESULT_FIELDS",
    "RETIRED_SDP_CONFIG_KEY",
    "RETIRED_TAPE_MEMO_KEY",
    "PerGateReference",
    "cached_gate_bound",
    "per_gate_bound",
    "per_gate_reference",
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

#: The ``sdp`` config field that once pointed the bound cache at a directory
#: of ``.npz`` files shared across runs.
RETIRED_DISK_CACHE_KEY = "_".join(("persistent", "cache", "path"))

#: The config field that once switched the replay-tape prefix memo.
RETIRED_TAPE_MEMO_KEY = "_".join(("tape", "memo"))

#: The job ``kind`` of the removed channel / noise-model comparison jobs.
RETIRED_JOB_KIND = "_".join(("comparison", "job"))

#: The ``JobResult`` fields of the removed comparison jobs.  Records stored
#: before the removal carry them empty; loading drops them.
RETIRED_RESULT_FIELDS = ("metric", "metric_tier", "value_a", "value_b")

#: The always-0 ``JobResult`` counters of the removed predicate-dominance
#: cache and of the removed replay-tape prefix memo.  Records stored before
#: their removal carry them as 0; loading drops them.
RETIRED_COUNTER_FIELDS = (
    "_".join(("sdp", "dominance", "hits")),
    "_".join(("tape", "steps", "reused")),
)

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


def cached_gate_bound(
    cache: GateBoundCache,
    key_parts: tuple,
    gate_matrix,
    noise_channel,
    rho_local,
    delta: float,
    *,
    noise_after_gate: bool = True,
    config=None,
):
    """One gate's bound through ``cache``, as the analysis reaches it.

    The predicate is quantised with ``quantise_key``; ``peek`` answers from
    memory; a miss is solved alone with ``gate_error_bound`` and recorded
    with ``insert``.
    """
    key, rho, effective = cache.quantise_key(key_parts, rho_local, delta)
    bound = cache.peek(key)
    if bound is None:
        bound = gate_error_bound(
            gate_matrix,
            noise_channel,
            rho,
            effective,
            noise_after_gate=noise_after_gate,
            config=config,
        )
        cache.insert(key, bound)
    return bound


def per_gate_bound(op: GateOp, model, config, rho_local, delta) -> float:
    """One noisy gate's bound, quantised and solved on its own.

    ``GateBoundCache.quantise_key`` weakens the raw ``(rho_local, delta)``
    predicate exactly as the analysis does; ``gate_error_bound`` then solves
    the one SDP alone.  Noiseless gates give 0.0.
    """
    channel = model.channel_for(op.gate, op.qubits)
    if channel is None:
        return 0.0
    quantiser = GateBoundCache(decimals=config.sdp.cache_decimals)
    _key, rho, delta = quantiser.quantise_key((), rho_local, delta)
    return gate_error_bound(
        op.gate.matrix,
        channel,
        rho,
        delta,
        noise_after_gate=model.noise_after_gate,
        config=config.sdp,
    ).value


class PerGateReference(NamedTuple):
    """A branch-free circuit analysed gate by gate, without the scheduler."""

    values: list[float]
    final_delta: float
    #: Distinct quantised (gate, ρ̂, δ) classes; uniform noise models only.
    num_classes: int

    @property
    def error_bound(self) -> float:
        return float(sum(self.values))


def per_gate_reference(circuit: Circuit, model, config) -> PerGateReference:
    """Walk a live MPS through ``circuit`` and bound each gate on its own.

    The reference the single analysis path is held to: no walk tree, no
    stacked quantisation, no batched or deduplicated solve.
    """
    program = circuit.to_program()
    ops = program.parts if isinstance(program, Seq) else [program]
    approximator = MPSApproximator.from_product_state(
        [0] * circuit.num_qubits, width=config.mps_width
    )
    quantiser = GateBoundCache(decimals=config.sdp.cache_decimals)
    values = []
    classes = set()
    for op in ops:
        if model.channel_for(op.gate, op.qubits) is not None:
            predicate = approximator.local_predicate(op.qubits)
            values.append(
                per_gate_bound(op, model, config, predicate.rho_local, predicate.delta)
            )
            classes.add(
                quantiser.quantise_key(
                    (op.gate.key(),), predicate.rho_local, predicate.delta
                )[0]
            )
        else:
            values.append(0.0)
        approximator.apply_gate_op(op)
    return PerGateReference(values, approximator.delta, len(classes))
