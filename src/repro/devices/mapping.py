"""Qubit mapping protocols and mapping evaluation (Section 7.2).

A *mapping* assigns each logical qubit of a circuit to a physical qubit of the
device.  Because device noise is heterogeneous, different mappings execute the
same circuit with different fidelity; Table 3 shows that Gleipnir's bounds
rank mappings consistently with measured errors, which is what makes it
usable for guiding noise-adaptive compilation.

This module provides:

* :func:`map_circuit` — remap a logical circuit onto physical qubits and route
  any non-adjacent 2-qubit gates through SWAP insertion;
* :func:`mapping_noise_model` — the calibration-driven noise model restricted
  to the device (what both the emulator and Gleipnir analyse against);
* :func:`estimate_mapping_cost` — a cheap additive error estimate;
* :func:`best_path_mapping` — the path placement that minimises that
  estimate, for chain-shaped circuits.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..circuits.circuit import Circuit
from ..circuits.transforms import decompose_swaps, route_to_coupling
from ..errors import DeviceError
from ..noise.calibration import CalibrationData, noise_model_from_calibration
from ..noise.model import NoiseModel
from .coupling import CouplingMap

__all__ = [
    "MappedCircuit",
    "map_circuit",
    "mapping_noise_model",
    "estimate_mapping_cost",
    "best_path_mapping",
]


@dataclasses.dataclass(frozen=True)
class MappedCircuit:
    """A circuit placed and routed on a device."""

    logical_circuit: Circuit
    physical_circuit: Circuit
    mapping: tuple[int, ...]
    coupling: CouplingMap

    @property
    def num_added_gates(self) -> int:
        return self.physical_circuit.gate_count() - self.logical_circuit.gate_count()

    def label(self) -> str:
        return "-".join(str(q) for q in self.mapping)


def map_circuit(
    circuit: Circuit,
    mapping: Sequence[int],
    coupling: CouplingMap,
    *,
    decompose_routing_swaps: bool = True,
) -> MappedCircuit:
    """Place a logical circuit on physical qubits and route it.

    Args:
        circuit: the logical circuit.
        mapping: ``mapping[logical] = physical``.
        coupling: the device coupling map.
        decompose_routing_swaps: expand inserted SWAPs into three CNOTs, which
            is how they execute (and get charged for noise) on hardware.
    """
    mapping = tuple(int(q) for q in mapping)
    if len(mapping) < circuit.num_qubits:
        raise DeviceError(
            f"mapping places {len(mapping)} qubits but the circuit uses {circuit.num_qubits}"
        )
    if len(set(mapping)) != len(mapping):
        raise DeviceError(f"mapping {mapping} assigns two logical qubits to one physical qubit")
    for physical in mapping:
        if physical < 0 or physical >= coupling.num_qubits:
            raise DeviceError(f"physical qubit {physical} outside the device")

    routed = route_to_coupling(
        circuit,
        coupling.edges(),
        num_physical_qubits=coupling.num_qubits,
        initial_layout=mapping[: circuit.num_qubits],
    )
    if decompose_routing_swaps:
        routed = decompose_swaps(routed)
    return MappedCircuit(
        logical_circuit=circuit,
        physical_circuit=routed,
        mapping=mapping,
        coupling=coupling,
    )


def mapping_noise_model(
    calibration: CalibrationData, *, kind: str = "depolarizing"
) -> NoiseModel:
    """The device noise model used both by the emulator and by Gleipnir."""
    return noise_model_from_calibration(calibration, kind=kind)


def estimate_mapping_cost(
    circuit: Circuit, mapping: Sequence[int], coupling: CouplingMap, calibration: CalibrationData
) -> float:
    """Cheap additive error estimate of running ``circuit`` under ``mapping``.

    Sums calibrated error rates over the gates of the routed circuit plus the
    readout errors of the qubits that carry data.  This is the kind of
    heuristic a noise-adaptive compiler uses internally; Gleipnir provides the
    verified counterpart.
    """
    mapped = map_circuit(circuit, mapping, coupling)
    total = 0.0
    for op in mapped.physical_circuit.operations():
        if op.gate.num_qubits == 1:
            total += calibration.single_qubit_error.get(op.qubits[0], 0.0)
        else:
            a, b = op.qubits
            if calibration.has_edge(a, b):
                total += calibration.edge_error(a, b)
            else:
                total += calibration.average_two_qubit_error()
    for physical in mapping[: circuit.num_qubits]:
        total += calibration.readout_error.get(physical, 0.0)
    return total


def best_path_mapping(
    circuit: Circuit,
    coupling: CouplingMap,
    calibration: CalibrationData,
    *,
    max_candidates: int = 2000,
) -> tuple[int, ...]:
    """Choose the best *path* placement for a chain-shaped circuit.

    Enumerates simple paths of the required length in the coupling graph and
    picks the one minimising :func:`estimate_mapping_cost`.  This matches the
    structure of GHZ ladders and Ising chains, where the interaction graph is
    a path.
    """
    length = circuit.num_qubits
    candidates = coupling.simple_paths(length)
    if not candidates:
        raise DeviceError(f"the device has no simple path of {length} qubits")
    if len(candidates) > max_candidates:
        candidates = candidates[:max_candidates]
    best = min(
        candidates,
        key=lambda path: estimate_mapping_cost(circuit, path, coupling, calibration),
    )
    return tuple(best)
