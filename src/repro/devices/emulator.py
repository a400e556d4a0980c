"""Hardware emulator: the stand-in for the paper's real-device runs (Table 3).

The paper measures the "real" error of a mapped GHZ circuit by running it on
IBM Boeblingen and computing the statistical (total-variation) distance
between the measured output distribution and the ideal one.  Offline, we
reproduce that pipeline with an emulator:

1. the mapped physical circuit is *compacted* onto the qubits it actually
   touches (so a 20-qubit device never forces a 2**20 density matrix);
2. the compacted circuit is simulated under the calibration-driven noise
   model with the exact noisy density-matrix semantics;
3. per-qubit readout (assignment) errors are applied to the outcome
   distribution;
4. optionally, a finite number of shots is sampled to add statistical noise,
   as a real run would.

The emulator's "measured error" is the total-variation distance between the
resulting distribution (marginalised onto the logical qubits, in logical
order) and the ideal distribution of the logical circuit — exactly the
quantity Gleipnir's trace-distance bound must dominate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..circuits.circuit import Circuit
from ..config import ResourceGuard
from ..errors import DeviceError
from ..linalg.norms import statistical_distance
from ..noise.calibration import CalibrationData
from ..noise.model import NoiseModel
from ..semantics.measurement import (
    apply_readout_error,
    marginal_distribution,
    outcome_probabilities,
    sample_counts,
)
from ..semantics.noisy import NoisyDensityMatrixSimulator
from .coupling import CouplingMap
from .mapping import MappedCircuit, mapping_noise_model

__all__ = ["EmulationResult", "HardwareEmulator"]


@dataclasses.dataclass
class EmulationResult:
    """Outcome of one emulated device run."""

    probabilities: np.ndarray
    counts: dict[str, int] | None
    measured_error: float
    logical_qubits: tuple[int, ...]
    shots: int | None


class HardwareEmulator:
    """Noisy execution of mapped circuits under calibration-driven noise."""

    def __init__(
        self,
        coupling: CouplingMap,
        calibration: CalibrationData,
        *,
        noise_kind: str = "depolarizing",
        guard: ResourceGuard | None = None,
        seed: int | None = None,
    ):
        self.coupling = coupling
        self.calibration = calibration
        self.noise_kind = noise_kind
        self.guard = guard or ResourceGuard()
        self._rng = np.random.default_rng(seed)
        self._device_noise = mapping_noise_model(calibration, kind=noise_kind)

    # -- compaction --------------------------------------------------------------
    def _compact(self, physical_circuit: Circuit) -> tuple[Circuit, dict[int, int]]:
        """Restrict the circuit to the physical qubits it touches.

        Returns the compacted circuit (on qubits 0..k-1) and the map from
        physical qubit to compact index.
        """
        used = sorted(physical_circuit.to_program().qubits_used())
        if not used:
            raise DeviceError("the circuit applies no gates")
        index_of = {physical: compact for compact, physical in enumerate(used)}
        compact = Circuit(len(used), name=f"{physical_circuit.name}_compact")
        for op in physical_circuit.operations():
            compact.append(op.gate, *(index_of[q] for q in op.qubits))
        return compact, index_of

    def _compact_noise_model(self, index_of: dict[int, int]) -> NoiseModel:
        """Device noise model re-keyed to compacted qubit indices."""
        physical_of = {compact: physical for physical, compact in index_of.items()}
        device = self._device_noise

        def factory(gate, qubits):
            physical = tuple(physical_of[q] for q in qubits)
            return device.channel_for(gate, physical)

        return NoiseModel.from_factory(factory, name=f"{device.name}@compact")

    # -- execution ------------------------------------------------------------------
    def run(
        self,
        mapped: MappedCircuit,
        *,
        shots: int | None = 8192,
        include_readout_error: bool = True,
    ) -> EmulationResult:
        """Emulate a mapped circuit and report its measured error.

        The measured error compares the distribution over the circuit's
        *logical* qubits (read out at their mapped physical locations, in
        logical order) against the ideal distribution of the logical circuit.
        """
        compact, index_of = self._compact(mapped.physical_circuit)
        self.guard.check_dense_qubits(compact.num_qubits, what="hardware emulation")

        noise_model = self._compact_noise_model(index_of)
        simulator = NoisyDensityMatrixSimulator(noise_model, self.guard)
        rho = simulator.run(compact)
        probabilities = outcome_probabilities(rho)

        if include_readout_error:
            readout = {
                compact_index: self.calibration.readout_error.get(physical, 0.0)
                for physical, compact_index in index_of.items()
            }
            probabilities = apply_readout_error(probabilities, readout)

        # Marginalise onto the logical qubits (at their mapped physical homes),
        # ordered logically, so the distribution is comparable to the ideal one.
        logical_physical = mapped.mapping[: mapped.logical_circuit.num_qubits]
        compact_positions = [index_of[p] for p in logical_physical]
        logical_probabilities = marginal_distribution(probabilities, compact_positions)

        counts = None
        effective = logical_probabilities
        if shots is not None:
            counts = sample_counts(logical_probabilities, shots, rng=self._rng)
            total = sum(counts.values())
            sampled = np.zeros_like(logical_probabilities)
            n = mapped.logical_circuit.num_qubits
            for bitstring, hits in counts.items():
                sampled[int(bitstring, 2)] = hits / total
            effective = sampled

        ideal = self._ideal_distribution(mapped.logical_circuit)
        measured_error = statistical_distance(effective, ideal)
        return EmulationResult(
            probabilities=logical_probabilities,
            counts=counts,
            measured_error=float(measured_error),
            logical_qubits=tuple(range(mapped.logical_circuit.num_qubits)),
            shots=shots,
        )

    def _ideal_distribution(self, logical_circuit: Circuit) -> np.ndarray:
        from ..semantics.statevector import StatevectorSimulator

        state = StatevectorSimulator(self.guard).run(logical_circuit)
        return np.abs(state) ** 2

    def measured_error(
        self,
        mapped: MappedCircuit,
        *,
        shots: int | None = 8192,
        include_readout_error: bool = True,
    ) -> float:
        """Convenience wrapper returning only the measured error."""
        return self.run(
            mapped, shots=shots, include_readout_error=include_readout_error
        ).measured_error
