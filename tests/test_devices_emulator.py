"""Tests for the hardware emulator (the Table 3 real-device substitute)."""

import numpy as np
import pytest

from repro.config import ResourceGuard
from repro.devices import (
    CouplingMap,
    HardwareEmulator,
    boeblingen_calibration,
    map_circuit,
    uniform_calibration,
)
from repro.errors import ResourceLimitExceeded
from repro.programs import ghz_circuit


@pytest.fixture
def boeblingen():
    coupling = CouplingMap.ibm_boeblingen()
    calibration = boeblingen_calibration()
    return coupling, calibration


class TestEmulator:
    def test_noiseless_calibration_gives_zero_error(self):
        coupling = CouplingMap.linear(3)
        calibration = uniform_calibration(
            coupling, single_qubit_error=0.0, two_qubit_error=0.0, readout_error=0.0
        )
        emulator = HardwareEmulator(coupling, calibration, seed=1)
        mapped = map_circuit(ghz_circuit(3), (0, 1, 2), coupling)
        result = emulator.run(mapped, shots=None)
        assert result.measured_error < 1e-9
        assert np.allclose(result.probabilities, [0.5, 0, 0, 0, 0, 0, 0, 0.5], atol=1e-9)

    def test_noise_produces_positive_error(self, boeblingen):
        coupling, calibration = boeblingen
        emulator = HardwareEmulator(coupling, calibration, seed=2)
        mapped = map_circuit(ghz_circuit(3), (0, 1, 2), coupling)
        error = emulator.measured_error(mapped, shots=None)
        assert 0.01 < error < 0.6

    def test_shot_sampling_reproducible(self, boeblingen):
        coupling, calibration = boeblingen
        mapped = map_circuit(ghz_circuit(3), (1, 2, 3), coupling)
        first = HardwareEmulator(coupling, calibration, seed=3).run(mapped, shots=2048)
        second = HardwareEmulator(coupling, calibration, seed=3).run(mapped, shots=2048)
        assert first.counts == second.counts
        assert sum(first.counts.values()) == 2048

    def test_readout_error_increases_measured_error(self, boeblingen):
        coupling, calibration = boeblingen
        mapped = map_circuit(ghz_circuit(3), (1, 2, 3), coupling)
        emulator = HardwareEmulator(coupling, calibration, seed=4)
        with_readout = emulator.measured_error(mapped, shots=None, include_readout_error=True)
        without_readout = emulator.measured_error(mapped, shots=None, include_readout_error=False)
        assert with_readout > without_readout

    def test_compaction_keeps_problem_small(self, boeblingen):
        coupling, calibration = boeblingen
        emulator = HardwareEmulator(
            coupling, calibration, guard=ResourceGuard(max_dense_qubits=6), seed=5
        )
        mapped = map_circuit(ghz_circuit(5), (0, 1, 2, 3, 4), coupling)
        # 5 qubits used out of 20: compaction makes this feasible.
        assert emulator.measured_error(mapped, shots=None) > 0

    def test_guard_still_applies_to_large_footprints(self, boeblingen):
        coupling, calibration = boeblingen
        emulator = HardwareEmulator(
            coupling, calibration, guard=ResourceGuard(max_dense_qubits=3), seed=6
        )
        mapped = map_circuit(ghz_circuit(5), (0, 1, 2, 3, 4), coupling)
        with pytest.raises(ResourceLimitExceeded):
            emulator.run(mapped, shots=None)
