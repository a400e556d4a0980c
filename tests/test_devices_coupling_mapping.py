"""Tests for coupling maps and qubit-mapping protocols."""

import pytest

from repro.devices import (
    CouplingMap,
    best_path_mapping,
    boeblingen_calibration,
    estimate_mapping_cost,
    map_circuit,
)
from repro.errors import DeviceError
from repro.programs import ghz_circuit


class TestCouplingMap:
    def test_linear(self):
        coupling = CouplingMap.linear(4)
        assert coupling.has_edge(1, 2)
        assert not coupling.has_edge(0, 2)
        assert coupling.distance(0, 3) == 3
        assert coupling.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_ring_and_grid(self):
        assert CouplingMap.ring(5).distance(0, 4) == 1
        grid = CouplingMap.grid(2, 3)
        assert grid.num_qubits == 6
        assert grid.has_edge(0, 3)

    def test_boeblingen_shape(self):
        """Figure 15: 20 qubits, row edges plus alternating vertical links."""
        coupling = CouplingMap.ibm_boeblingen()
        assert coupling.num_qubits == 20
        assert coupling.has_edge(0, 1)
        assert coupling.has_edge(1, 6)
        assert coupling.has_edge(13, 18)
        assert not coupling.has_edge(0, 5)
        assert coupling.is_connected_path([0, 1, 2, 3, 4])

    def test_lima_shape(self):
        coupling = CouplingMap.ibm_lima()
        assert coupling.num_qubits == 5
        assert coupling.degree(1) == 3
        assert coupling.has_edge(3, 4)

    def test_simple_paths(self):
        coupling = CouplingMap.linear(4)
        paths = coupling.simple_paths(3)
        assert [0, 1, 2] in paths and [3, 2, 1] in paths
        assert coupling.simple_paths(1) == [[0], [1], [2], [3]]

    def test_validation(self):
        with pytest.raises(DeviceError):
            CouplingMap(2, [(0, 5)])
        with pytest.raises(DeviceError):
            CouplingMap(2, [(0, 0)])
        with pytest.raises(DeviceError):
            CouplingMap(0, [])
        disconnected = CouplingMap(3, [(0, 1)])
        with pytest.raises(DeviceError):
            disconnected.distance(0, 2)


class TestMapping:
    def test_map_circuit_adjacent(self):
        coupling = CouplingMap.ibm_boeblingen()
        mapped = map_circuit(ghz_circuit(3), (1, 2, 3), coupling)
        assert mapped.num_added_gates == 0
        assert mapped.label() == "1-2-3"
        for op in mapped.physical_circuit.operations():
            if op.gate.num_qubits == 2:
                assert coupling.has_edge(*op.qubits)

    def test_map_circuit_with_routing(self):
        coupling = CouplingMap.linear(5)
        circuit = ghz_circuit(3).copy()
        mapped = map_circuit(circuit, (0, 2, 4), coupling)
        assert mapped.num_added_gates > 0
        for op in mapped.physical_circuit.operations():
            if op.gate.num_qubits == 2:
                assert coupling.has_edge(*op.qubits)

    def test_mapping_validation(self):
        coupling = CouplingMap.linear(3)
        with pytest.raises(DeviceError):
            map_circuit(ghz_circuit(3), (0, 1), coupling)
        with pytest.raises(DeviceError):
            map_circuit(ghz_circuit(3), (0, 0, 1), coupling)
        with pytest.raises(DeviceError):
            map_circuit(ghz_circuit(3), (0, 1, 7), coupling)


class TestMappingProtocols:
    def test_estimate_cost_prefers_quiet_edges(self):
        coupling = CouplingMap.ibm_boeblingen()
        calibration = boeblingen_calibration()
        circuit = ghz_circuit(3)
        noisy_cost = estimate_mapping_cost(circuit, (0, 1, 2), coupling, calibration)
        quiet_cost = estimate_mapping_cost(circuit, (1, 2, 3), coupling, calibration)
        assert quiet_cost < noisy_cost

    def test_best_path_mapping_picks_minimum(self):
        coupling = CouplingMap.ibm_boeblingen()
        calibration = boeblingen_calibration()
        circuit = ghz_circuit(3)
        best = best_path_mapping(circuit, coupling, calibration)
        best_cost = estimate_mapping_cost(circuit, best, coupling, calibration)
        for candidate in [(0, 1, 2), (1, 2, 3), (2, 3, 4)]:
            assert best_cost <= estimate_mapping_cost(circuit, candidate, coupling, calibration) + 1e-12
