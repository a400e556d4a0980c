"""Unit tests for circuit transformation passes."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    count_gates_by_name,
    decompose_swaps,
    route_to_coupling,
)
from repro.errors import CircuitError
from repro.semantics import simulate_statevector


def states_equal_up_to_phase(a, b):
    overlap = abs(np.vdot(a, b))
    return np.isclose(overlap, 1.0, atol=1e-9)


class TestDecompositions:
    def test_decompose_swaps_preserves_semantics(self):
        circuit = Circuit(3).h(0).swap(0, 2).cx(2, 1)
        decomposed = decompose_swaps(circuit)
        assert "swap" not in count_gates_by_name(decomposed)
        assert states_equal_up_to_phase(
            simulate_statevector(circuit), simulate_statevector(decomposed)
        )

    def test_gate_counts(self):
        circuit = Circuit(2).swap(0, 1)
        assert decompose_swaps(circuit).gate_count() == 3


class TestRouting:
    def test_routing_respects_coupling(self):
        circuit = Circuit(3).h(0).cx(0, 2)
        routed = route_to_coupling(circuit, [(0, 1), (1, 2)])
        for op in routed.operations():
            if op.gate.num_qubits == 2 and op.gate.name != "swap":
                assert tuple(sorted(op.qubits)) in {(0, 1), (1, 2)}
        # A swap must have been inserted.
        assert count_gates_by_name(routed).get("swap", 0) >= 1

    def test_routing_preserves_adjacent_gates(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        routed = route_to_coupling(circuit, [(0, 1)])
        assert routed.gate_count() == 2

    def test_routing_with_layout(self):
        circuit = Circuit(2).cx(0, 1)
        routed = route_to_coupling(circuit, [(3, 4)], num_physical_qubits=5, initial_layout=[3, 4])
        op = next(iter(routed.operations()))
        assert op.qubits == (3, 4)

    def test_routing_disconnected_fails(self):
        circuit = Circuit(2).cx(0, 1)
        with pytest.raises(CircuitError):
            route_to_coupling(circuit, [], num_physical_qubits=2)

    def test_routing_bad_layout(self):
        circuit = Circuit(2).cx(0, 1)
        with pytest.raises(CircuitError):
            route_to_coupling(circuit, [(0, 1)], initial_layout=[0, 0])

    def test_count_gates_by_name(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1)
        assert count_gates_by_name(circuit) == {"h": 2, "cx": 1}
