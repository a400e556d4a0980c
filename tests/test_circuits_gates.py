"""Unit tests for the gate library."""

import numpy as np
import pytest

from repro.circuits import gate_by_name, available_gates
from repro.circuits import gates as gate_lib
from repro.errors import GateError
from repro.linalg import CNOT, HADAMARD, is_unitary


class TestGateConstruction:
    def test_standard_gates_are_unitary(self):
        for name in ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx", "cz", "swap", "iswap"):
            gate = gate_by_name(name)
            assert is_unitary(gate.matrix)
            assert gate.dim == 2**gate.num_qubits

    def test_parametric_gates(self):
        gate = gate_by_name("rz", 0.5)
        assert gate.params == (0.5,)
        assert is_unitary(gate.matrix)

    def test_unknown_gate(self):
        with pytest.raises(GateError):
            gate_by_name("foo")

    def test_fixed_gate_rejects_params(self):
        with pytest.raises(GateError):
            gate_by_name("h", 0.3)

    def test_custom_gate(self):
        gate = gate_lib.custom_gate("mycx", CNOT)
        assert gate.num_qubits == 2
        assert gate.name == "mycx"

    def test_custom_gate_rejects_bad_dim(self):
        with pytest.raises(GateError):
            gate_lib.custom_gate("bad", np.eye(3))

    def test_non_unitary_rejected(self):
        with pytest.raises(GateError):
            gate_lib.custom_gate("bad", np.array([[1, 0], [0, 2]]))

    def test_available_gates_contains_core_set(self):
        names = available_gates()
        for required in ("h", "cx", "rz", "rzz", "swap"):
            assert required in names


class TestGateBehaviour:
    def test_equality_ignores_matrix_identity(self):
        assert gate_lib.h() == gate_lib.h()
        assert gate_lib.rz(0.5) == gate_lib.rz(0.5)
        assert gate_lib.rz(0.5) != gate_lib.rz(0.6)
        assert hash(gate_lib.rz(0.5)) == hash(gate_lib.rz(0.5))

    def test_dagger(self):
        dagger = gate_lib.s().dagger()
        assert np.allclose(dagger.matrix @ gate_lib.s().matrix, np.eye(2))
        assert dagger.name.endswith("_dg")
        assert gate_lib.rz(0.3).dagger().params == (-0.3,)

    def test_label(self):
        assert gate_lib.h().label() == "h"
        assert gate_lib.rz(0.5).label() == "rz(0.5)"

    def test_fixed_gates_are_shared_by_name(self):
        assert gate_by_name("H") is gate_by_name("h")
        assert gate_by_name("h").matrix is gate_lib.h().matrix

    @pytest.mark.parametrize("name", ["h", "x", "cx", "id", "iswap"])
    def test_shared_matrices_are_read_only(self, name):
        with pytest.raises(ValueError):
            gate_by_name(name).matrix[0, 0] = 0
        assert is_unitary(gate_by_name(name).matrix)

    def test_matrices_match_linalg(self):
        assert np.allclose(gate_lib.h().matrix, HADAMARD)
        assert np.allclose(gate_lib.cx().matrix, CNOT)

    def test_rzz_matches_cx_rz_cx(self):
        theta = 0.7
        rzz = gate_lib.rzz(theta).matrix
        cx = gate_lib.cx().matrix
        rz_on_target = np.kron(np.eye(2), gate_lib.rz(theta).matrix)
        assert np.allclose(rzz, cx @ rz_on_target @ cx)
