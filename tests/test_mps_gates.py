"""Gate application on MPS: exactness, truncation accounting, swap routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.errors import MPSError
from repro.linalg import CNOT, HADAMARD, PAULI_X, ghz_state, pure_density, trace_norm_distance
from repro.mps import MPS, split_theta, TruncationInfo
from repro.semantics import simulate_statevector

from helpers import random_circuit


class TestSingleQubitGates:
    def test_exact_and_error_free(self):
        mps = MPS.zero_state(2)
        info = mps.apply_single_qubit_gate(PAULI_X, 1)
        assert info.trace_norm_error == 0.0
        assert np.isclose(mps.amplitude("01"), 1.0)

    def test_invalid_shape(self):
        with pytest.raises(MPSError):
            MPS.zero_state(2).apply_single_qubit_gate(CNOT, 0)

    def test_site_bounds(self):
        with pytest.raises(MPSError):
            MPS.zero_state(2).apply_single_qubit_gate(PAULI_X, 5)


class TestTwoQubitGates:
    def test_ghz_with_width_two_is_exact(self):
        """The w=2 walk-through of Section 5.3."""
        mps = MPS.zero_state(2)
        mps.max_bond = 2
        mps.apply_single_qubit_gate(HADAMARD, 0)
        info = mps.apply_two_site_gate(CNOT, 0)
        assert not info.truncated
        assert np.allclose(np.abs(mps.to_statevector()), np.abs(ghz_state(2)), atol=1e-10)

    def test_ghz_with_width_one_truncates_to_sqrt2(self):
        """The w=1 walk-through of Section 5.3: output |00> and delta = sqrt(2)."""
        mps = MPS.zero_state(2)
        mps.max_bond = 1
        mps.apply_single_qubit_gate(HADAMARD, 0)
        info = mps.apply_two_site_gate(CNOT, 0)
        assert np.isclose(info.trace_norm_error, np.sqrt(2.0))
        assert np.isclose(abs(mps.amplitude("00")), 1.0)
        assert np.isclose(mps.norm(), 1.0)

    def test_gate_on_reversed_operands(self):
        mps = MPS.from_product_state("01")
        mps.apply_gate(CNOT, [1, 0])  # control is qubit 1
        assert np.isclose(abs(mps.amplitude("11")), 1.0)

    def test_distant_gate_routes_and_returns(self):
        mps = MPS.zero_state(4)
        mps.apply_single_qubit_gate(HADAMARD, 0)
        records = mps.apply_gate(CNOT, [0, 3])
        assert len(records) == 3  # two swaps + gate
        state = mps.to_statevector()
        expected = simulate_statevector(Circuit(4).h(0).cx(0, 3))
        assert np.allclose(np.abs(state), np.abs(expected), atol=1e-10)

    def test_swap_sites(self):
        """A swap moves the qubits, not the logical state."""
        mps = MPS.from_product_state("10")
        mps.swap_sites(0)
        assert mps.layout == (1, 0)
        assert np.isclose(abs(mps.amplitude("10")), 1.0)
        assert np.isclose(abs(mps.tensors[1][0, 1, 0]), 1.0)  # qubit 0 is on site 1

    def test_bad_gate_requests(self):
        mps = MPS.zero_state(3)
        with pytest.raises(MPSError):
            mps.apply_two_site_gate(np.eye(2), 0)
        with pytest.raises(MPSError):
            mps.apply_two_site_gate(CNOT, 2)
        with pytest.raises(MPSError):
            mps.apply_gate(CNOT, [1, 1])
        with pytest.raises(MPSError):
            mps.apply_gate(np.eye(8), [0, 1, 2])


class TestSplitTheta:
    def test_no_truncation_reconstructs(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        left, right, info = split_theta(theta, max_bond=4)
        rebuilt = np.einsum("lsk,ktr->lstr", left, right)
        assert np.allclose(rebuilt, theta, atol=1e-10)
        assert not info.truncated

    def test_truncation_error_matches_discarded_weight(self):
        theta = np.zeros((1, 2, 2, 1), dtype=complex)
        theta[0, 0, 0, 0] = np.sqrt(0.9)
        theta[0, 1, 1, 0] = np.sqrt(0.1)
        _, _, info = split_theta(theta, max_bond=1)
        assert np.isclose(info.discarded_weight, 0.1)
        assert np.isclose(info.trace_norm_error, 2 * np.sqrt(0.1))
        assert np.isclose(info.fidelity, 0.9)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            split_theta(np.zeros((1, 2, 2, 1)), 2)

    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch):
        """When numpy's gesdd SVD raises, the split uses LAPACK gesvd instead."""
        import scipy.linalg

        from repro.mps import truncation

        rng = np.random.default_rng(5)
        theta = rng.normal(size=(3, 2, 2, 4)) + 1j * rng.normal(size=(3, 2, 2, 4))
        theta /= np.linalg.norm(theta)
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(truncation.np.linalg, "svd", failing_svd)
        left, right, info = split_theta(theta, max_bond=3)
        monkeypatch.undo()

        assert calls
        matrix = theta.reshape(6, 8)
        u, s, vh = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")
        assert np.array_equal(left, u[:, :3].reshape(3, 2, 3))
        assert info.kept == 3
        assert info.discarded_weight == float(np.sum(s[3:] ** 2))
        kept = s[:3] * np.sqrt(info.total_weight / (info.total_weight - info.discarded_weight))
        assert np.array_equal(right, (kept[:, None] * vh[:3]).reshape(3, 2, 4))

    def test_gesdd_result_unchanged_when_it_converges(self):
        rng = np.random.default_rng(6)
        theta = rng.normal(size=(2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 3))
        left, right, _ = split_theta(theta, max_bond=4)
        u, s, vh = np.linalg.svd(theta.reshape(4, 6), full_matrices=False)
        assert np.array_equal(left, u.reshape(2, 2, 4))
        assert np.array_equal(right, (s[:, None] * vh).reshape(4, 2, 3))

    def test_records_do_not_add(self):
        with pytest.raises(TypeError):
            TruncationInfo.zero() + TruncationInfo.zero()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_wide_mps_matches_statevector(seed):
    """With an ample bond dimension the MPS evolution is exact."""
    circuit = random_circuit(5, 25, seed=seed)
    mps = MPS.zero_state(5)
    mps.max_bond = 32
    total_error = 0.0
    for op in circuit.operations():
        for record in mps.apply_gate(op.gate.matrix, list(op.qubits)):
            total_error += record.trace_norm_error
    assert total_error < 1e-9
    expected = simulate_statevector(circuit)
    overlap = abs(np.vdot(mps.to_statevector(), expected))
    assert np.isclose(overlap, 1.0, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200), width=st.integers(1, 3))
def test_truncation_error_is_sound(seed, width):
    """The accumulated truncation error bounds the true trace-norm distance."""
    circuit = random_circuit(5, 20, seed=seed)
    mps = MPS.zero_state(5)
    mps.max_bond = width
    total_error = 0.0
    for op in circuit.operations():
        for record in mps.apply_gate(op.gate.matrix, list(op.qubits)):
            total_error += record.trace_norm_error
    exact = simulate_statevector(circuit)
    actual = trace_norm_distance(pure_density(mps.to_statevector()), pure_density(exact))
    assert actual <= min(2.0, total_error) + 1e-8
