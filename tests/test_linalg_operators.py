"""Unit tests for repro.linalg.operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GateError
from repro.linalg import (
    CNOT,
    CZ,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SWAP,
    anticommutator,
    basis_state,
    commutator,
    controlled,
    embed_operator,
    expand_to_adjacent,
    is_hermitian,
    is_unitary,
    kron_all,
    operator_from_function,
    pauli_matrix,
    pauli_string_matrix,
    random_unitary,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    rzz_matrix,
    u3_matrix,
)


class TestStandardMatrices:
    def test_paulis_are_hermitian_unitary(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            assert is_hermitian(pauli)
            assert is_unitary(pauli)

    def test_pauli_algebra(self):
        assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)
        assert np.allclose(anticommutator(PAULI_X, PAULI_X), 2 * np.eye(2))

    def test_hadamard_maps_z_to_x(self):
        assert np.allclose(HADAMARD @ PAULI_Z @ HADAMARD, PAULI_X)

    def test_cnot_action(self):
        assert np.allclose(CNOT @ basis_state("10"), basis_state("11"))
        assert np.allclose(CNOT @ basis_state("01"), basis_state("01"))

    def test_swap_action(self):
        assert np.allclose(SWAP @ basis_state("10"), basis_state("01"))

    def test_cz_symmetric(self):
        assert np.allclose(CZ, CZ.T)

    def test_pauli_matrix_lookup(self):
        assert np.allclose(pauli_matrix("x"), PAULI_X)
        with pytest.raises(GateError):
            pauli_matrix("Q")

    def test_pauli_string(self):
        assert np.allclose(pauli_string_matrix("XZ"), np.kron(PAULI_X, PAULI_Z))
        with pytest.raises(GateError):
            pauli_string_matrix("")


class TestRotations:
    @pytest.mark.parametrize("factory", [rx_matrix, ry_matrix, rz_matrix])
    def test_rotations_are_unitary(self, factory):
        assert is_unitary(factory(0.7))

    def test_rotation_at_zero_is_identity(self):
        assert np.allclose(rx_matrix(0.0), np.eye(2))

    def test_rx_pi_is_x_up_to_phase(self):
        assert np.allclose(rx_matrix(np.pi), -1j * PAULI_X)

    def test_rzz_diagonal(self):
        mat = rzz_matrix(0.3)
        assert np.allclose(mat, np.diag(np.diag(mat)))
        assert is_unitary(mat)

    def test_u3_generic(self):
        assert is_unitary(u3_matrix(0.3, 0.8, -1.2))

    def test_controlled(self):
        assert np.allclose(controlled(PAULI_X), CNOT)


class TestEmbedding:
    def test_embed_matches_kron_for_adjacent(self):
        embedded = embed_operator(CNOT, [0, 1], 3)
        expected = np.kron(CNOT, np.eye(2))
        assert np.allclose(embedded, expected)

    def test_expand_to_adjacent(self):
        assert np.allclose(expand_to_adjacent(PAULI_X, 1, 3), np.kron(np.kron(np.eye(2), PAULI_X), np.eye(2)))

    def test_embed_reversed_qubits(self):
        # CNOT with control=1, target=0 flips qubit 0 when qubit 1 is set.
        embedded = embed_operator(CNOT, [1, 0], 2)
        assert np.allclose(embedded @ basis_state("01"), basis_state("11"))
        assert np.allclose(embedded @ basis_state("10"), basis_state("10"))

    def test_embed_non_adjacent(self):
        embedded = embed_operator(CNOT, [0, 2], 3)
        assert np.allclose(embedded @ basis_state("100"), basis_state("101"))
        assert np.allclose(embedded @ basis_state("010"), basis_state("010"))

    def test_embed_preserves_unitarity(self):
        embedded = embed_operator(random_unitary(4, rng=np.random.default_rng(3)), [2, 0], 3)
        assert is_unitary(embedded)

    def test_embed_rejects_duplicates(self):
        with pytest.raises(GateError):
            embed_operator(CNOT, [1, 1], 3)

    def test_embed_rejects_out_of_range(self):
        with pytest.raises(GateError):
            embed_operator(PAULI_X, [5], 3)

    def test_embed_shape_mismatch(self):
        with pytest.raises(GateError):
            embed_operator(PAULI_X, [0, 1], 3)


class TestHelpers:
    def test_kron_all(self):
        assert kron_all([PAULI_X]).shape == (2, 2)
        assert kron_all([PAULI_X, PAULI_Z]).shape == (4, 4)
        with pytest.raises(GateError):
            kron_all([])

    def test_operator_from_function(self):
        op = operator_from_function(2, lambda bits: bits[0] + bits[1])
        assert np.allclose(np.diag(op), [0, 1, 1, 2])

    def test_random_unitary_is_unitary(self):
        assert is_unitary(random_unitary(8, rng=np.random.default_rng(0)))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 500),
    num_qubits=st.integers(2, 4),
)
def test_embedding_is_multiplicative(seed, num_qubits):
    """Embedding commutes with composition: embed(UV) = embed(U) embed(V)."""
    rng = np.random.default_rng(seed)
    qubits = list(rng.choice(num_qubits, size=2, replace=False))
    u = random_unitary(4, rng=rng)
    v = random_unitary(4, rng=rng)
    lhs = embed_operator(u @ v, qubits, num_qubits)
    rhs = embed_operator(u, qubits, num_qubits) @ embed_operator(v, qubits, num_qubits)
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dim=st.sampled_from([1, 2, 4, 8]),
    atol=st.sampled_from([1e-12, 1e-9, 1e-7, 1e-4]),
    scale=st.sampled_from([0.0, 0.5, 1.0, 2.0, None]),
    direction=st.sampled_from([1, -1, 1j, -1j]),
    planted=st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.inf)]),
)
def test_is_unitary_means_allclose(seed, dim, atol, scale, direction, planted):
    """The fused check is ``np.allclose(M†M, I, atol=atol)``, bit for bit.

    ``scale`` perturbs one entry by 0, a/2, a or 2a (None: by 1e-5), at and
    around the tolerance edge; ``planted`` puts a non-finite value in another.
    """
    rng = np.random.default_rng(seed)
    matrix = random_unitary(dim, rng=rng)
    row, col = rng.integers(dim, size=2)
    matrix[row, col] += direction * (1e-5 if scale is None else scale * atol)
    if planted is not None:
        row, col = rng.integers(dim, size=2)
        matrix[row, col] = planted
    with np.errstate(invalid="ignore"):
        expected = np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=atol)
        assert is_unitary(matrix, atol=atol) == expected
