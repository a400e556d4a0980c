"""Unit tests for repro.linalg.states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.linalg import (
    basis_state,
    bloch_vector,
    density_from_bloch,
    density_matrix,
    ghz_state,
    is_density_matrix,
    is_normalized,
    maximally_entangled,
    maximally_mixed,
    num_qubits_of,
    plus_state,
    product_density,
    pure_density,
    purity,
    random_density_matrix,
    random_statevector,
    state_overlap,
    w_state,
    zero_state,
)


class TestBasisStates:
    def test_basis_state_string(self):
        state = basis_state("10")
        assert state.shape == (4,)
        assert state[2] == 1.0

    def test_basis_state_sequence(self):
        assert np.allclose(basis_state([0, 1]), basis_state("01"))

    def test_qubit_zero_is_most_significant(self):
        state = basis_state("100")
        assert state[4] == 1.0

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            basis_state("102")

    def test_zero_state(self):
        assert zero_state(3)[0] == 1.0
        assert np.count_nonzero(zero_state(3)) == 1

    def test_zero_state_requires_qubits(self):
        with pytest.raises(ValueError):
            zero_state(0)

    def test_plus_state_uniform(self):
        state = plus_state(2)
        assert np.allclose(np.abs(state) ** 2, 0.25)


class TestNamedStates:
    def test_ghz_state(self):
        state = ghz_state(3)
        assert np.isclose(abs(state[0]) ** 2, 0.5)
        assert np.isclose(abs(state[-1]) ** 2, 0.5)
        assert is_normalized(state)

    def test_w_state(self):
        state = w_state(3)
        nonzero = np.nonzero(np.abs(state) > 1e-12)[0]
        assert sorted(nonzero) == [1, 2, 4]
        assert is_normalized(state)

    def test_maximally_mixed(self):
        rho = maximally_mixed(2)
        assert np.isclose(np.trace(rho).real, 1.0)
        assert np.isclose(purity(rho), 0.25)

    def test_maximally_entangled_norm(self):
        assert np.isclose(np.linalg.norm(maximally_entangled(4)), 1.0)
        assert np.isclose(np.linalg.norm(maximally_entangled(4, normalized=False)), 2.0)


class TestDensityMatrices:
    def test_pure_density_is_projector(self):
        rho = pure_density(ghz_state(2))
        assert np.allclose(rho @ rho, rho)
        assert is_density_matrix(rho)

    def test_density_matrix_passthrough(self):
        rho = maximally_mixed(1)
        assert density_matrix(rho) is not None
        assert np.allclose(density_matrix(rho), rho)

    def test_density_matrix_rejects_bad_shape(self):
        with pytest.raises(SimulationError):
            density_matrix(np.zeros((2, 3)))

    def test_product_density(self):
        rho = product_density("01")
        assert np.isclose(rho[1, 1].real, 1.0)

    def test_is_density_matrix_rejects_nonpsd(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        assert not is_density_matrix(bad)

    def test_purity_of_pure_state(self):
        assert np.isclose(purity(random_statevector(2, rng=np.random.default_rng(0))), 1.0)


class TestFidelityAndOverlap:
    def test_state_overlap(self):
        assert np.isclose(state_overlap(plus_state(1), zero_state(1)), 1 / np.sqrt(2))


class TestBloch:
    def test_bloch_roundtrip(self):
        rho = density_from_bloch([0.3, -0.2, 0.4])
        assert np.allclose(bloch_vector(rho), [0.3, -0.2, 0.4])

    def test_bloch_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            density_from_bloch([1.0, 1.0, 1.0])

    def test_bloch_requires_single_qubit(self):
        with pytest.raises(SimulationError):
            bloch_vector(maximally_mixed(2))


class TestInference:
    def test_num_qubits_of(self):
        assert num_qubits_of(zero_state(4)) == 4
        assert num_qubits_of(maximally_mixed(3)) == 3

    def test_num_qubits_of_rejects_non_power(self):
        with pytest.raises(SimulationError):
            num_qubits_of(np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(num_qubits=st.integers(min_value=1, max_value=3), seed=st.integers(0, 1000))
def test_random_density_matrices_are_valid(num_qubits, seed):
    rho = random_density_matrix(num_qubits, rng=np.random.default_rng(seed))
    assert is_density_matrix(rho)


@settings(max_examples=25, deadline=None)
@given(num_qubits=st.integers(min_value=1, max_value=4), seed=st.integers(0, 1000))
def test_random_statevectors_are_normalised(num_qubits, seed):
    psi = random_statevector(num_qubits, rng=np.random.default_rng(seed))
    assert is_normalized(psi)
