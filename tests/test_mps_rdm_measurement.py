"""Reduced density matrices and measurement collapse on MPS states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MPSError
from repro.linalg import (
    PAULI_Z,
    ghz_state,
    maximally_mixed,
    pure_density,
    random_statevector,
    reduced_density_matrix,
)
from repro.mps import MPS
from repro.semantics import simulate_statevector

from helpers import random_circuit


class TestReducedDensityMatrices:
    def test_single_site_of_ghz(self):
        mps = MPS.from_statevector(ghz_state(3))
        assert np.allclose(mps.reduced_density_matrix([1]), maximally_mixed(1), atol=1e-10)

    def test_pair_of_ghz(self):
        mps = MPS.from_statevector(ghz_state(3))
        mps.route([0, 2])  # qubits on sites 0 and 2 must be adjacent to be reduced
        rho = mps.reduced_density_matrix([0, 2])
        expected = 0.5 * (pure_density(np.array([1, 0, 0, 0.0])) + pure_density(np.array([0, 0, 0, 1.0])))
        assert np.allclose(rho, expected, atol=1e-10)

    def test_order_sensitivity(self):
        mps = MPS.from_product_state("01")
        rho_01 = mps.reduced_density_matrix([0, 1])
        rho_10 = mps.reduced_density_matrix([1, 0])
        assert np.isclose(rho_01[1, 1].real, 1.0)
        assert np.isclose(rho_10[2, 2].real, 1.0)

    def test_matches_dense_reduction(self):
        psi = random_statevector(5, rng=np.random.default_rng(7))
        mps = MPS.from_statevector(psi)
        dense = pure_density(psi)
        for qubits in ([2], [0, 3], [4, 1]):
            if len(qubits) == 2:
                mps.route(qubits)
            assert np.allclose(
                mps.reduced_density_matrix(qubits),
                reduced_density_matrix(dense, qubits),
                atol=1e-9,
            )

    def test_validation(self):
        mps = MPS.zero_state(3)
        with pytest.raises(MPSError):
            mps.reduced_density_matrix([0, 0])
        with pytest.raises(MPSError):
            mps.reduced_density_matrix([0, 1, 2])
        with pytest.raises(MPSError):
            mps.reduced_density_matrix([7])
        with pytest.raises(MPSError):
            mps.reduced_density_matrix([0, 2])  # not on adjacent sites

    def test_expectation_single(self):
        mps = MPS.from_product_state("1")
        assert np.isclose(mps.expectation_single(PAULI_Z, 0).real, -1.0)


class TestMeasurement:
    def test_outcome_probabilities_of_ghz(self):
        mps = MPS.from_statevector(ghz_state(2))
        assert np.isclose(mps.outcome_probability(0, 0), 0.5)
        assert np.isclose(mps.outcome_probability(1, 1), 0.5)

    def test_projection_collapses(self):
        mps = MPS.from_statevector(ghz_state(2))
        probability = mps.project(0, 0)
        assert np.isclose(probability, 0.5)
        assert np.isclose(abs(mps.amplitude("00")), 1.0)
        assert np.isclose(mps.norm(), 1.0)

    def test_projection_onto_impossible_outcome(self):
        mps = MPS.from_product_state("0")
        with pytest.raises(MPSError):
            mps.project(0, 1)

    def test_invalid_outcome(self):
        with pytest.raises(MPSError):
            MPS.zero_state(1).outcome_probability(0, 2)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100))
def test_rdm_matches_dense_simulation_through_circuits(seed):
    """MPS local density matrices agree with dense reductions after evolution."""
    circuit = random_circuit(4, 15, seed=seed)
    mps = MPS.zero_state(4)
    mps.max_bond = 16
    for op in circuit.operations():
        mps.apply_gate(op.gate.matrix, list(op.qubits))
    dense = pure_density(simulate_statevector(circuit))
    rng = np.random.default_rng(seed)
    a, b = rng.choice(4, size=2, replace=False)
    mps.route([int(a), int(b)])
    assert np.allclose(
        mps.reduced_density_matrix([int(a), int(b)]),
        reduced_density_matrix(dense, [int(a), int(b)]),
        atol=1e-8,
    )
