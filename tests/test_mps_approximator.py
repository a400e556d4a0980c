"""Tests for the TN(rho0, P) approximator: exactness, soundness, branching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.errors import MPSError
from repro.linalg import ghz_state, pure_density, trace_norm_distance
from repro.mps import MPS, MPSApproximator, approximate_program
from repro.semantics import simulate_density, simulate_statevector

from helpers import random_circuit


class TestBasics:
    def test_ghz_exact_with_width_two(self, ghz2_circuit):
        result = approximate_program(ghz2_circuit, width=2)
        assert result.delta == 0.0
        assert np.allclose(np.abs(result.mps.to_statevector()), np.abs(ghz_state(2)), atol=1e-10)

    def test_ghz_width_one_matches_paper_example(self, ghz2_circuit):
        """Section 5.3: w=1 yields |00> with approximation error sqrt(2)."""
        result = approximate_program(ghz2_circuit, width=1)
        assert np.isclose(result.delta, np.sqrt(2.0))
        assert np.isclose(abs(result.mps.amplitude("00")), 1.0)

    def test_initial_bits(self):
        circuit = Circuit(2).cx(0, 1)
        result = approximate_program(circuit, initial_bits="10", width=4)
        assert np.isclose(abs(result.mps.amplitude("11")), 1.0)

    def test_bad_initial_bits(self):
        with pytest.raises(MPSError):
            approximate_program(Circuit(2).h(0), initial_bits="0", width=2)

    def test_local_predicate(self, ghz3_circuit):
        approx = MPSApproximator.zero_state(3, width=8)
        approx.apply_circuit(ghz3_circuit)
        predicate = approx.local_predicate([0, 2])
        assert predicate.rho_local.shape == (4, 4)
        assert predicate.delta == approx.delta
        assert predicate.qubits == (0, 2)

    def test_weaken_to(self):
        approx = MPSApproximator.zero_state(2, width=2)
        approx.weaken_to(1.5)
        assert approx.delta == 1.5
        with pytest.raises(MPSError):
            approx.weaken_to(0.5)

    def test_weaken_to_cap_past_saturation(self):
        """Once the accumulated truncation exceeds 2, ``delta`` reports the
        cap and weakening to it is allowed."""
        approx = MPSApproximator(MPS.zero_state(2, max_bond=2), delta=2.5)
        assert approx.delta == 2.0
        assert approx.weaken_to(2.0) is approx
        assert approx.delta == 2.0
        with pytest.raises(MPSError):
            approx.weaken_to(1.5)

    def test_truncation_history(self):
        approx = MPSApproximator.zero_state(3, width=1)
        approx.apply_circuit(Circuit(3).h(0).cx(0, 1).cx(1, 2))
        assert len(approx.truncation_history) >= 2
        assert approx.delta > 0

    def test_from_statevector_carries_initial_error(self):
        approx = MPSApproximator.from_statevector(ghz_state(4), width=1)
        assert approx.delta > 0


class TestBranching:
    def test_branch_on_measurement(self, ghz2_circuit):
        approx = MPSApproximator.zero_state(2, width=4)
        approx.apply_circuit(ghz2_circuit)
        branches = approx.branch_on_measurement(0)
        assert len(branches) == 2
        outcomes = {outcome for outcome, _, _ in branches}
        assert outcomes == {0, 1}
        for outcome, probability, child in branches:
            assert np.isclose(probability, 0.5)
            assert np.isclose(abs(child.mps.amplitude(f"{outcome}{outcome}")), 1.0)

    def test_unreachable_branch_not_returned(self):
        approx = MPSApproximator.zero_state(1, width=2)
        branches = approx.branch_on_measurement(0)
        assert len(branches) == 1
        assert branches[0][0] == 0

    def test_program_with_if(self):
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1), lambda c: c.z(1))
        result = approximate_program(circuit, width=4)
        assert result.num_branches() == 2
        assert np.isclose(sum(b.probability for b in result.branches), 1.0)

    def test_single_branch_accessor_requires_branch_free(self):
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1))
        result = approximate_program(circuit, width=4)
        with pytest.raises(MPSError):
            _ = result.approximator


class TestSoundness:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100), width=st.integers(1, 4))
    def test_delta_bounds_true_distance(self, seed, width):
        """Theorem 5.1: ||TN output - ideal output||_1 <= delta."""
        circuit = random_circuit(5, 18, seed=seed)
        result = approximate_program(circuit, width=width)
        ideal = pure_density(simulate_statevector(circuit))
        approx = pure_density(result.mps.to_statevector())
        actual = trace_norm_distance(approx, ideal)
        assert actual <= result.delta + 1e-8

    def test_branchy_program_delta_bounds_distance(self):
        # Program: H; if q0 then X(1) else skip; then H(1) afterwards.
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1))
        circuit.h(1)
        result = approximate_program(circuit, width=4)
        # Combine the branch outputs into the classical mixture of Figure 3.
        mixture = np.zeros((4, 4), dtype=complex)
        for branch in result.branches:
            mixture += branch.probability * pure_density(branch.approximator.mps.to_statevector())
        exact = simulate_density(circuit)
        assert trace_norm_distance(mixture, exact) <= result.delta + 1e-8
