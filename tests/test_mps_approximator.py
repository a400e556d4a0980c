"""Tests for the TN(rho0, P) approximator: exactness, soundness, branching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.errors import MPSError
from repro.linalg import ghz_state, pure_density, trace_norm_distance
from repro.mps import MPS, MPSApproximator
from repro.semantics import simulate_density, simulate_statevector

from helpers import random_circuit


class TestBasics:
    def test_ghz_exact_with_width_two(self, ghz2_circuit):
        approx = MPSApproximator.zero_state(2, width=2)
        approx.apply_circuit(ghz2_circuit)
        assert approx.delta == 0.0
        assert np.allclose(np.abs(approx.mps.to_statevector()), np.abs(ghz_state(2)), atol=1e-10)

    def test_ghz_width_one_matches_paper_example(self, ghz2_circuit):
        """Section 5.3: w=1 yields |00> with approximation error sqrt(2)."""
        approx = MPSApproximator.zero_state(2, width=1)
        added = approx.apply_circuit(ghz2_circuit)
        assert np.isclose(approx.delta, np.sqrt(2.0))
        assert added == approx.delta
        assert np.isclose(abs(approx.mps.amplitude("00")), 1.0)

    def test_initial_bits(self):
        approx = MPSApproximator.from_product_state("10", width=4)
        approx.apply_circuit(Circuit(2).cx(0, 1))
        assert np.isclose(abs(approx.mps.amplitude("11")), 1.0)

    def test_bad_initial_bits(self):
        for bits in ("", "02", [0, -1]):
            with pytest.raises(MPSError):
                MPSApproximator.from_product_state(bits, width=2)

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

    def test_apply_circuit_returns_added_truncation(self):
        approx = MPSApproximator.zero_state(3, width=1)
        approx.weaken_to(0.25)
        added = approx.apply_circuit(Circuit(3).h(0).cx(0, 1).cx(1, 2))
        assert added > 0
        assert approx.delta == min(2.0, 0.25 + added)

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
        approx = MPSApproximator.zero_state(2, width=4)
        approx.apply_circuit(Circuit(2).h(0))
        branches = approx.branch_on_measurement(0)
        assert len(branches) == 2
        assert np.isclose(sum(probability for _, probability, _ in branches), 1.0)
        assert all(child.delta == approx.delta for _, _, child in branches)
        for outcome, _, child in branches:
            child.apply_circuit(Circuit(2).x(1) if outcome == 0 else Circuit(2).z(1))
            assert np.isclose(abs(child.mps.amplitude(f"{outcome}{1 - outcome}")), 1.0)


class TestSoundness:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100), width=st.integers(1, 4))
    def test_delta_bounds_true_distance(self, seed, width):
        """Theorem 5.1: ||TN output - ideal output||_1 <= delta."""
        circuit = random_circuit(5, 18, seed=seed)
        approximator = MPSApproximator.zero_state(5, width=width)
        approximator.apply_circuit(circuit)
        ideal = pure_density(simulate_statevector(circuit))
        approx = pure_density(approximator.mps.to_statevector())
        actual = trace_norm_distance(approx, ideal)
        assert actual <= approximator.delta + 1e-8

    def test_branchy_program_delta_bounds_distance(self):
        # Program: H; if q0 then X(1) else skip; then H(1) afterwards.
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1))
        circuit.h(1)
        approx = MPSApproximator.zero_state(2, width=4)
        approx.apply_circuit(Circuit(2).h(0))
        # Combine the branch outputs into the classical mixture of Figure 3;
        # each branch's δ bounds its own output, so the largest bounds the mixture.
        mixture = np.zeros((4, 4), dtype=complex)
        deltas = []
        for outcome, probability, child in approx.branch_on_measurement(0):
            child.apply_circuit(Circuit(2).x(1).h(1) if outcome == 0 else Circuit(2).h(1))
            mixture += probability * pure_density(child.mps.to_statevector())
            deltas.append(child.delta)
        exact = simulate_density(circuit)
        assert trace_norm_distance(mixture, exact) <= max(deltas) + 1e-8
