"""Tests for the diamond-norm engine: known values, soundness, reductions."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import analyze_program
from repro.errors import SDPError
from repro.linalg import (
    CNOT,
    HADAMARD,
    identity_channel,
    maximally_mixed,
    plus_state,
    pure_density,
    random_unitary,
    unitary_channel,
    zero_state,
)
from repro.noise import (
    NoiseModel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    phase_flip,
    two_qubit_depolarizing,
)
from repro.sdp import (
    GateBoundCache,
    constrained_diamond_lower_bound,
    constrained_diamond_norm,
    diamond_distance,
    diamond_lower_bound,
    gate_error_bound,
    q_lambda_diamond_norm,
    rho_delta_constraint_bound,
    rho_delta_diamond_norm,
    verify_certificate,
)


CFG = SDPConfig(max_iterations=600, tolerance=1e-6)
REFERENCE_BOUNDS = Path(__file__).resolve().parent / "fixtures" / "reference_bounds_admm.json"


class TestUnconstrainedDiamond:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_bit_flip_distance_is_p(self, p):
        bound = diamond_distance(bit_flip(p), identity_channel(1), config=CFG)
        assert np.isclose(bound.value, p, atol=1e-6)

    def test_phase_flip_distance(self):
        bound = diamond_distance(phase_flip(0.3), identity_channel(1), config=CFG)
        assert np.isclose(bound.value, 0.3, atol=1e-6)

    def test_identical_channels(self):
        bound = diamond_distance(bit_flip(0.1), bit_flip(0.1), config=CFG)
        assert bound.value <= 1e-9

    def test_certificate_is_verifiable(self):
        bound = diamond_distance(depolarizing(0.2), identity_channel(1), config=CFG)
        assert verify_certificate(bound.certificate, bound.choi)

    def test_dominates_brute_force(self):
        noisy = amplitude_damping(0.3)
        ideal = identity_channel(1)
        bound = diamond_distance(noisy, ideal, config=CFG)
        lower = diamond_lower_bound(noisy, ideal)
        assert bound.value >= lower - 1e-7
        assert bound.value <= lower + 0.05  # and reasonably tight

    def test_fast_mode(self):
        fast = SDPConfig(mode="fast")
        bound = diamond_distance(bit_flip(0.2), identity_channel(1), config=fast)
        assert bound.method == "fast"
        assert np.isclose(bound.value, 0.2, atol=1e-9)

    def test_unitary_vs_unitary(self):
        rz_small = unitary_channel(np.diag([1, np.exp(1j * 0.1)]))
        bound = diamond_distance(rz_small, identity_channel(1), config=CFG)
        lower = diamond_lower_bound(rz_small, identity_channel(1))
        assert lower - 1e-7 <= bound.value <= 0.3


class TestConstrainedDiamond:
    def test_plus_predicate_suppresses_bit_flip(self):
        choi = bit_flip(0.1).choi() - identity_channel(1).choi()
        bound = rho_delta_diamond_norm(choi, pure_density(plus_state(1)), 0.0, config=CFG)
        assert bound.value < 0.02  # far below the unconstrained 0.1

    def test_zero_predicate_keeps_full_error(self):
        choi = bit_flip(0.1).choi() - identity_channel(1).choi()
        bound = rho_delta_diamond_norm(choi, pure_density(zero_state(1)), 0.0, config=CFG)
        assert np.isclose(bound.value, 0.1, atol=1e-4)

    def test_monotone_in_delta(self):
        choi = bit_flip(0.1).choi() - identity_channel(1).choi()
        rho = pure_density(plus_state(1))
        small = rho_delta_diamond_norm(choi, rho, 0.0, config=CFG).value
        large = rho_delta_diamond_norm(choi, rho, 0.5, config=CFG).value
        assert small <= large + 1e-9

    def test_never_exceeds_unconstrained(self):
        choi = depolarizing(0.2).choi() - identity_channel(1).choi()
        constrained = rho_delta_diamond_norm(choi, maximally_mixed(1), 0.1, config=CFG).value
        unconstrained = constrained_diamond_norm(choi, config=CFG).value
        assert constrained <= unconstrained + 1e-9

    def test_constraint_bound_formula(self):
        rho = pure_density(plus_state(1))
        assert np.isclose(rho_delta_constraint_bound(rho, 0.0), 1.0)
        assert np.isclose(rho_delta_constraint_bound(maximally_mixed(1), 0.0), 0.5)

    def test_negative_delta_rejected(self):
        choi = bit_flip(0.1).choi() - identity_channel(1).choi()
        with pytest.raises(SDPError):
            rho_delta_diamond_norm(choi, maximally_mixed(1), -0.1, config=CFG)

    def test_q_lambda_matches_rho_delta_for_pure_predicate(self):
        choi = bit_flip(0.1).choi() - identity_channel(1).choi()
        rho = pure_density(plus_state(1))
        q_bound = q_lambda_diamond_norm(choi, rho, 1.0, config=CFG).value
        r_bound = rho_delta_diamond_norm(choi, rho, 0.0, config=CFG).value
        assert np.isclose(q_bound, r_bound, atol=1e-6)

    def test_zero_choi(self):
        bound = constrained_diamond_norm(np.zeros((4, 4)), config=CFG)
        assert bound.value == 0.0


class TestGateErrorBound:
    def test_noiseless_gate(self):
        bound = gate_error_bound(HADAMARD, None, maximally_mixed(1), 0.0, config=CFG)
        assert bound.value == 0.0
        assert bound.method == "noiseless"

    def test_hadamard_with_bit_flip_on_zero_input(self):
        bound = gate_error_bound(
            HADAMARD, bit_flip(0.1), pure_density(zero_state(1)), 0.0, config=CFG
        )
        # The output |+> is a fixed point of X, so the error nearly vanishes.
        assert bound.value < 0.02

    def test_noise_before_gate_uses_unrotated_predicate(self):
        bound = gate_error_bound(
            HADAMARD,
            bit_flip(0.1),
            pure_density(plus_state(1)),
            0.0,
            noise_after_gate=False,
            config=CFG,
        )
        assert bound.value < 0.02

    def test_cnot_with_first_qubit_bit_flip_reduces_to_single_qubit(self):
        noise = bit_flip(0.1).tensor(identity_channel(1))
        rho = pure_density(np.kron(zero_state(1), zero_state(1)))
        bound = gate_error_bound(CNOT, noise, rho, 0.0, config=CFG)
        assert np.isclose(bound.value, 0.1, atol=1e-4)
        # The reduced problem has a 1-qubit (4x4) Choi matrix.
        assert bound.choi.shape == (4, 4)

    def test_cnot_with_genuine_two_qubit_noise(self):
        noise = two_qubit_depolarizing(0.05)
        rho = maximally_mixed(2)
        bound = gate_error_bound(CNOT, noise, rho, 0.1, config=CFG)
        assert bound.choi.shape == (16, 16)
        assert bound.value <= 0.05 + 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(SDPError):
            gate_error_bound(CNOT, bit_flip(0.1), maximally_mixed(2), 0.0, config=CFG)
        with pytest.raises(SDPError):
            gate_error_bound(HADAMARD, bit_flip(0.1), maximally_mixed(2), 0.0, config=CFG)


class TestStepRule:
    """The shipped solver certifies at least as tightly as the ADMM rules
    before it did; the pinned figures are their certified values."""

    def test_degenerate_pure_predicate(self):
        """A pure ρ̂ with δ = 0 has no Slater point and never converges; the
        true value is 0 (|+> is a fixed point of X)."""
        config = SDPConfig()
        bound = gate_error_bound(
            HADAMARD, bit_flip(1e-3), pure_density(zero_state(1)), 0.0, config=config
        )
        assert bound.method == "certified"
        assert not bound.converged
        assert bound.iterations <= config.max_iterations <= 600
        assert bound.value <= 2.8916995206719605e-05
        assert verify_certificate(bound.certificate, bound.choi)

    def test_reference_bound_no_looser(self):
        """The seed-7 reference workload (5 qubits, 65 gates, bit flip 1e-3,
        MPS width 16) with the default SDP configuration."""
        circuit = random_circuit(5, 65, seed=7)
        result = analyze_program(
            circuit, NoiseModel.uniform_bit_flip(1e-3), config=AnalysisConfig(mps_width=16)
        )
        assert result.error_bound <= 0.057288118982245076

    def test_seed7_reference_circuits_no_looser_than_admm(self):
        """All 24 seed-7 reference-cold circuits against the bounds the ADMM
        solver certified (``fixtures/reference_bounds_admm.json``; the other
        pinned seeds and the reduced Table 2 rows are checked nightly by
        ``scripts/check_reference_bounds.py``)."""
        pinned = json.loads(REFERENCE_BOUNDS.read_text())["reference_cold"]["7"]
        model = NoiseModel.uniform_bit_flip(1e-3)
        config = AnalysisConfig(mps_width=16)
        looser = []
        for index, limit in enumerate(pinned):
            circuit = random_circuit(5, 65, seed=7 + 1000 * index)
            bound = analyze_program(circuit, model, config=config).error_bound
            if bound > limit:
                looser.append((index, bound, limit))
        assert len(pinned) == 24
        assert not looser


class TestSoundnessAgainstBruteForce:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100), delta=st.floats(0.0, 0.3))
    def test_certified_bound_dominates_feasible_points(self, seed, delta):
        rng = np.random.default_rng(seed)
        noisy = unitary_channel(random_unitary(2, rng=rng)).compose(bit_flip(0.15))
        ideal = unitary_channel(noisy.kraus[0] / np.linalg.norm(noisy.kraus[0], 2))
        # Use a clean comparison: noisy = N ∘ U vs U itself.
        u = random_unitary(2, rng=rng)
        noisy = bit_flip(0.15).compose(unitary_channel(u))
        ideal = unitary_channel(u)
        rho = pure_density(plus_state(1)) if seed % 2 == 0 else maximally_mixed(1)
        choi = noisy.choi() - ideal.choi()
        bound = rho_delta_diamond_norm(choi, rho, delta, config=CFG)
        lower = constrained_diamond_lower_bound(noisy, ideal, rho, delta, num_samples=24, rng=rng)
        assert bound.value >= lower - 1e-6


class TestCache:
    def test_cache_hits_for_identical_requests(self):
        cache = GateBoundCache(decimals=6)
        rho = pure_density(zero_state(1))
        args = (("h",), HADAMARD, bit_flip(0.1), rho, 0.0)
        first = cache.lookup_or_compute(*args, config=CFG)
        second = cache.lookup_or_compute(*args, config=CFG)
        assert cache.hits == 1 and cache.misses == 1
        assert first.value == second.value

    def test_cache_quantisation_is_sound(self):
        cache = GateBoundCache(decimals=3)
        rho = pure_density(plus_state(1))
        perturbed = rho + 1e-5 * np.eye(2)
        perturbed /= np.trace(perturbed).real
        bound = cache.lookup_or_compute(("h",), HADAMARD, bit_flip(0.1), perturbed, 0.0, config=CFG)
        # The cached bound is computed for a weaker predicate, so it must be
        # at least the bound for the rounded state at delta=0.
        direct = gate_error_bound(HADAMARD, bit_flip(0.1), perturbed, 0.0, config=CFG)
        assert bound.value >= direct.value - 1e-6

    def test_quantised_delta_never_rounds_down(self):
        """The δ grid only weakens a predicate: ceil(x / step) * step can land
        one ulp below x, which would certify a bound for a stronger one."""
        cache = GateBoundCache(decimals=6)
        rho = np.diag([1.0, 0.0]).astype(complex)
        rng = np.random.default_rng(0)
        on_grid = [1.235848] + list(rng.integers(0, 2_000_000, size=2000) * 1e-6)
        for delta in on_grid:
            key, _rounded, effective = cache.quantise_key(("x",), rho, delta)
            assert effective >= delta
            assert effective - delta <= 1e-6 * (1 + 1e-9)  # at most one grid step
            assert key[-1] == effective
