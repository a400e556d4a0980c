"""Tests for the diamond-norm engine: known values, soundness, reductions."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cached_gate_bound, random_circuit

from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import analyze_program
from repro.errors import SDPError
from repro.linalg.norms import hermitian_mask, trace_norm
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
    diamond,
    gate_error_bound,
    gate_error_bounds_batch,
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

    def test_reference_bound_is_pinned_exactly(self):
        """The seed-7 reference bound, bit for bit.

        Performance work leaves it bit-identical.  The pin moves only with a
        change that tightens the bound, and then only to the new, lower value.
        """
        circuit = random_circuit(5, 65, seed=7)
        result = analyze_program(
            circuit, NoiseModel.uniform_bit_flip(1e-3), config=AnalysisConfig(mps_width=16)
        )
        assert result.error_bound == 0.05707535508329013

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


class TestCapScaling:
    """Thin (ρ̂, δ) caps are solved in cap-scaled variables
    (``_ShapeTemplate.instantiate_batch``) and certified unscaled."""

    @staticmethod
    def _thin_caps():
        ket0 = pure_density(zero_state(1))
        return {
            # H|0> = |+> is pure, so δ = 1e-6 leaves a cap of width ~1e-6.
            "thin": (HADAMARD, bit_flip(1e-3), ket0, 1e-6),
            # δ = 0 asks for c = λ_max: solved _FACE_MARGIN below it.
            "face-margin": (HADAMARD, bit_flip(1e-3), ket0, 0.0),
            "two-qubit": (CNOT, two_qubit_depolarizing(5e-3), pure_density(zero_state(2)), 1e-6),
        }

    #: Upper limits well below each problem's analytic J₊ value (1e-3, 1e-3
    #: and 5e-3): a dual point left in scaled coordinates certifies no better.
    LIMITS = {"thin": 2.01e-6, "face-margin": 1e-8, "two-qubit": 4.00001e-3}

    @pytest.mark.parametrize("name", ["thin", "face-margin", "two-qubit"])
    def test_thin_caps_stop_early_and_certify_unscaled(self, name):
        gate, noise, rho, delta = self._thin_caps()[name]
        (choi, sigma), = diamond._reduced_gate_problems_batch([(gate, noise, rho)])
        bound = gate_error_bound(gate, noise, rho, delta)
        assert bound.method == "certified"
        assert bound.iterations <= 15
        assert bound.value <= self.LIMITS[name]
        certificate = bound.certificate
        assert certificate.constraint_bound == rho_delta_constraint_bound(sigma, delta)
        assert np.array_equal(certificate.constraint_operator, (sigma + sigma.conj().T) / 2)
        assert np.array_equal(bound.choi, (choi + choi.conj().T) / 2)
        assert verify_certificate(certificate, bound.choi)

    def test_scaled_problem_alone_equals_it_in_a_batch_of_50(self):
        """Scaling is per problem: a thin cap solved alone and among 49 other
        requests of its class gives the same bound, bit for bit."""
        rng = np.random.default_rng(50)
        gate, noise, rho, delta = self._thin_caps()["thin"]
        (choi, sigma), = diamond._reduced_gate_problems_batch([(gate, noise, rho)])
        thin = (choi, sigma, rho_delta_constraint_bound(sigma, delta))
        others = []
        for _ in range(49):
            state = random_unitary(2, rng=rng)[:, :1]
            sigma_other = state @ state.conj().T * 0.98 + np.eye(2) * 0.01
            delta_other = float(rng.choice([0.0, 1e-6, 1e-3, 0.1]))
            others.append(
                (choi, sigma_other, rho_delta_constraint_bound(sigma_other, delta_other))
            )
        requests = others[:17] + [thin] + others[17:]
        batched = diamond.constrained_diamond_norms_batch(requests)
        for index in (17, 0, 49):
            alone = diamond.constrained_diamond_norms_batch([requests[index]])[0]
            assert batched[index].value == alone.value
            assert batched[index].iterations == alone.iterations
            assert batched[index].primal_estimate == alone.primal_estimate
            assert batched[index].certificate.y == alone.certificate.y
            assert np.array_equal(batched[index].certificate.z, alone.certificate.z)

    def test_seed7_reference_circuits_lock_step_iterations(self, monkeypatch):
        """The 24 seed-7 reference circuits hold their lock-step batches for
        at most 400 iterations in total (589 before thin caps were scaled)."""
        solve = diamond.admm_solve_packed_batch
        lock_step = []

        def spy(problems, **kwargs):
            results = solve(problems, **kwargs)
            lock_step.append(max(result.iterations for result in results))
            return results

        monkeypatch.setattr(diamond, "admm_solve_packed_batch", spy)
        model = NoiseModel.uniform_bit_flip(1e-3)
        config = AnalysisConfig(mps_width=16)
        for index in range(24):
            analyze_program(random_circuit(5, 65, seed=7 + 1000 * index), model, config=config)
        assert len(lock_step) == 24
        assert sum(lock_step) <= 400


def _quantise_one_gate(rho, delta, decimals):
    """The per-gate quantisation arithmetic, spelled out with ``trace_norm``."""
    rounded = np.round(rho, decimals)
    rounded = (rounded + rounded.conj().T) / 2
    weakened = float(delta + trace_norm(rho - rounded))
    step = 10.0 ** (-decimals)
    effective = max(float(np.ceil(weakened / step) * step), weakened)
    return rounded, effective


class TestStackedQuantisation:
    """``GateBoundCache.quantise_keys`` equals per-gate quantisation bit for bit."""

    @staticmethod
    def _predicates():
        rng = np.random.default_rng(3)
        rhos, deltas = [], []
        for index in range(40):
            dim = 2 if index % 2 else 4
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = a @ a.conj().T
            rhos.append(rho / np.trace(rho).real)
            deltas.append(float(rng.uniform(0, 0.3)))
        # Not Hermitian: its rounding error takes the svd branch.
        rhos.append(np.array([[0.6, 0.3 + 0.1234567j], [0.1, 0.4]]))
        deltas.append(0.01)
        # Exactly on the grid: rounding adds nothing, so δ stays put ...
        rhos += [np.diag([1.0, 0.0]).astype(complex)] * 2
        deltas += [0.123456, np.nextafter(0.123456, 1.0)]  # ... or one ulp over it
        return rhos, deltas

    def test_matches_per_gate_quantisation(self):
        rhos, deltas = self._predicates()
        cache = GateBoundCache(decimals=6)
        parts = [("gate", index) for index in range(len(rhos))]
        stacked = cache.quantise_keys(parts, rhos, deltas)
        for part, rho, delta, (key, rounded, effective) in zip(parts, rhos, deltas, stacked):
            alone = cache.quantise_key(part, rho, delta)
            assert key == alone[0]
            assert rounded.tobytes() == alone[1].tobytes()
            assert effective == alone[2]
            expected_rounded, expected_effective = _quantise_one_gate(rho, delta, 6)
            assert key == part + (expected_rounded.tobytes(), expected_effective)
            assert rounded.tobytes() == expected_rounded.tobytes()
            assert effective == expected_effective

    def test_covers_both_branches_and_the_grid_edges(self):
        rhos, deltas = self._predicates()
        errors = [rho - _quantise_one_gate(rho, 0.0, 6)[0] for rho in rhos]
        assert {rho.shape for rho in rhos} == {(2, 2), (4, 4)}
        assert not hermitian_mask(errors[40])
        assert hermitian_mask(np.stack(errors[:40:2])).all()
        cache = GateBoundCache(decimals=6)
        (_, _, on_grid), (_, _, over) = cache.quantise_keys([(), ()], rhos[-2:], deltas[-2:])
        assert on_grid == 0.123456
        assert over == 0.123457


class TestReducedProblemDedupe:
    def test_duplicates_solve_once_and_match_solving_alone(self, monkeypatch):
        """Requests that reduce to byte-identical problems reach the solver
        once; every bound equals the request solved on its own."""
        ket0 = pure_density(zero_state(1))
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        noise = bit_flip(0.1)
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        instances = [
            (HADAMARD, noise, pure_density(plus_state(1)), 0.01),
            (x_gate, noise, ket0, 0.02),
            (np.eye(2, dtype=complex), noise, ket1, 0.02),  # X|0⟩⟨0|X = |1⟩⟨1|
            (x_gate, noise, ket1, 0.02),  # same Choi and c, another σ
            (HADAMARD, noise, pure_density(plus_state(1)), 0.01),
        ]
        alone = [gate_error_bound(*instance, config=CFG) for instance in instances]

        solved = []
        solve = diamond.admm_solve_packed_batch

        def spy(problems, **kwargs):
            solved.extend(problems)
            return solve(problems, **kwargs)

        monkeypatch.setattr(diamond, "admm_solve_packed_batch", spy)
        batched = gate_error_bounds_batch(instances, config=CFG)
        assert len(solved) == 3
        assert [b.value for b in batched] == [b.value for b in alone]
        for b, a in zip(batched, alone):
            assert b.certificate.y == a.certificate.y
            assert np.array_equal(b.certificate.z, a.certificate.z)
        assert batched[1] is batched[2] and batched[0] is batched[4]

    def test_unconstrained_requests_solve_once_per_choi(self, monkeypatch):
        """A request with c <= 0 drops its constraint, so requests that share
        a Choi matrix reach the solver once whatever their σ, δ or gate; every
        bound equals the request solved on its own."""
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        weak, strong = bit_flip(0.05), bit_flip(0.1)
        instances = [
            (HADAMARD, strong, pure_density(plus_state(1)), 2.0),
            (x_gate, strong, ket1, 2.0),
            (HADAMARD, weak, np.eye(2, dtype=complex) / 2, 2.0),
            (x_gate, strong, pure_density(zero_state(1)), 1.5),  # c = -0.5
            (HADAMARD, weak, ket1, 2.0),
            (HADAMARD, strong, ket1, 0.01),  # constrained: solved on its own
        ]
        alone = [gate_error_bound(*instance, config=CFG) for instance in instances]

        chois = []
        solve = diamond.constrained_diamond_norms_batch

        def spy(requests, **kwargs):
            chois.extend(choi for choi, _sigma, bound_c in requests if bound_c <= 0.0)
            return solve(requests, **kwargs)

        monkeypatch.setattr(diamond, "constrained_diamond_norms_batch", spy)
        batched = gate_error_bounds_batch(instances, config=CFG)
        assert len(chois) == 2
        assert not np.array_equal(chois[0], chois[1])
        assert [b.value for b in batched] == [b.value for b in alone]
        for b, a in zip(batched, alone):
            assert b.certificate.y == a.certificate.y
            assert b.certificate.constraint_bound == a.certificate.constraint_bound
            assert np.array_equal(b.certificate.z, a.certificate.z)
        assert batched[0] is batched[1] is batched[3]
        assert batched[2] is batched[4]


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
        first = cached_gate_bound(cache, ("h",), HADAMARD, bit_flip(0.1), rho, 0.0, config=CFG)
        second = cached_gate_bound(cache, ("h",), HADAMARD, bit_flip(0.1), rho, 0.0, config=CFG)
        key, _rho, _delta = cache.quantise_key(("h",), rho, 0.0)
        assert cache.lookup(key) is first
        assert cache.hits == 1 and cache.misses == 1
        assert first.value == second.value

    def test_cache_quantisation_is_sound(self):
        cache = GateBoundCache(decimals=3)
        rho = pure_density(plus_state(1))
        perturbed = rho + 1e-5 * np.eye(2)
        perturbed /= np.trace(perturbed).real
        bound = cached_gate_bound(
            cache, ("h",), HADAMARD, bit_flip(0.1), perturbed, 0.0, config=CFG
        )
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
