"""Closed-form gate bounds for single-unitary-error noise.

A channel ``(1 − p)ρ + p·VρV†`` with ``V`` a Hermitian unitary is bounded
by ``p·√(1 − m²)``, ``m = max(0, |Tr(Vσ)| − δ)``, without an SDP.  These
tests pin what is recognised, hold the closed form between the brute-force
lower bound and the certified Eq. (2) SDP, check its floating-point margins
in exact rational arithmetic, and check that the derivation checker and the
outcome store reject tampered certificates.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.circuits import Circuit
from repro.config import AnalysisConfig
from repro.core import GleipnirAnalyzer, worst_case_bound
from repro.core import baselines
from repro.engine.outcomes import OutcomeCertificate, OutcomeStore
from repro.engine.pool import execute_job_record
from repro.engine.spec import AnalysisJob
from repro.errors import DerivationCheckError, EngineError
from repro.linalg import (
    CNOT,
    HADAMARD,
    QuantumChannel,
    pure_density,
    random_unitary,
    unitary_channel,
    zero_state,
)
from repro.noise import (
    NoiseModel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    coherent_overrotation,
    depolarizing,
    identity_noise,
    pauli_channel,
    phase_damping,
    phase_flip,
    thermal_relaxation,
    two_qubit_depolarizing,
)
from repro.sdp import (
    constrained_diamond_lower_bound,
    diamond,
    gate_error_bound,
    gate_error_bounds_batch,
    rho_delta_diamond_norm,
)
from repro.sdp.closed_form import (
    closed_form_value,
    single_unitary_error,
    verify_closed_form,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_hermitian_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """``U diag(±1) U†`` with both signs present, so it is not ±I."""
    signs = rng.choice([-1.0, 1.0], size=dim)
    signs[0], signs[-1] = 1.0, -1.0
    basis = random_unitary(dim, rng=rng)
    return basis @ np.diag(signs) @ basis.conj().T


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pure = np.outer(vector, vector.conj()) / np.vdot(vector, vector).real
    weight = rng.choice([1.0, float(rng.uniform(0.5, 1.0))])
    return weight * pure + (1.0 - weight) * np.eye(dim) / dim


class TestRecognition:
    @pytest.mark.parametrize(
        "channel, pauli",
        [
            (bit_flip(1e-3), PAULI_X),
            (bit_flip(1e-4), PAULI_X),
            (phase_flip(0.2), np.diag([1.0, -1.0])),
            (bit_phase_flip(0.05), np.array([[0, -1j], [1j, 0]])),
            (unitary_channel(PAULI_X), PAULI_X),  # coherent, p = 1
        ],
        ids=["bit_flip", "bit_flip_1e-4", "phase_flip", "y_flip", "coherent_x"],
    )
    def test_flips_are_recognised_exactly(self, channel, pauli):
        p, v = single_unitary_error(channel)
        assert 0.0 < p <= 1.0
        # Pauli errors are recognised exactly, up to the sign of V.
        assert np.array_equal(v, pauli) or np.array_equal(v, -pauli)

    def test_bit_flip_on_the_first_operand_is_recognised_once_factored(self):
        p1, v1 = diamond.closed_form_channel(bit_flip(1e-3))
        p2, v2 = diamond.closed_form_channel(bit_flip(1e-3).tensor(identity_noise(1)))
        assert p1 == p2 and np.array_equal(v1, v2) and v2.shape == (2, 2)

    def test_two_qubit_pauli_string_and_phase_damping(self):
        assert single_unitary_error(pauli_channel({"ZZ": 0.1})) is not None
        # Phase damping is a phase flip: (1 - p)ρ + pZρZ.
        p, v = single_unitary_error(phase_damping(0.3))
        assert np.array_equal(np.abs(v), np.eye(2))
        assert p == pytest.approx((1 - np.sqrt(0.7)) / 2, rel=1e-12)

    @pytest.mark.parametrize(
        "channel",
        [
            depolarizing(0.1),
            amplitude_damping(0.2),
            two_qubit_depolarizing(0.01),
            coherent_overrotation("x", 0.1),
            thermal_relaxation(50.0, 70.0, 0.1),
            identity_noise(1),
            bit_flip(0.0),
        ],
        ids=["depolarizing", "amplitude_damping", "depolarizing2", "overrotation", "thermal", "identity", "p0"],
    )
    def test_other_channels_stay_on_the_sdp(self, channel):
        assert single_unitary_error(channel) is None

    def test_recognised_channel_rebuilds_its_choi_matrix(self):
        rng = np.random.default_rng(4)
        v = _random_hermitian_unitary(4, rng)
        channel = QuantumChannel([np.sqrt(0.97) * np.eye(4), np.sqrt(0.03) * v])
        p, recognised = single_unitary_error(channel)
        assert p == pytest.approx(0.03, rel=1e-12)
        assert np.allclose(recognised @ recognised, np.eye(4), atol=1e-12)
        vec, omega = recognised.reshape(-1), np.eye(4).reshape(-1)
        rebuilt = (1 - p) * np.outer(omega, omega) + p * np.outer(vec, vec.conj())
        assert np.abs(rebuilt - channel.choi()).max() <= 1e-12


class TestBounds:
    def test_fixed_point_of_the_error_has_a_vanishing_bound(self):
        """H|0⟩ = |+⟩ is an eigenstate of X, so the exact value is 0.  The
        rounding margin leaves m a few ulps below 1 and ε ≈ 1e-7·p, where the
        Eq. (2) SDP certifies about 3e-5."""
        bound = gate_error_bound(HADAMARD, bit_flip(1e-3), pure_density(zero_state(1)), 0.0)
        assert bound.method == "closed-form"
        assert 1.0 - 1e-14 < bound.certificate.m < 1.0
        assert 0.0 < bound.value < 1e-10

    def test_one_gate_rz_on_zero_is_its_worst_case(self, monkeypatch):
        """Tr(Xσ) = 0, so m = 0: the bound is exactly p, the worst case is
        the same function at m = 0, and neither solves an SDP."""

        def no_sdp(*_args, **_kwargs):
            raise AssertionError("an SDP was solved for a bit-flip gate")

        monkeypatch.setattr(diamond, "constrained_diamond_norms_batch", no_sdp)
        monkeypatch.setattr(baselines, "constrained_diamond_norms_batch", no_sdp)
        model = NoiseModel.uniform_bit_flip(1e-3)
        circuit = Circuit(1).rz(0.7, 0)
        result = GleipnirAnalyzer(model, AnalysisConfig()).analyze(circuit)
        worst = worst_case_bound(circuit, model).value
        p, _v = single_unitary_error(bit_flip(1e-3))
        assert result.error_bound == worst == closed_form_value(p, 0.0) == p
        result.derivation.check()

    def test_bit_flip_analysis_solves_no_sdp(self, monkeypatch):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("the solver ran for a bit-flip analysis")

        monkeypatch.setattr(diamond, "admm_solve_packed_batch", no_solve)
        circuit = random_circuit(5, 65, seed=7)
        result = GleipnirAnalyzer(NoiseModel.uniform_bit_flip(1e-3), AnalysisConfig()).analyze(
            circuit
        )
        assert result.sdp_solves == result.scheduled_solves == 0
        assert {row.sdp_method for row in result.gate_contributions()} == {"closed-form"}
        result.derivation.check()

    def test_batch_equals_one_at_a_time(self):
        rng = np.random.default_rng(9)
        noise = bit_flip(1e-3)
        instances = [
            (random_unitary(2, rng=rng), noise, _random_state(2, rng), float(rng.uniform(0, 0.5)))
            for _ in range(12)
        ]
        instances.append((CNOT, noise.tensor(identity_noise(1)), _random_state(4, rng), 0.1))
        batch = gate_error_bounds_batch(instances)
        for bound, instance in zip(batch, instances):
            alone = gate_error_bound(*instance)
            assert bound.value == alone.value
            assert bound.certificate.m == alone.certificate.m

    def test_mixed_batch_keeps_the_sdp_for_other_noise(self):
        rho = pure_density(zero_state(1))
        bounds = gate_error_bounds_batch(
            [(HADAMARD, bit_flip(1e-3), rho, 0.1), (HADAMARD, depolarizing(1e-3), rho, 0.1)]
        )
        assert [bound.method for bound in bounds] == ["closed-form", "certified"]

    @pytest.mark.parametrize("noise_after_gate", [True, False], ids=["after", "before"])
    def test_never_looser_than_the_sdp_on_random_programs(self, noise_after_gate, monkeypatch):
        """The same programs certify lower or equal bounds in closed form."""
        noise = bit_flip(0.01)
        model = NoiseModel(noise_after_gate=noise_after_gate)
        model.set_default(1, noise).set_default(2, noise.tensor(identity_noise(1)))
        circuits = [random_circuit(4, 16, seed=seed) for seed in range(3)]
        closed = [GleipnirAnalyzer(model).analyze(circuit).error_bound for circuit in circuits]
        monkeypatch.setattr(diamond, "closed_form_channel", lambda channel: None)
        sdp = [GleipnirAnalyzer(model).analyze(circuit).error_bound for circuit in circuits]
        assert all(c <= s for c, s in zip(closed, sdp))


@st.composite
def _single_unitary_error_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.sampled_from([2, 4]))
    p = draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
    v = _random_hermitian_unitary(dim, rng)
    kraus = [v] if p == 1.0 else [np.sqrt(1.0 - p) * np.eye(dim), np.sqrt(p) * v]
    channel = QuantumChannel(kraus)
    delta = draw(st.floats(0.0, 2.0))
    return channel, random_unitary(dim, rng=rng), _random_state(dim, rng), delta, rng


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(instance=_single_unitary_error_instances(), noise_after_gate=st.booleans())
    def test_brute_force_le_closed_form_le_sdp(self, instance, noise_after_gate):
        channel, gate, rho, delta, rng = instance
        bound = gate_error_bound(gate, channel, rho, delta, noise_after_gate=noise_after_gate)
        assert bound.method == "closed-form"
        ((choi, sigma),) = diamond._reduced_gate_problems_batch(
            [(gate, channel, rho)], noise_after_gate=noise_after_gate
        )
        sdp = rho_delta_diamond_norm(choi, sigma, delta).value
        ideal = unitary_channel(gate)
        noisy = channel.compose(ideal) if noise_after_gate else ideal.compose(channel)
        lower = constrained_diamond_lower_bound(noisy, ideal, rho, delta, num_samples=8, rng=rng)
        # The brute-force oracle subtracts two O(1) output states and the SDP
        # certifies in floating point: each carries about 1e-16 of rounding.
        assert lower <= bound.value + 1e-12
        assert bound.value <= sdp + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(instance=_single_unitary_error_instances(), aligned=st.booleans())
    def test_margins_hold_in_exact_arithmetic(self, instance, aligned):
        """From the certificate's float entries, in rationals:
        ``(m + δ)² ≤ |Tr(Vσ)|²`` when m > 0, and ``ε² ≥ p²(1 − m²)``."""
        channel, gate, rho, delta, _rng = instance
        if aligned:  # σ an eigenstate of V: |Tr(Vσ)| = 1, m close to 1 - δ
            _p, v = single_unitary_error(channel)
            vector = np.linalg.eigh(v)[1][:, 0]
            rho, gate = np.outer(vector, vector.conj()), np.eye(v.shape[0])
            delta = delta / 1e6
        certificate = gate_error_bound(gate, channel, rho, delta).certificate
        f = Fraction
        v, sigma = certificate.v, certificate.sigma
        dim = v.shape[0]
        real = sum(
            f(v[i, j].real) * f(sigma[j, i].real) - f(v[i, j].imag) * f(sigma[j, i].imag)
            for i in range(dim)
            for j in range(dim)
        )
        imag = sum(
            f(v[i, j].real) * f(sigma[j, i].imag) + f(v[i, j].imag) * f(sigma[j, i].real)
            for i in range(dim)
            for j in range(dim)
        )
        m, value, p = f(certificate.m), f(certificate.value), f(certificate.p)
        assert 0 <= m <= 1
        if m > 0:
            assert (m + f(certificate.delta)) ** 2 <= real**2 + imag**2
        assert value**2 >= p**2 * (1 - m**2)
        assert value <= p


def _rotated_analysis():
    """RY(0.3) on |0⟩ under bit flip: m ≈ sin 0.3 > 0 and 0 < ε < p."""
    model = NoiseModel.uniform_bit_flip(1e-3)
    circuit = Circuit(1).ry(0.3, 0).rz(0.2, 0)
    result = GleipnirAnalyzer(model, AnalysisConfig()).analyze(circuit)
    node = result.derivation.gate_nodes()[0]
    assert node.bound.method == "closed-form"
    assert 0.0 < node.bound.certificate.m < 1.0
    assert 0.0 < node.bound.value < node.bound.certificate.p
    return model, circuit, result, node


def _mutations(certificate):
    sigma = certificate.sigma.copy()
    sigma[0, 1] += 1e-3
    sigma[1, 0] += 1e-3
    return {
        "value_one_ulp_lower": dataclasses.replace(
            certificate, value=float(np.nextafter(certificate.value, 0.0))
        ),
        "p_lower": dataclasses.replace(certificate, p=certificate.p * 0.999),
        "sigma_altered": dataclasses.replace(certificate, sigma=sigma),
    }


class TestTamperedCertificates:
    def test_genuine_certificate_verifies(self):
        _model, _circuit, result, node = _rotated_analysis()
        assert verify_closed_form(node.bound.certificate)
        result.derivation.check()

    @pytest.mark.parametrize("mutation", ["value_one_ulp_lower", "p_lower", "sigma_altered"])
    def test_derivation_check_rejects(self, mutation):
        _model, _circuit, result, node = _rotated_analysis()
        tampered = _mutations(node.bound.certificate)[mutation]
        node.bound = dataclasses.replace(node.bound, certificate=tampered)
        with pytest.raises(DerivationCheckError):
            result.derivation.check()

    @pytest.mark.parametrize("mutation", ["value_one_ulp_lower", "p_lower", "sigma_altered"])
    def test_store_verify_rejects(self, tmp_path, mutation):
        model, circuit, _result, _node = _rotated_analysis()
        job = AnalysisJob.from_circuit(circuit, model, config=AnalysisConfig())
        result, certificates = execute_job_record(job, collect_certificates=True)
        assert {certificate.kind for certificate in certificates} == {"closed-form"}
        path = str(tmp_path / "outcomes.jsonl")
        genuine = OutcomeStore(path)
        genuine.put(result, certificates)
        assert OutcomeStore(path).get(result.fingerprint, verify=True) == result

        first = _mutations(certificates[0].certificate)[mutation]
        tampered = [OutcomeCertificate(first)] + certificates[1:]
        other = str(tmp_path / "tampered.jsonl")
        OutcomeStore(other).put(result, tampered)
        store = OutcomeStore(other)
        assert store.get(result.fingerprint, verify=True) is None
        assert store.stats()["verification_failures"] == 1


class TestWireFormat:
    def test_closed_form_payload_roundtrips_with_its_kind(self):
        _model, _circuit, _result, node = _rotated_analysis()
        stored = OutcomeCertificate.from_bound(node.bound)
        payload = stored.to_json_dict()
        assert payload["kind"] == "closed-form"
        clone = OutcomeCertificate.from_json_dict(payload)
        assert clone.kind == "closed-form" and clone.verify()
        assert clone.value == stored.value

    def test_sdp_payloads_decode_with_or_without_a_kind(self):
        bound = gate_error_bound(HADAMARD, depolarizing(1e-3), pure_density(zero_state(1)), 0.1)
        payload = OutcomeCertificate.from_bound(bound).to_json_dict()
        assert "kind" not in payload
        for candidate in (payload, {**payload, "kind": "sdp"}):
            decoded = OutcomeCertificate.from_json_dict(candidate)
            assert decoded.kind == "sdp" and decoded.verify()
        with pytest.raises(EngineError):
            OutcomeCertificate.from_json_dict({**payload, "kind": "mystery"})
