"""Unit tests for NoiseModel resolution rules."""

import numpy as np
import pytest

from repro.circuits import gates as gate_lib
from repro.errors import NoiseModelError
from repro.linalg import pure_density, zero_state
from repro.noise import NoiseModel, bit_flip, depolarizing, identity_noise


class TestResolution:
    def test_noiseless_model(self):
        model = NoiseModel.noiseless()
        assert model.channel_for(gate_lib.h(), (0,)) is None
        assert model.is_noiseless_for(gate_lib.h(), (0,))

    def test_uniform_bit_flip_defaults(self):
        model = NoiseModel.uniform_bit_flip(0.1)
        assert model.channel_for(gate_lib.h(), (3,)) is not None
        two_qubit = model.channel_for(gate_lib.cx(), (0, 1))
        assert two_qubit.num_qubits == 2

    def test_uniform_depolarizing(self):
        model = NoiseModel.uniform_depolarizing(1e-3, 1e-2)
        assert model.channel_for(gate_lib.cx(), (0, 1)).num_qubits == 2

    def test_gate_name_rule_overrides_default(self):
        model = NoiseModel.uniform_bit_flip(0.1)
        model.add_gate_rule("h", depolarizing(0.5))
        assert model.channel_for(gate_lib.h(), (0,)).name.startswith("depolarizing")
        assert model.channel_for(gate_lib.x(), (0,)).name.startswith("bit_flip")

    def test_qubit_rule_overrides_gate_name(self):
        model = NoiseModel()
        model.add_gate_rule("h", bit_flip(0.1))
        model.add_qubit_rule((2,), depolarizing(0.3))
        assert model.channel_for(gate_lib.h(), (2,)).name.startswith("depolarizing")

    def test_gate_and_qubit_rule_is_most_specific(self):
        model = NoiseModel()
        model.add_qubit_rule((0,), bit_flip(0.1))
        model.add_rule("h", (0,), depolarizing(0.2))
        assert model.channel_for(gate_lib.h(), (0,)).name.startswith("depolarizing")
        assert model.channel_for(gate_lib.x(), (0,)).name.startswith("bit_flip")

    def test_factory_model(self):
        def factory(gate, qubits):
            return bit_flip(0.01) if gate.num_qubits == 1 else None

        model = NoiseModel.from_factory(factory)
        assert model.channel_for(gate_lib.h(), (0,)) is not None
        assert model.channel_for(gate_lib.cx(), (0, 1)) is None

    def test_dimension_validation(self):
        model = NoiseModel()
        with pytest.raises(NoiseModelError):
            model.set_default(2, bit_flip(0.1))
        with pytest.raises(NoiseModelError):
            model.add_qubit_rule((0, 1), bit_flip(0.1))

    def test_rules_listing(self):
        model = NoiseModel.uniform_bit_flip(0.1)
        model.add_gate_rule("h", depolarizing(0.2))
        labels = {rule.gate_name for rule in model.rules()}
        assert "h" in labels


class TestNoisyGateChannel:
    def test_noise_after_gate(self):
        model = NoiseModel.uniform_bit_flip(1.0)
        channel = model.noisy_gate_channel(gate_lib.x(), (0,))
        # X then certain bit flip = identity.
        rho = pure_density(zero_state(1))
        assert np.allclose(channel(rho), rho, atol=1e-12)

    def test_noise_before_gate(self):
        model = NoiseModel(noise_after_gate=False)
        model.set_default(1, bit_flip(1.0))
        channel = model.noisy_gate_channel(gate_lib.x(), (0,))
        rho = pure_density(zero_state(1))
        assert np.allclose(channel(rho), rho, atol=1e-12)

    def test_noiseless_gate_channel_is_unitary(self):
        model = NoiseModel.noiseless()
        channel = model.noisy_gate_channel(gate_lib.h(), (0,))
        assert channel.is_unitary_channel()

    def test_identity_noise_explicit(self):
        model = NoiseModel()
        model.set_default(1, identity_noise(1))
        channel = model.noisy_gate_channel(gate_lib.h(), (0,))
        assert channel.is_cptp()
