"""Tests for derivation trees and their independent re-validation."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.core import Derivation, GleipnirAnalyzer, gate_rule, meas_rule, seq_rule, skip_rule
from repro.errors import DerivationCheckError
from repro.linalg import pure_density, zero_state
from repro.noise import NoiseModel, bit_flip
from repro.sdp import gate_error_bound


CFG = AnalysisConfig(mps_width=8, sdp=SDPConfig(max_iterations=300, tolerance=1e-5))


def _analyzed(circuit: Circuit, model: NoiseModel | None = None) -> Derivation:
    analyzer = GleipnirAnalyzer(model or NoiseModel.uniform_bit_flip(1e-3), CFG)
    return analyzer.analyze(circuit).derivation


class TestDerivationQueries:
    def test_gate_contributions(self, ghz2_circuit):
        derivation = _analyzed(ghz2_circuit)
        contributions = derivation.gate_contributions()
        assert len(contributions) == 2
        assert contributions[0].gate_label.startswith("h")
        assert contributions[1].qubits == (0, 1)
        assert derivation.error_bound >= contributions[1].epsilon

    def test_pretty_output(self, ghz2_circuit):
        text = _analyzed(ghz2_circuit).pretty()
        assert "[seq]" in text and "[gate]" in text

    def test_total_truncation(self, ghz3_circuit):
        derivation = _analyzed(ghz3_circuit)
        assert derivation.total_truncation() >= 0.0

    def test_nodes_iteration(self, ghz2_circuit):
        derivation = _analyzed(ghz2_circuit)
        rules = [node.rule for node in derivation.nodes()]
        assert rules.count("gate") == 2


class TestCheck:
    def test_valid_derivation_passes(self, ghz3_circuit):
        _analyzed(ghz3_circuit).check()

    def test_branchy_derivation_passes(self):
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1), lambda c: c.z(1))
        _analyzed(circuit).check()

    def test_tampered_gate_bound_detected(self, ghz2_circuit):
        derivation = _analyzed(ghz2_circuit)
        gate_node = derivation.gate_nodes()[1]
        gate_node.judgment = gate_node.judgment.__class__(
            delta=gate_node.judgment.delta,
            epsilon=gate_node.judgment.epsilon / 100,
            program_label=gate_node.judgment.program_label,
        )
        with pytest.raises(DerivationCheckError):
            derivation.check()

    def test_tampered_seq_total_detected(self, ghz2_circuit):
        derivation = _analyzed(ghz2_circuit)
        root = derivation.root
        root.judgment = root.judgment.__class__(
            delta=root.judgment.delta,
            epsilon=root.judgment.epsilon / 10,
            program_label=root.judgment.program_label,
        )
        with pytest.raises(DerivationCheckError):
            derivation.check()

    def test_tampered_certificate_detected(self, ghz2_circuit, depolarizing_model):
        derivation = _analyzed(ghz2_circuit, depolarizing_model)
        node = derivation.gate_nodes()[1]
        # Corrupt the dual certificate matrix: feasibility must now fail.
        node.bound.certificate.z[0, 0] = -10.0
        with pytest.raises(DerivationCheckError):
            derivation.check()

    def test_skip_rule_with_error_detected(self):
        node = skip_rule(0.0)
        node.judgment = node.judgment.__class__(delta=0.0, epsilon=0.5, program_label="skip")
        with pytest.raises(DerivationCheckError):
            Derivation(node).check()

    def test_handcrafted_meas_node_checks(self):
        bound = gate_error_bound(
            np.array([[0, 1], [1, 0]], dtype=complex),
            bit_flip(0.1),
            pure_density(zero_state(1)),
            0.0,
            config=CFG.sdp,
        )
        branches = [gate_rule("x", (0,), 0.2, bound), skip_rule(0.2)]
        node = meas_rule(0, 0.2, branches)
        Derivation(node).check()

    def test_unknown_rule_rejected(self):
        node = skip_rule(0.0)
        node.rule = "mystery"
        with pytest.raises(DerivationCheckError):
            Derivation(node).check()

    def test_weaken_node_checks(self):
        from repro.core import weaken_rule

        bound = gate_error_bound(
            np.array([[0, 1], [1, 0]], dtype=complex),
            bit_flip(0.1),
            pure_density(zero_state(1)),
            0.0,
            config=CFG.sdp,
        )
        premise = gate_rule("x", (0,), 0.4, bound)
        node = weaken_rule(premise, delta=0.1)
        Derivation(seq_rule([node])).check()
