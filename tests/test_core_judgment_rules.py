"""Tests for judgments, predicates, and the inference-rule constructors."""

import numpy as np
import pytest

from repro.circuits import Circuit, IfMeasure, Skip, gate_op, seq
from repro.circuits import gates as gate_lib
from repro.core import (
    Judgment,
    absorb_continuations,
    gate_rule,
    meas_rule,
    seq_rule,
    skip_rule,
    trivial_local_predicate,
    weaken_rule,
)
from repro.errors import LogicError
from repro.linalg import pure_density, zero_state
from repro.noise import bit_flip
from repro.sdp import gate_error_bound
from repro.config import SDPConfig


CFG = SDPConfig(max_iterations=300, tolerance=1e-5)


class TestJudgmentAndPredicate:
    def test_judgment_validation(self):
        with pytest.raises(LogicError):
            Judgment(delta=-0.1, epsilon=0.0)
        with pytest.raises(LogicError):
            Judgment(delta=0.0, epsilon=-1.0)

    def test_judgment_weaken(self):
        judgment = Judgment(delta=0.2, epsilon=0.1)
        weakened = judgment.weaken(delta=0.1, epsilon=0.2)
        assert weakened.delta == 0.1 and weakened.epsilon == 0.2
        with pytest.raises(LogicError):
            judgment.weaken(delta=0.3)
        with pytest.raises(LogicError):
            judgment.weaken(epsilon=0.05)

    def test_judgment_pretty(self):
        assert "<=" in Judgment(delta=0.0, epsilon=0.5, program_label="P").pretty()

    def test_trivial_local_predicate(self):
        predicate = trivial_local_predicate(2)
        assert predicate.delta == 2.0
        assert np.isclose(np.trace(predicate.rho_local).real, 1.0)


class TestRuleConstructors:
    def _gate_bound(self):
        return gate_error_bound(
            gate_lib.x().matrix, bit_flip(0.1), pure_density(zero_state(1)), 0.0, config=CFG
        )

    def test_skip_rule(self):
        node = skip_rule(0.3)
        assert node.judgment.epsilon == 0.0
        assert node.rule == "skip"

    def test_gate_rule(self):
        bound = self._gate_bound()
        node = gate_rule("x", (0,), 0.0, bound)
        assert node.judgment.epsilon == bound.value
        assert node.qubits == (0,)

    def test_gate_rule_noiseless(self):
        node = gate_rule("h", (1,), 0.1, None)
        assert node.judgment.epsilon == 0.0

    def test_seq_rule_sums(self):
        bound = self._gate_bound()
        children = [gate_rule("x", (0,), 0.0, bound), gate_rule("x", (0,), 0.01, bound)]
        node = seq_rule(children)
        assert np.isclose(node.judgment.epsilon, 2 * bound.value)
        assert node.judgment.delta == 0.0

    def test_seq_rule_rejects_decreasing_delta(self):
        bound = self._gate_bound()
        children = [gate_rule("x", (0,), 0.5, bound), gate_rule("x", (0,), 0.1, bound)]
        with pytest.raises(LogicError):
            seq_rule(children)

    def test_seq_rule_empty_is_skip(self):
        assert seq_rule([]).rule == "skip"

    def test_weaken_rule(self):
        node = gate_rule("x", (0,), 0.2, self._gate_bound())
        weakened = weaken_rule(node, delta=0.1, epsilon=node.judgment.epsilon * 2)
        assert weakened.rule == "weaken"
        assert weakened.children == [node]
        with pytest.raises(LogicError):
            weaken_rule(node, delta=0.5)

    def test_meas_rule(self):
        bound = self._gate_bound()
        branches = [gate_rule("x", (0,), 0.2, bound), skip_rule(0.2)]
        node = meas_rule(1, 0.2, branches)
        expected = (1 - 0.2) * bound.value + 0.2
        assert np.isclose(node.judgment.epsilon, expected)
        assert node.measured_qubit == 1

    def test_meas_rule_caps_delta_at_one(self):
        node = meas_rule(0, 1.7, [skip_rule(1.7)])
        assert np.isclose(node.judgment.epsilon, 1.0)

    def test_meas_rule_requires_branches(self):
        with pytest.raises(LogicError):
            meas_rule(0, 0.1, [])


class TestAbsorbContinuations:
    def test_branch_free_program_unchanged(self):
        program = seq(gate_op(gate_lib.h(), 0), gate_op(gate_lib.cx(), [0, 1]))
        absorbed = absorb_continuations(program)
        assert [op.gate.name for op in absorbed.operations()] == ["h", "cx"]

    def test_continuation_duplicated_into_branches(self):
        program = seq(
            gate_op(gate_lib.h(), 0),
            IfMeasure(0, gate_op(gate_lib.x(), 1), Skip()),
            gate_op(gate_lib.h(), 1),
        )
        absorbed = absorb_continuations(program)
        statements = absorbed.statements()
        assert isinstance(statements[-1], IfMeasure)
        branch = statements[-1]
        assert branch.then_branch.gate_count() == 2  # x then the duplicated h
        assert branch.else_branch.gate_count() == 1  # just the duplicated h

    def test_nested_ifs(self):
        inner = IfMeasure(1, gate_op(gate_lib.z(), 2), Skip())
        program = seq(
            IfMeasure(0, gate_op(gate_lib.x(), 2), Skip()),
            inner,
            gate_op(gate_lib.h(), 2),
        )
        absorbed = absorb_continuations(program)
        first = absorbed.statements()[-1]
        assert isinstance(first, IfMeasure)
        # Both branches of the outer if now contain the inner if with the
        # duplicated trailing Hadamard.
        assert first.then_branch.branch_count() == 2
        assert first.then_branch.gate_count() >= 2

    def test_if_as_last_statement_untouched(self):
        program = seq(gate_op(gate_lib.h(), 0), IfMeasure(0, Skip(), Skip()))
        absorbed = absorb_continuations(program)
        assert isinstance(absorbed.statements()[-1], IfMeasure)

    def test_semantics_preserved(self):
        """Absorbing continuations does not change the denotational semantics."""
        from repro.semantics import simulate_density

        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1), lambda c: c.z(1))
        circuit.h(1)
        program = circuit.to_program()
        absorbed = absorb_continuations(program)
        assert np.allclose(
            simulate_density(program, num_qubits=2),
            simulate_density(absorbed, num_qubits=2),
            atol=1e-10,
        )
