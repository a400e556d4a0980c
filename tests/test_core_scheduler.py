"""Tests for the program-level bound scheduler and the cache's new layers."""


import numpy as np
import pytest

from helpers import cached_gate_bound, per_gate_bound, per_gate_reference, random_circuit

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.scheduler import BoundScheduler
from repro.linalg import HADAMARD, pure_density, zero_state
from repro.mps.approximator import MPSApproximator
from repro.noise import bit_flip
from repro.programs.library import benchmark_by_name
from repro.sdp import GateBoundCache


FAST_SDP = SDPConfig(max_iterations=400, tolerance=1e-5)


def _config(**kwargs) -> AnalysisConfig:
    base = dict(mps_width=8, sdp=FAST_SDP)
    base.update(kwargs)
    return AnalysisConfig(**base)


def _branchy_program():
    """h(0); measure 0; x(1) on outcome 0, h(1) on outcome 1."""
    h0, x1, h1 = (
        Circuit(2).h(0).to_program(),
        Circuit(2).x(1).to_program(),
        Circuit(2).h(1).to_program(),
    )
    return seq(h0, IfMeasure(0, x1, h1)), [h0, x1, h1]


def assert_gate_nodes_match_per_gate(result, ops, model, config):
    """Each gate node's bound equals its own predicate solved alone."""
    nodes = result.derivation.gate_nodes()
    assert len(nodes) == len(ops)
    for node, op in zip(nodes, ops):
        expected = per_gate_bound(op, model, config, node.rho_local, node.judgment.delta)
        assert node.judgment.epsilon == expected


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_analyzer(self, seed, bit_flip_model):
        """The analysis certifies the bounds a gate-by-gate walk with one
        ``gate_error_bound`` per gate certifies, and solves each class once."""
        circuit = random_circuit(4, 24, seed=seed)
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        reference = per_gate_reference(circuit, bit_flip_model, config)
        assert result.error_bound == reference.error_bound
        assert result.num_gates == len(reference.values)
        assert result.sdp_solves == reference.num_classes
        assert result.scheduled_solves == result.sdp_solves

    def test_matches_sequential_with_branches(self, bit_flip_model):
        """The pre-pass mirrors measurement branching, including unreachable
        branches analysed under the vacuous predicate."""
        program, ops = _branchy_program()
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(program, num_qubits=2)
        assert_gate_nodes_match_per_gate(result, ops, bit_flip_model, config)
        assert result.num_branches == 2

    def test_unreachable_branch_collected(self, bit_flip_model):
        """A branch with approximation probability 0 is still pre-solved,
        under the vacuous predicate δ = 2."""
        then_branch, else_branch = Skip(), Circuit(1).x(0).to_program()
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(
            IfMeasure(0, then_branch, else_branch), num_qubits=1
        )
        assert result.scheduled_solves == 1
        (node,) = result.derivation.gate_nodes()
        assert node.judgment.delta == 2.0
        assert_gate_nodes_match_per_gate(result, [else_branch], bit_flip_model, config)

    def test_derivation_verifies(self, bit_flip_model):
        """Every certificate in a scheduled derivation re-verifies."""
        circuit = random_circuit(3, 12, seed=9)
        result = GleipnirAnalyzer(bit_flip_model, _config()).analyze(circuit)
        assert result.derivation is not None
        result.derivation.check()  # raises on any unsound step


def _live_bounds(ops, approximator, model, config) -> list[float]:
    """Each op's bound from a live MPS walk that never stops evolving."""
    values = []
    for op in ops:
        predicate = approximator.local_predicate(op.qubits)
        values.append(
            per_gate_bound(op, model, config, predicate.rho_local, predicate.delta)
        )
        approximator.apply_gate_op(op)
    return values


#: (circuit, MPS width) pairs whose walk reaches δ = 2 part way through.
SATURATING = [
    pytest.param(
        lambda: benchmark_by_name("QAOARandom20", "reduced").build(), 2, id="qaoa-w2"
    ),
    pytest.param(lambda: random_circuit(4, 40, seed=0), 1, id="random-w1"),
]


class TestSaturatedWalk:
    """Once δ reaches 2 every predicate is vacuous: the walk stops evolving
    the MPS, and the bounds stay those of a walk that never stops."""

    @pytest.mark.parametrize("build, width", SATURATING)
    def test_bounds_equal_live_walk(self, build, width, bit_flip_model):
        circuit = build()
        config = _config(mps_width=width)
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        reference = per_gate_reference(circuit, bit_flip_model, config)
        assert result.final_delta == reference.final_delta == 2.0
        assert [node.judgment.epsilon for node in result.derivation.gate_nodes()] == (
            reference.values
        )
        assert result.error_bound == reference.error_bound
        result.derivation.check()

    @pytest.mark.parametrize("build, width", SATURATING)
    def test_mps_untouched_after_saturation(
        self, build, width, bit_flip_model, monkeypatch
    ):
        deltas = []
        for name in ("local_predicate", "apply_gate"):
            original = getattr(MPSApproximator, name)

            def spy(self, *args, _original=original):
                deltas.append(self.delta)
                return _original(self, *args)

            monkeypatch.setattr(MPSApproximator, name, spy)
        result = GleipnirAnalyzer(bit_flip_model, _config(mps_width=width)).analyze(
            build()
        )
        assert result.final_delta == 2.0
        assert max(deltas) < 2.0
        assert len(deltas) < 2 * result.num_gates

    def test_saturated_gates_share_one_class_per_gate_and_channel(
        self, bit_flip_model
    ):
        circuit = random_circuit(4, 40, seed=0)
        config = _config(mps_width=1)
        analyzer = GleipnirAnalyzer(bit_flip_model, config)
        scheduler = BoundScheduler(bit_flip_model, analyzer.cache, config)
        program = circuit.to_program()
        walk = scheduler.collect(program, [0] * circuit.num_qubits)
        assert [record.op for record in walk] == list(program.operations())
        classes: dict[tuple, set] = {}
        for record in walk:
            if record.delta_before < 2.0:
                continue
            op = record.op
            dim = 2 ** len(op.qubits)
            assert np.array_equal(record.rho_local, np.eye(dim) / dim)
            assert record.truncation_added == 0.0 and record.delta_after == 2.0
            channel = bit_flip_model.channel_for(op.gate, op.qubits)
            classes.setdefault(scheduler._key_parts(op, channel), set()).add(record.key)
        assert len(classes) > 1
        assert all(len(keys) == 1 for keys in classes.values())
        assert len(set().union(*classes.values())) == len(classes)

    def test_fork_after_saturation(self, bit_flip_model):
        """A fork at δ = 2 walks both branches saturated, estimates no
        probabilities and keeps the live walk's bounds."""
        prefix = random_circuit(4, 40, seed=0)
        then_ops = list(Circuit(4).h(1).cx(1, 2).to_program().operations())
        else_ops = list(Circuit(4).rx(0.3, 2).to_program().operations())
        program = seq(
            prefix.to_program(), IfMeasure(0, seq(*then_ops), seq(*else_ops))
        )
        config = _config(mps_width=1)
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(program, num_qubits=4)
        result.derivation.check()

        approximator = MPSApproximator.from_product_state([0] * 4, width=1)
        expected = _live_bounds(
            prefix.to_program().operations(), approximator, bit_flip_model, config
        )
        prefix_bounds = list(expected)
        forks = {outcome: child for outcome, _p, child in approximator.branch_on_measurement(0)}
        for outcome, ops in ((0, then_ops), (1, else_ops)):
            # An unreachable outcome starts from its collapsed basis state at δ = 2.
            child = forks.get(outcome) or MPSApproximator.from_product_state(
                [outcome, 0, 0, 0], width=1
            ).weaken_to(2.0)
            expected += _live_bounds(ops, child, bit_flip_model, config)
        assert [node.judgment.epsilon for node in result.derivation.gate_nodes()] == (
            expected
        )
        (meas,) = [n for n in result.derivation.nodes() if n.rule == "meas"]
        assert meas.branch_probabilities is None
        assert meas.judgment.epsilon == 1.0
        assert result.error_bound == float(sum(prefix_bounds + [1.0]))

    def test_unreachable_branch_is_saturated(self, bit_flip_model):
        """A branch the approximation deems unreachable is walked saturated
        and keeps the bounds of its collapsed basis state at δ = 2."""
        then_ops = list(Circuit(2).h(1).to_program().operations())
        else_ops = list(Circuit(2).h(0).cx(0, 1).rz(0.4, 1).to_program().operations())
        program = IfMeasure(0, seq(*then_ops), seq(*else_ops))
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(program, num_qubits=2)
        result.derivation.check()

        collapsed = MPSApproximator.from_product_state([1, 0], width=config.mps_width)
        collapsed.weaken_to(2.0)
        expected = _live_bounds(else_ops, collapsed, bit_flip_model, config)
        nodes = result.derivation.gate_nodes()[len(then_ops):]
        assert [node.judgment.epsilon for node in nodes] == expected
        assert all(node.judgment.delta == 2.0 for node in nodes)
        (meas,) = [n for n in result.derivation.nodes() if n.rule == "meas"]
        assert meas.branch_probabilities[1] == 0.0


class TestDominanceCache:
    """Each solve class is answered only by its own exact entry or a fresh
    solve: a bound certified for another δ never answers, so a bound does
    not depend on what ran earlier against the same cache."""

    @pytest.mark.parametrize(
        "stored_delta, requested_delta",
        [(0.05, 0.01), (0.01, 0.05)],
        ids=["weaker-stored", "stronger-stored"],
    )
    def test_shared_store_answers_only_the_exact_class(
        self, stored_delta, requested_delta
    ):
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())

        def lookup(cache, delta):
            return cached_gate_bound(
                cache, key_parts, HADAMARD, bit_flip(1e-3), rho, delta, config=FAST_SDP
            )

        shared = GateBoundCache(decimals=6)
        lookup(shared, stored_delta)
        answered = lookup(shared, requested_delta)
        cold = lookup(GateBoundCache(decimals=6), requested_delta)
        assert answered.value == cold.value
        assert shared.misses == 2

    def test_peek_does_not_touch_counters(self):
        """The scheduler's peek must leave all hit statistics untouched."""
        cache = GateBoundCache(decimals=6)
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        cached_gate_bound(
            cache, key_parts, HADAMARD, bit_flip(1e-3), rho, 0.05, config=FAST_SDP
        )
        key, _, _ = cache.quantise_key(key_parts, rho, 0.05)
        stronger_key, _, _ = cache.quantise_key(key_parts, rho, 0.01)
        assert cache.peek(key) is not None
        assert cache.peek(stronger_key) is None
        assert cache.hits == 0
