"""Tests for the program-level bound scheduler and its table of solved bounds."""


import numpy as np
import pytest

from helpers import per_gate_bound, per_gate_reference, random_circuit, walk_gates

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core import scheduler as scheduler_module
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.scheduler import BoundScheduler
from repro.mps import MPS
from repro.mps.approximator import MPSApproximator
from repro.noise import NoiseModel, depolarizing
from repro.programs.library import benchmark_by_name


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
    def test_matches_sequential_analyzer(self, seed, depolarizing_model):
        """The analysis certifies the bounds a gate-by-gate walk with one
        ``gate_error_bound`` per gate certifies, and solves each distinct SDP
        once: one solve per distinct bound of the derivation."""
        circuit = random_circuit(4, 24, seed=seed)
        config = _config()
        result = GleipnirAnalyzer(depolarizing_model, config).analyze(circuit)
        reference = per_gate_reference(circuit, depolarizing_model, config)
        assert result.error_bound == reference.error_bound
        assert result.num_gates == len(reference.values)
        bounds = {id(node.bound) for node in result.derivation.gate_nodes()}
        assert result.sdp_solves == len(bounds) <= result.sdp_cache_hits
        assert result.sdp_cache_hits == len(reference.values)
        assert result.scheduled_solves == result.sdp_solves

    def test_matches_sequential_with_branches(self, bit_flip_model):
        """The pre-pass mirrors measurement branching, including unreachable
        branches analysed under the vacuous predicate."""
        program, ops = _branchy_program()
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(program, num_qubits=2)
        assert_gate_nodes_match_per_gate(result, ops, bit_flip_model, config)
        assert result.num_branches == 2

    def test_unreachable_branch_collected(self, depolarizing_model):
        """A branch with approximation probability 0 is still pre-solved,
        under the vacuous predicate δ = 2."""
        then_branch, else_branch = Skip(), Circuit(1).x(0).to_program()
        config = _config()
        result = GleipnirAnalyzer(depolarizing_model, config).analyze(
            IfMeasure(0, then_branch, else_branch), num_qubits=1
        )
        assert result.scheduled_solves == 1
        (node,) = result.derivation.gate_nodes()
        assert node.judgment.delta == 2.0
        assert_gate_nodes_match_per_gate(result, [else_branch], depolarizing_model, config)

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


class TestWalkRecords:
    def test_ghz_width_one_records_paper_delta(self, ghz2_circuit, bit_flip_model):
        """Section 5.3 on the product walk: at width 1 the CNOT of GHZ-2
        truncates to |00> and the walk records δ = √2 after it."""
        program = ghz2_circuit.to_program()
        h_record, cx_record = BoundScheduler(bit_flip_model, _config(mps_width=1)).collect(
            program, [0, 0]
        )
        assert h_record.delta_after == cx_record.delta_before == 0.0
        assert np.isclose(cx_record.delta_after, np.sqrt(2.0))
        assert cx_record.truncation_added == cx_record.delta_after


class TestRoutedWalk:
    """A noisy gate on a distant pair reads its predicate after routing: its
    δ is the previous gate's δ plus the truncation of its routing swaps."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_delta_before_includes_the_routing_swaps(self, width, bit_flip_model):
        circuit = random_circuit(6, 40, seed=4)
        config = _config(mps_width=width)
        walk = BoundScheduler(bit_flip_model, config).collect(circuit.to_program(), [0] * 6)
        # Replay the walk's MPS calls and account δ independently.
        replay = MPS.zero_state(6, max_bond=width)
        previous, routed = 0.0, 0
        for record in walk_gates(walk):
            qubits = list(record.op.qubits)
            swaps = 0.0
            if len(qubits) == 2:
                for info in replay.route(qubits):
                    swaps += info.trace_norm_error
            replay.reduced_density_matrix(qubits)
            assert record.delta_before == min(2.0, previous + swaps)
            if record.delta_before >= 2.0:
                break
            routed += swaps > 0.0
            replay.apply_gate(record.op.gate.matrix, qubits)
            previous = record.delta_after
        assert routed > 0
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        result.derivation.check()


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
        self, depolarizing_model
    ):
        """Past δ = 2 only the constraint-free SDP is left, so saturated gates
        share one bound per noise channel, whatever their gate."""
        circuit = random_circuit(4, 40, seed=0)
        config = _config(mps_width=1)
        program = circuit.to_program()
        walk = BoundScheduler(depolarizing_model, config).prefill(
            program, [0] * circuit.num_qubits
        ).walk
        assert [record.op for record in walk] == list(program.operations())
        bounds: dict[int, set] = {}
        gates = set()
        for record in walk:
            if record.delta_before < 2.0:
                continue
            op = record.op
            dim = 2 ** len(op.qubits)
            assert np.array_equal(record.rho_local, np.eye(dim) / dim)
            assert record.truncation_added == 0.0 and record.delta_after == 2.0
            channel = depolarizing_model.channel_for(op.gate, op.qubits)
            bounds.setdefault(id(channel), set()).add(id(record.bound))
            gates.add(op.gate.matrix.tobytes())
        assert len(bounds) > 1 and len(gates) > len(bounds)
        assert all(len(ids) == 1 for ids in bounds.values())
        assert len(set().union(*bounds.values())) == len(bounds)

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


class TestSolvedBoundTable:
    """The scheduler puts each solved bound on its gate's walk record."""

    def test_prefill_solves_each_class_once(self, monkeypatch):
        """Repeated H on one qubit revisits its predicates: five noisy gates
        go to one batched solve, which reduces them to three distinct SDPs,
        and each record carries its own gate's bound."""
        solved = []
        batch = scheduler_module.gate_error_bounds_batch

        def spy(instances, **kwargs):
            bounds = batch(instances, **kwargs)
            solved.append(bounds)
            return bounds

        monkeypatch.setattr(scheduler_module, "gate_error_bounds_batch", spy)
        model = NoiseModel().add_gate_rule("h", depolarizing(1e-3))
        program = seq(
            Circuit(2).h(0).h(0).cx(0, 1).to_program(),
            IfMeasure(0, Circuit(2).h(0).to_program(), Circuit(2).h(0).h(0).to_program()),
        )
        report = BoundScheduler(model, _config()).prefill(program, [0, 0])
        (bounds,) = solved
        records = [record for record in walk_gates(report.walk) if record.rho_local is not None]
        assert report.num_gate_instances == len(records) == len(bounds) == 5
        assert all(record.bound is bound for record, bound in zip(records, bounds))
        assert report.num_unique_classes == len({id(b) for b in bounds}) == 3

    def test_reused_analyzer_is_bit_identical(self, depolarizing_model):
        """A second analyze() on the same analyzer solves again and
        certifies the same bounds."""
        analyzer = GleipnirAnalyzer(depolarizing_model, _config())
        program, _ops = _branchy_program()
        for subject in (random_circuit(3, 12, seed=4), program):
            first = analyzer.analyze(subject, num_qubits=3)
            second = analyzer.analyze(subject, num_qubits=3)
            assert second.error_bound == first.error_bound
            assert second.final_delta == first.final_delta
            assert [n.judgment.epsilon for n in second.derivation.gate_nodes()] == [
                n.judgment.epsilon for n in first.derivation.gate_nodes()
            ]
            assert second.sdp_solves == first.sdp_solves == first.scheduled_solves > 0
            assert second.sdp_cache_hits == first.sdp_cache_hits
