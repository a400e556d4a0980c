"""Tests for the baseline analyses (worst case, LQR full simulation, exact error)."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, ResourceGuard, SDPConfig
from repro.core import (
    GleipnirAnalyzer,
    exact_error,
    lqr_full_simulation_bound,
    worst_case_bound,
)
from repro.noise import NoiseModel

from helpers import random_circuit


FAST = AnalysisConfig(
    mps_width=8,
    sdp=SDPConfig(max_iterations=300, tolerance=1e-5),
    guard=ResourceGuard(max_dense_qubits=8),
)


class TestWorstCase:
    def test_equals_gate_count_times_p(self):
        p = 1e-3
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).rz(0.2, 2)
        outcome = worst_case_bound(circuit, NoiseModel.uniform_bit_flip(p), config=FAST)
        assert np.isclose(outcome.value, 4 * p, atol=1e-7)

    def test_noiseless_gates_do_not_count(self):
        p = 1e-3
        model = NoiseModel()
        from repro.noise import bit_flip

        model.add_gate_rule("cx", bit_flip(p).tensor(bit_flip(0.0)))
        circuit = Circuit(2).h(0).cx(0, 1)
        outcome = worst_case_bound(circuit, model, config=FAST)
        assert np.isclose(outcome.value, p, atol=1e-7)

    def test_independent_of_input_state(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1)
        model = NoiseModel.uniform_bit_flip(1e-2)
        assert worst_case_bound(circuit, model, config=FAST).value == pytest.approx(3e-2, abs=1e-6)


    def test_measurement_fork_takes_the_larger_branch(self):
        """A fork's branch errors are weighted convexly by its outcomes, so
        the worst case takes the larger branch; a skip contributes 0."""
        p = 1e-3
        model = NoiseModel.uniform_bit_flip(p)
        prefix = Circuit(2).h(0).to_program()

        def forked(then_branch, else_branch):
            program = seq(prefix, IfMeasure(0, then_branch, else_branch))
            return worst_case_bound(program, model, config=FAST).value

        x1 = Circuit(2).x(1).to_program()
        z1 = Circuit(2).z(1).to_program()
        longer = Circuit(2).z(1).x(1).h(0).to_program()
        assert forked(x1, z1) == pytest.approx(2 * p, abs=1e-7)
        assert forked(x1, longer) == pytest.approx(4 * p, abs=1e-7)
        assert forked(longer, x1) == pytest.approx(4 * p, abs=1e-7)
        assert forked(Skip(), x1) == pytest.approx(2 * p, abs=1e-7)

    def test_one_solve_per_distinct_channel(self, monkeypatch):
        """Every CX shares one SDP; the sum equals the per-gate diamond
        distances.  Depolarizing noise has no closed form, so each channel
        needs its SDP."""
        from repro.core import baselines
        from repro.linalg.channels import unitary_channel
        from repro.sdp import diamond_distance

        circuit = random_circuit(4, 30, seed=3)
        model = NoiseModel.uniform_depolarizing(2e-3)
        batches = []
        solve = baselines.constrained_diamond_norms_batch

        def counting(requests, **kwargs):
            batches.append(len(requests))
            return solve(requests, **kwargs)

        monkeypatch.setattr(baselines, "constrained_diamond_norms_batch", counting)
        outcome = worst_case_bound(circuit, model, config=FAST)
        operations = list(circuit.to_program().operations())
        assert batches == [len({op.gate.num_qubits for op in operations})]
        per_gate = sum(
            diamond_distance(
                model.noisy_gate_channel(op.gate, op.qubits),
                unitary_channel(op.gate.matrix),
                config=FAST.sdp,
            ).value
            for op in operations
        )
        assert outcome.value == pytest.approx(per_gate, rel=1e-6)


class TestLQRBaseline:
    def test_matches_gleipnir_on_small_programs(self, ghz3_circuit):
        """Table 2's 10-qubit rows: exact predicates = MPS predicates when exact."""
        model = NoiseModel.uniform_bit_flip(1e-3)
        lqr = lqr_full_simulation_bound(ghz3_circuit, model, config=FAST)
        gleipnir = GleipnirAnalyzer(model, FAST.replace(mps_width=8)).analyze(ghz3_circuit)
        assert lqr.value == pytest.approx(gleipnir.error_bound, rel=1e-3, abs=1e-7)

    def test_times_out_beyond_guard(self):
        model = NoiseModel.uniform_bit_flip(1e-3)
        big = Circuit(12).h_layer()
        outcome = lqr_full_simulation_bound(big, model, config=FAST)
        assert outcome.timed_out
        assert outcome.value is None
        assert not outcome.available

    def test_batch_equals_per_gate_bounds(self):
        """One batched solve gives the bounds of solving gate by gate."""
        from repro.linalg.partial_trace import partial_trace_keep
        from repro.linalg.states import basis_state
        from repro.sdp import gate_error_bound
        from repro.semantics.density import apply_gate_to_density

        circuit = random_circuit(4, 12, seed=9)
        model = NoiseModel.uniform_bit_flip(5e-3)
        rho = np.outer(basis_state([0] * 4), basis_state([0] * 4).conj())
        per_gate = 0.0
        for op in circuit.to_program().operations():
            local = partial_trace_keep(rho, op.qubits)
            channel = model.channel_for(op.gate, op.qubits)
            bound = gate_error_bound(op.gate.matrix, channel, local, 0.0, config=FAST.sdp)
            per_gate += bound.value
            rho = apply_gate_to_density(rho, op.gate.matrix, op.qubits, 4)
        lqr = lqr_full_simulation_bound(circuit, model, config=FAST)
        assert lqr.value == pytest.approx(per_gate, rel=1e-12)

    def test_bound_dominates_exact(self):
        circuit = random_circuit(4, 10, seed=5)
        model = NoiseModel.uniform_bit_flip(5e-3)
        lqr = lqr_full_simulation_bound(circuit, model, config=FAST)
        exact = exact_error(circuit, model, guard=FAST.guard)
        assert lqr.value >= exact.value - 1e-9


class TestExactError:
    def test_exact_error_small_circuit(self, ghz2_circuit):
        model = NoiseModel.uniform_bit_flip(1e-2)
        outcome = exact_error(ghz2_circuit, model)
        assert outcome.available
        assert 0 < outcome.value < 3e-2

    def test_exact_error_times_out(self):
        model = NoiseModel.uniform_bit_flip(1e-2)
        outcome = exact_error(Circuit(12).h_layer(), model, guard=ResourceGuard(max_dense_qubits=6))
        assert outcome.timed_out

    def test_initial_bits(self):
        model = NoiseModel.uniform_bit_flip(1.0)
        circuit = Circuit(1).x(0)
        outcome = exact_error(circuit, model, initial_bits="1")
        assert np.isclose(outcome.value, 1.0)
