"""Tests for the single-pass pipeline: one walk builds the derivation.

The scheduler's walk returns a tree of walk records that mirrors the
normalised program, each noisy gate's record carrying its class key; the
analyzer folds that tree into the derivation without a second MPS walk,
without reading the program again and without quantising again.  These
tests verify

* the instrumentation contract: the MPS evolves through each gate exactly
  once per analysed input (the counter test of the acceptance criteria);
* that analyses are *bit-identical* to a gate-by-gate reference that walks
  a live MPS and solves each gate alone with ``gate_error_bound``;
* that the walk quantises every predicate in one stacked pass and the
  fold quantises none;
* that a bound does not depend on what the process analysed before it;
* the shape of the walk tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_gate_bound, per_gate_reference, random_circuit

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core import scheduler as scheduler_module
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.scheduler import BoundScheduler, WalkGate, WalkMeasure, WalkSkip
from repro.engine.pool import execute_job
from repro.engine.spec import AnalysisJob
from repro.mps.approximator import MPSApproximator
from repro.noise import NoiseModel, bit_flip

FAST_SDP = SDPConfig(max_iterations=400, tolerance=1e-5)


def _config(**kwargs) -> AnalysisConfig:
    base = dict(mps_width=8, sdp=FAST_SDP)
    base.update(kwargs)
    return AnalysisConfig(**base)


@pytest.fixture
def count_mps_gate_applications(monkeypatch):
    """Counts every gate the MPS machinery actually evolves through."""
    calls = {"count": 0}
    original = MPSApproximator.apply_gate

    def counting(self, matrix, qubits):
        calls["count"] += 1
        return original(self, matrix, qubits)

    monkeypatch.setattr(MPSApproximator, "apply_gate", counting)
    return calls


class TestSinglePassCounter:
    def test_mps_walk_runs_once_with_scheduler(
        self, bit_flip_model, count_mps_gate_applications
    ):
        """The analysis applies each gate to an MPS exactly once."""
        circuit = random_circuit(4, 20, seed=3)
        result = GleipnirAnalyzer(bit_flip_model, _config()).analyze(circuit)
        assert result.num_gates == 20
        assert count_mps_gate_applications["count"] == 20
        assert result.mps_walks == 1

    def test_sequential_path_also_walks_once(
        self, bit_flip_model, count_mps_gate_applications
    ):
        """One walk suffices for bounds that match the gate-by-gate walk."""
        circuit = random_circuit(4, 20, seed=3)
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        assert count_mps_gate_applications["count"] == 20
        assert result.mps_walks == 1
        reference = per_gate_reference(circuit, bit_flip_model, config)
        assert count_mps_gate_applications["count"] == 40
        assert [node.judgment.epsilon for node in result.derivation.gate_nodes()] == (
            reference.values
        )

    def test_counter_with_measurement_branches(
        self, bit_flip_model, count_mps_gate_applications
    ):
        """Branches (including the unreachable one) are walked exactly once."""
        program = seq(
            Circuit(2).h(0).to_program(),
            IfMeasure(0, Circuit(2).x(1).to_program(), Circuit(2).h(1).to_program()),
        )
        result = GleipnirAnalyzer(bit_flip_model, _config()).analyze(
            program, num_qubits=2
        )
        assert result.num_gates == 3
        assert count_mps_gate_applications["count"] == result.num_gates


class TestOneQuantisationPass:
    def test_walk_quantises_once_and_replay_never(self, bit_flip_model, monkeypatch):
        """One stacked quantisation per analysis, holding every noisy gate."""
        batches = []
        stacked = scheduler_module.quantise_predicates

        def counting_stacked(rhos, *args):
            batches.append(len(rhos))
            return stacked(rhos, *args)

        monkeypatch.setattr(scheduler_module, "quantise_predicates", counting_stacked)
        program = seq(
            random_circuit(2, 12, seed=5).to_program(),
            IfMeasure(0, Circuit(2).x(1).to_program(), Skip()),
        )
        result = GleipnirAnalyzer(bit_flip_model, _config()).analyze(
            program, num_qubits=2
        )
        assert batches == [result.num_gates]
        assert result.sdp_cache_hits == result.num_gates


class TestReplayBitIdentity:
    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_replayed_bounds_equal_sequential_exactly(self, seed, bit_flip_model):
        """Tape replay + batched, deduplicated solves reproduce the bounds of
        a live gate-by-gate walk with one ``gate_error_bound`` per gate, bit
        for bit."""
        circuit = random_circuit(4, 24, seed=seed)
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        reference = per_gate_reference(circuit, bit_flip_model, config)
        assert result.error_bound == reference.error_bound
        assert result.final_delta == reference.final_delta

    def test_replayed_derivation_verifies(self, bit_flip_model):
        result = GleipnirAnalyzer(bit_flip_model, _config()).analyze(
            random_circuit(3, 10, seed=6)
        )
        assert result.derivation is not None
        result.derivation.check()

    def test_branchy_program_replay(self, bit_flip_model):
        """The unreachable branch's gate is bounded alone under δ = 2."""
        x0 = Circuit(1).x(0).to_program()
        config = _config()
        result = GleipnirAnalyzer(bit_flip_model, config).analyze(
            IfMeasure(0, Skip(), x0), num_qubits=1
        )
        (node,) = result.derivation.gate_nodes()
        assert result.error_bound == node.judgment.epsilon
        assert node.judgment.epsilon == per_gate_bound(
            x0, bit_flip_model, config, node.rho_local, 2.0
        )


# A small gate vocabulary for generated suffixes.
_GATE_NAMES = ["h", "x", "rx", "rz", "cx"]


def _apply(circuit: Circuit, gate: tuple[str, int, int, float]) -> Circuit:
    name, qubit, other, angle = gate
    if name in ("rx", "rz"):
        return getattr(circuit, name)(angle, qubit)
    if name == "cx":
        return circuit.cx(qubit, other)
    return getattr(circuit, name)(qubit)


def _gate_strategy(num_qubits: int):
    return st.tuples(
        st.sampled_from(_GATE_NAMES),
        st.integers(min_value=0, max_value=num_qubits - 1),
        st.integers(min_value=0, max_value=num_qubits - 1),
        st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
    ).filter(lambda gate: gate[0] != "cx" or gate[1] != gate[2])


class TestOrderIndependence:
    CONFIG = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
    MODEL = NoiseModel.uniform_bit_flip(1e-3)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        prefix_depth=st.integers(min_value=2, max_value=8),
        suffix=st.lists(_gate_strategy(3), min_size=1, max_size=4),
    )
    def test_earlier_analyses_leave_bounds_bit_identical(self, seed, prefix_depth, suffix):
        """Property: analysing a program's prefix and an unrelated program
        first leaves the extended program's bound and δ bit-identical to its
        first analysis."""
        # Circuit builders mutate in place: build the shared prefix twice
        # (same seed => identical program) instead of aliasing it.
        prefix = random_circuit(3, prefix_depth, seed=seed)
        extended = random_circuit(3, prefix_depth, seed=seed)
        for gate in suffix:
            extended = _apply(extended, gate)

        def analyze(circuit):
            return GleipnirAnalyzer(self.MODEL, self.CONFIG).analyze(circuit)

        first = analyze(extended)
        analyze(prefix)
        analyze(random_circuit(3, prefix_depth + 2, seed=seed + 1))
        again = analyze(extended)
        assert again.error_bound == first.error_bound
        assert again.final_delta == first.final_delta


class TestWalkTree:
    def test_tree_mirrors_the_program(self, bit_flip_model):
        """A tuple per Seq and a record per gate, fork and skip, with both
        branches walked in place: the fold needs nothing but the tree."""
        h0 = Circuit(2).h(0).to_program()
        then_branch = Circuit(2).x(1).z(1).to_program()
        program = seq(h0, IfMeasure(0, then_branch, Skip()))
        scheduler = BoundScheduler(bit_flip_model, _config())
        gate, fork = scheduler.collect(program, [0, 0])

        assert isinstance(gate, WalkGate) and gate.op is h0
        assert gate.bound is None and gate.rho_local.shape == (2, 2)
        assert isinstance(fork, WalkMeasure) and fork.qubit == 0
        assert fork.probabilities == pytest.approx((0.5, 0.5))
        assert [record.op for record in fork.then_branch] == list(then_branch.parts)
        assert fork.else_branch == WalkSkip(delta=0.0)

    def test_noiseless_gates_carry_no_key(self):
        model = NoiseModel().add_gate_rule("x", bit_flip(1e-3))
        program = Circuit(1).h(0).x(0).to_program()
        report = BoundScheduler(model, _config()).prefill(program, [0])
        h_record, x_record = report.walk
        assert h_record.bound is None and h_record.rho_local is None
        assert x_record.bound is not None and x_record.rho_local is not None
        assert report.num_gate_instances == 1


class TestEngineThreading:
    def test_job_result_reports_single_pass(self, bit_flip_model):
        """Engine jobs surface the MPS-walk instrumentation."""
        job = AnalysisJob.from_circuit(
            random_circuit(3, 8, seed=1), bit_flip_model, config=_config()
        )
        result = execute_job(job)
        assert result.ok
        assert result.mps_walks == 1
