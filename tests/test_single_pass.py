"""Tests for the single-pass pipeline: the ReplayTape and its consumption.

The scheduler's pre-pass records every approximator fact into a
:class:`~repro.core.derivation.ReplayTape`; the analyzer rebuilds the
derivation from the tape without a second MPS walk.  These tests verify

* the instrumentation contract: the MPS evolves through each gate exactly
  once per analysed input, scheduled or sequential (the counter test of the
  acceptance criteria);
* that replayed analyses are *bit-identical* to live sequential ones;
* that a bound does not depend on what the process analysed before it;
* the tape's defensive alignment checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.derivation import ReplayTape, TapeGate, TapeMeasure, TapeSkip
from repro.engine.pool import execute_job
from repro.engine.spec import AnalysisJob
from repro.errors import LogicError
from repro.mps.approximator import MPSApproximator
from repro.noise import NoiseModel

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
        """The scheduled path applies each gate to an MPS exactly once."""
        circuit = random_circuit(4, 20, seed=3)
        result = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            circuit
        )
        assert result.num_gates == 20
        assert count_mps_gate_applications["count"] == 20
        assert result.mps_walks == 1

    def test_sequential_path_also_walks_once(
        self, bit_flip_model, count_mps_gate_applications
    ):
        circuit = random_circuit(4, 20, seed=3)
        result = GleipnirAnalyzer(bit_flip_model, _config(scheduler=False)).analyze(
            circuit
        )
        assert count_mps_gate_applications["count"] == 20
        assert result.mps_walks == 1

    def test_counter_with_measurement_branches(
        self, bit_flip_model, count_mps_gate_applications
    ):
        """Branches (including the unreachable one) are walked exactly once."""
        program = seq(
            Circuit(2).h(0).to_program(),
            IfMeasure(0, Circuit(2).x(1).to_program(), Circuit(2).h(1).to_program()),
        )
        GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            program, num_qubits=2
        )
        scheduled_count = count_mps_gate_applications["count"]
        count_mps_gate_applications["count"] = 0
        GleipnirAnalyzer(bit_flip_model, _config(scheduler=False)).analyze(
            program, num_qubits=2
        )
        assert scheduled_count == count_mps_gate_applications["count"]


class TestReplayBitIdentity:
    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_replayed_bounds_equal_sequential_exactly(self, seed, bit_flip_model):
        """Tape replay + batched solves reproduce the sequential bounds bit
        for bit (the per-gate path runs the same batched primitives)."""
        circuit = random_circuit(4, 24, seed=seed)
        scheduled = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            circuit
        )
        sequential = GleipnirAnalyzer(
            bit_flip_model, _config(scheduler=False)
        ).analyze(circuit)
        assert scheduled.error_bound == sequential.error_bound
        assert scheduled.final_delta == sequential.final_delta

    def test_replayed_derivation_verifies(self, bit_flip_model):
        result = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            random_circuit(3, 10, seed=6)
        )
        assert result.derivation is not None
        result.derivation.check()

    def test_branchy_program_replay(self, bit_flip_model):
        program = IfMeasure(0, Skip(), Circuit(1).x(0).to_program())
        scheduled = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            program, num_qubits=1
        )
        sequential = GleipnirAnalyzer(
            bit_flip_model, _config(scheduler=False)
        ).analyze(program, num_qubits=1)
        assert scheduled.error_bound == sequential.error_bound


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


class TestReplayTapeAlignment:
    def test_take_wrong_kind_raises(self):
        tape = ReplayTape()
        tape.record(TapeSkip(delta=0.0))
        with pytest.raises(LogicError, match="out of step"):
            tape.take(TapeGate)

    def test_take_past_end_raises(self):
        tape = ReplayTape()
        with pytest.raises(LogicError, match="exhausted"):
            tape.take(TapeMeasure)

    def test_verify_exhausted(self):
        tape = ReplayTape()
        tape.record(TapeSkip(delta=0.1))
        with pytest.raises(LogicError, match="consumed 0 of 1"):
            tape.verify_exhausted()
        assert tape.take(TapeSkip).delta == 0.1
        tape.verify_exhausted()  # no raise

    def test_rewind_and_counts(self):
        tape = ReplayTape()
        tape.record(TapeGate(0.0, None, 0.0, 0.0))
        tape.record(TapeSkip(delta=0.0))
        assert len(tape) == 2
        assert tape.num_gates == 1
        tape.take(TapeGate)
        tape.rewind()
        assert tape.take(TapeGate).truncation_added == 0.0


class TestEngineThreading:
    def test_job_result_reports_single_pass(self, bit_flip_model):
        """Engine jobs surface the MPS-walk instrumentation."""
        job = AnalysisJob.from_circuit(
            random_circuit(3, 8, seed=1), bit_flip_model, config=_config()
        )
        result = execute_job(job)
        assert result.ok
        assert result.mps_walks == 1
