"""Tests for ReplayTape prefix memoisation (``core/scheduler.py``).

The contract under test: a prefix-memoised (warm) analysis is **bit-identical**
to a cold one — same error bound, same final delta — while reusing the
recorded walk of every shared top-level step.  Memoisation is an execution
knob (``AnalysisConfig.tape_memo``); it never changes fingerprints or
results, only how the tape is produced.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.core import scheduler
from repro.core.analyzer import analyze_program
from repro.core.scheduler import clear_tape_memo, tape_memo_stats
from repro.noise import NoiseModel

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
NO_MEMO = FAST.replace(tape_memo=False)
MODEL = NoiseModel.uniform_bit_flip(1e-3)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Every test starts and ends with an empty process-wide tape memo."""
    clear_tape_memo()
    yield
    clear_tape_memo()


def _analyze(circuit: Circuit, config: AnalysisConfig = FAST):
    return analyze_program(circuit, MODEL, config=config)


# A small gate vocabulary for generated suffixes: (name, arity).
_GATES = [("h", 1), ("x", 1), ("rx", 1), ("rz", 1), ("cx", 2)]


def _apply(circuit: Circuit, gate: tuple[str, int, int, float]) -> Circuit:
    name, qubit, other, angle = gate
    if name == "rx":
        return circuit.rx(angle, qubit)
    if name == "rz":
        return circuit.rz(angle, qubit)
    if name == "cx":
        return circuit.cx(qubit, other)
    return getattr(circuit, name)(qubit)


def _gate_strategy(num_qubits: int):
    return st.tuples(
        st.sampled_from([name for name, _arity in _GATES]),
        st.integers(min_value=0, max_value=num_qubits - 1),
        st.integers(min_value=0, max_value=num_qubits - 1),
        st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
    ).filter(lambda gate: gate[0] != "cx" or gate[1] != gate[2])


class TestBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        prefix_depth=st.integers(min_value=2, max_value=8),
        suffix=st.lists(_gate_strategy(3), min_size=1, max_size=4),
    )
    def test_prefix_hit_bit_identical_to_cold(self, seed, prefix_depth, suffix):
        """Property: for any shared prefix and any divergent suffix, the warm
        analysis (prefix served from the memo) equals the cold one bit for bit."""
        # Circuit builders mutate in place: build the shared prefix twice
        # (same seed => identical program) instead of aliasing it.
        prefix = random_circuit(3, prefix_depth, seed=seed)
        extended = random_circuit(3, prefix_depth, seed=seed)
        for gate in suffix:
            extended = _apply(extended, gate)

        # Cold reference with memoisation off entirely.
        cold = _analyze(extended, NO_MEMO)
        assert cold.tape_steps_reused == 0

        # Seed the memo with the prefix, then analyze the extension warm.
        clear_tape_memo()
        _analyze(prefix)
        warm = _analyze(extended)

        assert warm.tape_steps_reused > 0
        assert warm.error_bound == cold.error_bound
        assert warm.final_delta == cold.final_delta

    def test_identical_rerun_reuses_every_step(self):
        circuit = random_circuit(3, 12, seed=5)
        first = _analyze(circuit)
        assert first.tape_steps_reused == 0
        again = _analyze(circuit)
        assert again.tape_steps_reused > 0
        assert again.error_bound == first.error_bound
        assert again.final_delta == first.final_delta


class TestKnobsAndStats:
    def test_tape_memo_off_never_reuses(self):
        circuit = random_circuit(3, 10, seed=7)
        _analyze(circuit, NO_MEMO)
        repeat = _analyze(circuit, NO_MEMO)
        assert repeat.tape_steps_reused == 0
        assert tape_memo_stats()["entries"] == 0

    def test_stats_count_hits_and_misses(self):
        circuit = random_circuit(3, 8, seed=11)
        _analyze(circuit)
        after_cold = tape_memo_stats()
        assert after_cold["misses"] >= 1
        assert after_cold["entries"] > 0
        _analyze(circuit)
        after_warm = tape_memo_stats()
        assert after_warm["hits"] == after_cold["hits"] + 1
        assert after_warm["steps_reused"] > 0

    def test_clear_empties_the_memo(self):
        _analyze(random_circuit(2, 6, seed=3))
        assert tape_memo_stats()["entries"] > 0
        clear_tape_memo()
        assert tape_memo_stats()["entries"] == 0

    def test_different_noise_models_do_not_share_entries(self):
        """The memo key includes the environment: a different noise model must
        re-walk, and its results must match its own memo-off reference."""
        circuit = random_circuit(2, 8, seed=13)
        _analyze(circuit)  # seed the memo under MODEL
        other_model = NoiseModel.uniform_bit_flip(5e-3)
        warm = analyze_program(circuit, other_model, config=FAST)
        assert warm.tape_steps_reused == 0  # no cross-environment reuse
        cold = analyze_program(circuit, other_model, config=NO_MEMO)
        assert warm.error_bound == cold.error_bound

    def test_different_mps_width_does_not_share_entries(self):
        circuit = random_circuit(2, 8, seed=17)
        _analyze(circuit)
        wider = FAST.replace(mps_width=8)
        warm = analyze_program(circuit, MODEL, config=wider)
        assert warm.tape_steps_reused == 0
        cold = analyze_program(circuit, MODEL, config=wider.replace(tape_memo=False))
        assert warm.error_bound == cold.error_bound


def _chain(first: str, depth: int) -> Circuit:
    """A 3-qubit circuit of ``depth`` top-level steps opening with gate ``first``.

    Distinct openings give distinct memo chains, so no two of these circuits
    share an entry.
    """
    circuit = getattr(Circuit(3, name=f"chain_{first}"), first)(0)
    for step in range(1, depth):
        circuit = circuit.rx(0.1 * step, step % 3) if step % 2 else circuit.cx(step % 3, 0)
    return circuit


class TestRecency:
    DEPTH = 4

    def test_hit_refreshes_recency(self, monkeypatch):
        """A is re-read after B fills the memo, so C's store evicts B, not A."""
        monkeypatch.setattr(scheduler, "TAPE_MEMO_MAX_STEPS", 2 * self.DEPTH)
        monkeypatch.setattr(scheduler, "TAPE_MEMO_MAX_SNAPSHOTS", 2 * self.DEPTH)
        a, b, c = (_chain(first, self.DEPTH) for first in ("h", "x", "z"))
        _analyze(a)
        _analyze(b)
        assert tape_memo_stats()["entries"] == 2 * self.DEPTH
        assert _analyze(a).tape_steps_reused == self.DEPTH
        _analyze(c)
        assert _analyze(a).tape_steps_reused == self.DEPTH
        assert _analyze(b).tape_steps_reused == 0

    def test_only_the_newest_entries_keep_a_snapshot(self, monkeypatch):
        monkeypatch.setattr(scheduler, "TAPE_MEMO_MAX_SNAPSHOTS", 3)
        for first in ("h", "x", "z"):
            _analyze(_chain(first, self.DEPTH))
        keys = list(scheduler._TAPE_MEMO)
        assert len(keys) == 3 * self.DEPTH
        holding = [key for key in keys if scheduler._TAPE_MEMO[key].snapshot is not None]
        assert holding == keys[-3:]
        assert list(scheduler._TAPE_MEMO_SNAPSHOTS) == holding

    def test_concurrent_hits_and_stores_keep_the_memo_consistent(self, monkeypatch):
        """Threads racing hits against evicting stores: every analysis stays
        bit-identical to its memo-off reference, and the snapshot tracker
        names exactly the entries that still hold a snapshot."""
        monkeypatch.setattr(scheduler, "TAPE_MEMO_MAX_STEPS", 3 * self.DEPTH)
        monkeypatch.setattr(scheduler, "TAPE_MEMO_MAX_SNAPSHOTS", 2)
        circuits = [_chain(first, self.DEPTH) for first in ("h", "x", "z", "s", "t")]
        expected = [_analyze(circuit, NO_MEMO).error_bound for circuit in circuits]
        failures = []

        def worker(offset: int) -> None:
            for step in range(6):
                index = (offset + step) % len(circuits)
                if _analyze(circuits[index]).error_bound != expected[index]:
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        holding = [key for key, entry in scheduler._TAPE_MEMO.items() if entry.snapshot is not None]
        assert sorted(scheduler._TAPE_MEMO_SNAPSHOTS) == sorted(holding)
        assert len(holding) <= 2
        assert len(scheduler._TAPE_MEMO) <= 3 * self.DEPTH


class TestMeasurementBoundary:
    def test_memo_stops_at_first_measuring_step(self):
        """Steps at or after the first measurement are never memoised — the
        recorded walk would not be branch-safe — but the shared gate prefix
        before it still is, and results stay bit-identical."""
        circuit = (
            Circuit(2, name="measured")
            .h(0)
            .cx(0, 1)
            .if_measure(0, lambda c: c.x(1), lambda c: c.z(1))
            .x(1)
        )
        cold = _analyze(circuit, NO_MEMO)
        _analyze(circuit)
        warm = _analyze(circuit)
        # Only the two pre-measurement steps are eligible for reuse.
        assert 0 < warm.tape_steps_reused <= 2
        assert warm.error_bound == cold.error_bound
        assert warm.final_delta == cold.final_delta
