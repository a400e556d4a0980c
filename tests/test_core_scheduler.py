"""Tests for the program-level bound scheduler and the cache's new layers."""

import dataclasses

import numpy as np
import pytest

from helpers import random_circuit

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, Skip, seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import GleipnirAnalyzer
from repro.linalg import HADAMARD, pure_density, zero_state
from repro.noise import bit_flip
from repro.sdp import GateBoundCache, diamond


FAST_SDP = SDPConfig(max_iterations=400, tolerance=1e-5)


def _config(**kwargs) -> AnalysisConfig:
    base = dict(mps_width=8, sdp=FAST_SDP)
    base.update(kwargs)
    return AnalysisConfig(**base)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_analyzer(self, seed, bit_flip_model):
        """Scheduled and sequential analyses certify the same bounds."""
        circuit = random_circuit(4, 24, seed=seed)
        scheduled = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            circuit
        )
        sequential = GleipnirAnalyzer(
            bit_flip_model, _config(scheduler=False)
        ).analyze(circuit)
        # Identical solves run in both paths (batch iterates in lock-step),
        # so the certified bounds agree to numerical noise.
        assert scheduled.error_bound == pytest.approx(
            sequential.error_bound, rel=1e-9, abs=1e-12
        )
        assert scheduled.num_gates == sequential.num_gates
        assert scheduled.sdp_solves == sequential.sdp_solves
        assert scheduled.scheduled_solves == scheduled.sdp_solves

    def test_matches_sequential_with_branches(self, bit_flip_model):
        """The pre-pass mirrors measurement branching, including unreachable
        branches analysed under the vacuous predicate."""
        then_branch = Circuit(2).x(1).to_program()
        else_branch = Circuit(2).h(1).to_program()
        program = seq(
            Circuit(2).h(0).to_program(),
            IfMeasure(0, then_branch, else_branch),
        )
        scheduled = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            program, num_qubits=2
        )
        sequential = GleipnirAnalyzer(
            bit_flip_model, _config(scheduler=False)
        ).analyze(program, num_qubits=2)
        assert scheduled.error_bound == pytest.approx(
            sequential.error_bound, rel=1e-9, abs=1e-12
        )
        assert scheduled.num_branches == sequential.num_branches

    def test_unreachable_branch_collected(self, bit_flip_model):
        """A branch with approximation probability 0 is still pre-solved."""
        program = IfMeasure(0, Skip(), Circuit(1).x(0).to_program())
        scheduled = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            program, num_qubits=1
        )
        sequential = GleipnirAnalyzer(
            bit_flip_model, _config(scheduler=False)
        ).analyze(program, num_qubits=1)
        assert scheduled.error_bound == pytest.approx(
            sequential.error_bound, rel=1e-9, abs=1e-12
        )

    def test_derivation_verifies(self, bit_flip_model):
        """Every certificate in a scheduled derivation re-verifies."""
        circuit = random_circuit(3, 12, seed=9)
        result = GleipnirAnalyzer(bit_flip_model, _config(scheduler=True)).analyze(
            circuit
        )
        assert result.derivation is not None
        result.derivation.check()  # raises on any unsound step


class TestDominanceCache:
    """Each solve class is answered only by its own exact entry or a fresh
    solve: a bound certified for another δ never answers, so a bound does
    not depend on what ran earlier against the same store."""

    @pytest.mark.parametrize(
        "stored_delta, requested_delta",
        [(0.05, 0.01), (0.01, 0.05)],
        ids=["weaker-stored", "stronger-stored"],
    )
    def test_shared_store_answers_only_the_exact_class(
        self, tmp_path, stored_delta, requested_delta
    ):
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())

        def lookup(cache, delta):
            return cache.lookup_or_compute(
                key_parts, HADAMARD, bit_flip(1e-3), rho, delta, config=FAST_SDP
            )

        lookup(GateBoundCache(decimals=6, store_path=str(tmp_path)), stored_delta)
        shared = GateBoundCache(decimals=6, store_path=str(tmp_path))
        lookup(shared, stored_delta)
        assert shared.persistent_hits == 1
        answered = lookup(shared, requested_delta)
        cold = lookup(GateBoundCache(decimals=6), requested_delta)
        assert answered.value == cold.value
        assert shared.misses == 1

    def test_peek_does_not_touch_counters(self):
        """The scheduler's peek must leave all hit statistics untouched."""
        cache = GateBoundCache(decimals=6)
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.05, config=FAST_SDP
        )
        key, _, _ = cache.quantise_key(key_parts, rho, 0.05)
        stronger_key, _, _ = cache.quantise_key(key_parts, rho, 0.01)
        assert cache.peek(key) is not None
        assert cache.peek(stronger_key) is None
        assert cache.hits == 0
        assert cache.persistent_hits == 0


class TestPersistentCache:
    def test_second_run_starts_warm(self, tmp_path, bit_flip_model):
        circuit = random_circuit(4, 16, seed=3)
        config = _config(
            sdp=SDPConfig(
                max_iterations=400,
                tolerance=1e-5,
                persistent_cache_path=str(tmp_path),
            )
        )
        first = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        assert first.sdp_solves > 0
        assert len(list(tmp_path.iterdir())) == first.sdp_solves
        second = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        assert second.sdp_solves == 0
        assert second.error_bound == first.error_bound

    @pytest.mark.parametrize(
        "filler",
        [SDPConfig(mode="fast"), SDPConfig(max_iterations=50, tolerance=1e-5)],
        ids=["fast-mode", "low-cap"],
    )
    def test_store_never_answers_for_a_different_solver(
        self, tmp_path, bit_flip_model, filler
    ):
        """A store filled under looser solver settings must not answer the
        default certified analysis: the warm run reports the cold bound."""
        circuit = random_circuit(4, 16, seed=3)
        cold = GleipnirAnalyzer(bit_flip_model, _config(sdp=SDPConfig())).analyze(circuit)
        filler = dataclasses.replace(filler, persistent_cache_path=str(tmp_path))
        filled = GleipnirAnalyzer(bit_flip_model, _config(sdp=filler)).analyze(circuit)
        assert filled.error_bound > cold.error_bound
        target = SDPConfig(persistent_cache_path=str(tmp_path))
        warm = GleipnirAnalyzer(bit_flip_model, _config(sdp=target)).analyze(circuit)
        assert warm.sdp_solves == cold.sdp_solves
        assert warm.error_bound == cold.error_bound

    def test_store_binds_admm_rule(self, tmp_path, monkeypatch):
        """Entries certified by another solver are not served."""
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        first = GateBoundCache(decimals=6, store_path=str(tmp_path))
        first.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        monkeypatch.setattr(diamond, "SOLVER_VERSION", "some-other-rule")
        second = GateBoundCache(decimals=6, store_path=str(tmp_path))
        second.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        assert second.persistent_hits == 0
        assert second.misses == 1

    def test_corrupt_entries_are_ignored(self, tmp_path, bit_flip_model):
        circuit = random_circuit(3, 8, seed=4)
        config = _config(
            sdp=SDPConfig(
                max_iterations=400,
                tolerance=1e-5,
                persistent_cache_path=str(tmp_path),
            )
        )
        first = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not an npz file")
        second = GleipnirAnalyzer(bit_flip_model, config).analyze(circuit)
        assert second.sdp_solves == first.sdp_solves
        assert second.error_bound == pytest.approx(
            first.error_bound, rel=1e-9, abs=1e-12
        )

    def test_tampered_certificate_rejected(self, tmp_path):
        """A disk entry whose certificate no longer verifies is discarded."""
        cache = GateBoundCache(decimals=6, store_path=str(tmp_path))
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        (path,) = list(tmp_path.iterdir())
        with np.load(path, allow_pickle=False) as data:
            payload = dict(data)
        payload["value"] = np.array(payload["value"] / 10.0)  # claim a tighter bound
        np.savez(path.with_suffix(""), **payload)

        fresh_cache = GateBoundCache(decimals=6, store_path=str(tmp_path))
        fresh_cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        # The tampered entry must not be trusted: the bound is recomputed.
        assert fresh_cache.persistent_hits == 0
        assert fresh_cache.misses == 1

    def test_internally_consistent_fake_entry_rejected(self, tmp_path):
        """An entry whose certificate verifies against its *own* stored choi
        but not against the request's recomputed problem must be rejected."""
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        cache = GateBoundCache(decimals=6, store_path=str(tmp_path))
        cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        (path,) = list(tmp_path.iterdir())
        with np.load(path, allow_pickle=False) as data:
            payload = dict(data)
        # Zero problem + zero certificate + value 0: internally consistent.
        payload["choi"] = np.zeros_like(payload["choi"])
        payload["z"] = np.zeros_like(payload["z"])
        payload["y"] = np.array(0.0)
        payload["constraint_operator"] = np.empty(0)
        payload["value"] = np.array(0.0)
        np.savez(path.with_suffix(""), **payload)

        fresh = GateBoundCache(decimals=6, store_path=str(tmp_path))
        bound = fresh.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.01, config=FAST_SDP
        )
        assert fresh.persistent_hits == 0
        assert fresh.misses == 1
        assert bound.value > 0

    def test_store_never_answers_for_a_different_channel(self, tmp_path):
        """Disk entries are keyed by problem content, not channel names: two
        differently parametrised channels sharing a name must not collide."""
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())  # identical nominal key

        weak_cache = GateBoundCache(decimals=6, store_path=str(tmp_path))
        weak = weak_cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(1e-3), rho, 0.0, config=FAST_SDP
        )
        strong_cache = GateBoundCache(decimals=6, store_path=str(tmp_path))
        strong = strong_cache.lookup_or_compute(
            key_parts, HADAMARD, bit_flip(0.2), rho, 0.0, config=FAST_SDP
        )
        assert strong_cache.persistent_hits == 0
        assert strong.value > 100 * weak.value  # p=0.2 vs p=1e-3

    def test_noise_convention_in_store_key(self, tmp_path):
        """noise_after_gate flips the problem; the store must not conflate."""
        rho = pure_density(zero_state(1))
        key_parts = ("h", "model", "noise", ())
        first = GateBoundCache(decimals=6, store_path=str(tmp_path))
        first.lookup_or_compute(
            key_parts,
            HADAMARD,
            bit_flip(1e-3),
            rho,
            0.0,
            noise_after_gate=True,
            config=FAST_SDP,
        )
        second = GateBoundCache(decimals=6, store_path=str(tmp_path))
        second.lookup_or_compute(
            key_parts,
            HADAMARD,
            bit_flip(1e-3),
            rho,
            0.0,
            noise_after_gate=False,
            config=FAST_SDP,
        )
        assert second.persistent_hits == 0
        assert second.misses == 1
