"""Tests for the ``repro.api`` session facade (local transport).

The facade is the one front door: these tests pin down that it is
bit-identical to the underlying primitives it fronts (``analyze_program``,
the engine, ``gate_error_bound``), that outcomes are frozen typed values,
and that the experiment drivers give identical results through a caller's
session and through their own ephemeral one.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import random_circuit

from repro.api import AnalysisOutcome, AnalysisSession
from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import analyze_program
from repro.errors import EngineError
from repro.noise import NoiseModel
from repro.noise.channels import bit_flip
from repro.sdp import gate_error_bound

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _circuits():
    return [
        Circuit(2, name="ghz2").h(0).cx(0, 1),
        Circuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2),
        random_circuit(3, 10, seed=3),
    ]


class TestAnalyze:
    def test_analyze_matches_analyze_program(self):
        circuit = _circuits()[0]
        direct = analyze_program(circuit, MODEL, config=FAST)
        with AnalysisSession(config=FAST) as session:
            outcome = session.analyze(circuit, MODEL)
        assert outcome.certified and outcome.status == "ok"
        assert outcome.bound == direct.error_bound
        assert outcome.final_delta == direct.final_delta
        assert outcome.mps_walks == 1
        assert outcome.fingerprint == session.job(circuit, MODEL).fingerprint()

    def test_outcome_is_frozen(self):
        with AnalysisSession(config=FAST) as session:
            outcome = session.analyze(_circuits()[0], MODEL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.bound = 0.0

    def test_derivation_request_keeps_bound_and_carries_tree(self):
        circuit = _circuits()[1]
        with AnalysisSession(config=FAST) as session:
            plain = session.analyze(circuit, MODEL)
            with_tree = session.analyze(circuit, MODEL, derivation=True)
        assert with_tree.bound == plain.bound
        assert with_tree.derivation is not None
        assert len(with_tree.gate_contributions()) > 0
        with pytest.raises(EngineError):
            plain.gate_contributions()

    def test_closed_session_rejects_work(self):
        session = AnalysisSession(config=FAST)
        session.close()
        with pytest.raises(EngineError):
            session.analyze(_circuits()[0], MODEL)

    def test_to_json_dict_round_trips_wire_shape(self):
        with AnalysisSession(config=FAST) as session:
            outcome = session.analyze(_circuits()[0], MODEL)
        payload = outcome.to_json_dict()
        assert payload["error_bound"] == outcome.bound
        assert "derivation" not in payload
        from repro.engine.spec import JobResult

        assert JobResult.from_json_dict(payload).error_bound == outcome.bound


class TestBatchAndStreaming:
    def test_batch_alignment_and_dedupe(self):
        circuits = _circuits()
        with AnalysisSession(config=FAST) as session:
            jobs = [session.job(c, MODEL) for c in circuits]
            jobs.append(session.job(circuits[0], MODEL))  # duplicate
            outcomes = session.analyze_batch(jobs)
        assert len(outcomes) == 4
        assert outcomes[0].bound == outcomes[3].bound
        assert outcomes[0].fingerprint == outcomes[3].fingerprint
        assert session.engine.stats()["last_batch_shards"]["pending_jobs"] == 3

    def test_batch_matches_single_analyses(self):
        circuits = _circuits()
        with AnalysisSession(config=FAST) as session:
            singles = [session.analyze(c, MODEL) for c in circuits]
            batch = session.analyze_batch([session.job(c, MODEL) for c in circuits])
        assert [o.bound for o in batch] == [o.bound for o in singles]

    def test_as_completed_streams_every_index(self):
        circuits = _circuits()
        with AnalysisSession(config=FAST) as session:
            jobs = [session.job(c, MODEL) for c in circuits]
            batch = session.analyze_batch(jobs)
            streamed = dict(session.as_completed(jobs, timeout=120))
        assert sorted(streamed) == [0, 1, 2]
        assert [streamed[i].bound for i in range(3)] == [o.bound for o in batch]

    def test_empty_batch(self):
        with AnalysisSession(config=FAST) as session:
            assert session.analyze_batch([]) == []
            assert list(session.as_completed([])) == []

    def test_resume_answers_from_store(self, tmp_path):
        circuit = _circuits()[0]
        store = str(tmp_path / "results.jsonl")
        with AnalysisSession(config=FAST, store=store) as session:
            first = session.analyze(circuit, MODEL)
        with AnalysisSession(config=FAST, store=store, resume=True) as session:
            second = session.analyze(circuit, MODEL)
            assert second.bound == first.bound
            # Resumed: the engine had nothing left to execute.
            assert session.engine.stats()["last_batch_shards"]["pending_jobs"] == 0


class TestGateBound:
    def test_matches_sdp_primitive(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        gate = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        channel = bit_flip(1e-3)
        direct = gate_error_bound(gate, channel, rho, 0.01, config=FAST.sdp)
        with AnalysisSession(config=FAST) as session:
            via_session = session.gate_bound(gate, channel, rho, 0.01)
        assert via_session.value == direct.value

    def test_capabilities_local(self):
        with AnalysisSession(config=FAST) as session:
            capabilities = session.capabilities()
        assert capabilities["transport"] == "local"
        assert capabilities["api"]["version"] == "v1"
        assert capabilities["engine"]["workers"] == 1


class TestSessionConstruction:
    def test_remote_rejects_local_knobs(self):
        with pytest.raises(EngineError):
            AnalysisSession(remote="http://127.0.0.1:1", workers=4)

    def test_session_from_args(self, tmp_path):
        import argparse

        from repro.api import add_session_arguments, session_from_args

        parser = argparse.ArgumentParser()
        add_session_arguments(parser)
        args = parser.parse_args(
            ["--workers", "2", "--store", str(tmp_path / "s.jsonl"), "--resume"]
        )
        with session_from_args(args, config=FAST) as session:
            assert not session.is_remote
            # The engine may clamp to os.cpu_count(); the request is recorded.
            assert session.engine.requested_workers == 2
            assert session.resume is True


class TestExperimentSessions:
    """A caller's ``session=`` and the ephemeral default are bit-identical."""

    def test_run_table2_session_matches_ephemeral(self):
        from repro.experiments.table2 import run_table2

        with AnalysisSession(config=FAST) as session:
            modern = run_table2(
                scale="reduced",
                benchmarks=["QAOA_line_10"],
                include_lqr=False,
                config=FAST,
                session=session,
            )
        ephemeral = run_table2(
            scale="reduced",
            benchmarks=["QAOA_line_10"],
            include_lqr=False,
            config=FAST,
        )
        assert [row.gleipnir_bound for row in ephemeral.rows] == [
            row.gleipnir_bound for row in modern.rows
        ]

    def test_run_figure14_session_matches_ephemeral(self):
        from repro.experiments.figure14 import run_figure14

        with AnalysisSession(config=FAST) as session:
            modern = run_figure14(
                scale="reduced", widths=[1, 2], config=FAST, session=session
            )
        ephemeral = run_figure14(scale="reduced", widths=[1, 2], config=FAST)
        assert ephemeral.bounds() == modern.bounds()

    def test_default_path_does_not_warn(self):
        from repro.experiments.table2 import run_table2_row
        from repro.programs import table2_benchmarks

        spec = table2_benchmarks("reduced")[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            row = run_table2_row(spec, mps_width=4, config=FAST, include_lqr=False)
        assert row.gleipnir_bound > 0


def test_outcome_from_wire_entry_failure_path():
    entry = {"fingerprint": "f" * 8, "name": "boom", "status": "failed", "result": None}
    outcome = AnalysisOutcome.from_wire_entry(entry)
    assert outcome.status == "error" and not outcome.certified
    with pytest.raises(EngineError):
        outcome.raise_for_status()


class TestReviewRegressions:
    def test_session_from_args_rejects_remote_plus_local_flags(self):
        import argparse

        from repro.api import add_session_arguments, session_from_args

        parser = argparse.ArgumentParser()
        add_session_arguments(parser)
        args = parser.parse_args(
            ["--remote", "http://127.0.0.1:1", "--workers", "8", "--resume"]
        )
        with pytest.raises(EngineError, match="--workers"):
            session_from_args(args)

    def test_as_completed_honors_resume_flag(self, tmp_path):
        circuit = _circuits()[0]
        store = str(tmp_path / "results.jsonl")
        with AnalysisSession(config=FAST, store=store) as session:
            session.analyze(circuit, MODEL)  # populate the store

        # resume=False must re-execute on BOTH surfaces.
        with AnalysisSession(config=FAST, store=store, resume=False) as session:
            list(session.as_completed([session.job(circuit, MODEL)], timeout=120))
            assert session._service.resume is False
            assert session.engine.stats()["last_batch_shards"]["pending_jobs"] == 1

        # resume=True answers from the store on both surfaces.
        with AnalysisSession(config=FAST, store=store, resume=True) as session:
            streamed = dict(session.as_completed([session.job(circuit, MODEL)], timeout=120))
            assert streamed[0].certified
            assert session.engine.stats()["last_batch_shards"] is None  # nothing ran

    def test_derivation_path_uses_session_cache_dir(self, tmp_path):
        circuit = _circuits()[1]
        cache_dir = str(tmp_path / "bounds")
        with AnalysisSession(config=FAST, cache_dir=cache_dir) as session:
            first = session.analyze(circuit, MODEL, derivation=True)
            assert first.sdp_solves > 0
        # A fresh session over the same cache answers every bound from disk —
        # proof the derivation path wrote through the shared persistent cache.
        with AnalysisSession(config=FAST, cache_dir=cache_dir) as session:
            warm = session.analyze(circuit, MODEL)
        assert warm.sdp_solves == 0
        assert warm.bound == first.bound
