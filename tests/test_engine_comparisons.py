"""ComparisonJob through the engine stack: content addressing, execution,
warm outcome-store hits with certificate re-verification, and mixed
analysis/comparison batches through the pool and the session facade."""

import json

import pytest

from repro.api import AnalysisSession
from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.engine.comparisons import execute_comparison_record
from repro.engine.outcomes import OutcomeStore
from repro.engine.pool import AnalysisEngine
from repro.engine.spec import (
    AnalysisJob,
    ComparisonJob,
    job_from_json,
    job_from_json_dict,
)
from repro.errors import EngineError, MetricError
from repro.noise import NoiseModel
from repro.noise.channels import bit_flip, depolarizing

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL_A = NoiseModel.uniform_bit_flip(1e-3)
MODEL_B = NoiseModel.uniform_bit_flip(2e-3)


def _ghz2() -> Circuit:
    return Circuit(2, name="ghz2").h(0).cx(0, 1)


def _channel_job(metric: str = "diamond_norm") -> ComparisonJob:
    return ComparisonJob.from_channels(bit_flip(1e-3), bit_flip(2e-3), metric=metric)


def _ab_job() -> ComparisonJob:
    return ComparisonJob.from_noise_models(_ghz2(), MODEL_A, MODEL_B, config=FAST)


class TestContentAddressing:
    def test_fingerprint_survives_the_wire(self):
        for job in (_channel_job(), _ab_job()):
            clone = job_from_json_dict(json.loads(json.dumps(job.to_json_dict())))
            assert isinstance(clone, ComparisonJob)
            assert clone.mode == job.mode
            assert clone.fingerprint() == job.fingerprint()

    def test_fingerprint_ignores_name_and_execution_knobs(self):
        base = ComparisonJob.from_noise_models(_ghz2(), MODEL_A, MODEL_B, config=FAST)
        renamed = ComparisonJob.from_noise_models(
            _ghz2(), MODEL_A, MODEL_B, config=FAST, name="relabelled"
        )
        assert renamed.fingerprint() == base.fingerprint()

    def test_fingerprint_tracks_the_metric_and_the_sides(self):
        assert _channel_job().fingerprint() != _channel_job("trace_norm").fingerprint()
        swapped = ComparisonJob.from_channels(bit_flip(2e-3), bit_flip(1e-3))
        assert swapped.fingerprint() != _channel_job().fingerprint()

    def test_comparison_and_analysis_families_never_collide(self):
        analysis = AnalysisJob.from_circuit(_ghz2(), MODEL_A, config=FAST)
        comparison = _ab_job()
        assert analysis.fingerprint() != comparison.fingerprint()

    def test_unknown_kind_is_a_structured_error(self):
        with pytest.raises(EngineError, match="comparison_job"):
            job_from_json_dict({"kind": "tournament_job"})

    def test_mixed_or_empty_modes_are_rejected(self):
        with pytest.raises(MetricError):
            ComparisonJob(channel_a=bit_flip(1e-3))  # partial channel pair
        with pytest.raises(MetricError):
            ComparisonJob()  # no sides at all

    def test_canonical_json_round_trip_via_job_from_json(self):
        job = _channel_job()
        clone = job_from_json(json.dumps(job.to_json_dict()))
        assert isinstance(clone, ComparisonJob)
        assert clone.fingerprint() == job.fingerprint()


class TestExecution:
    def test_channel_mode_result_carries_the_metric(self):
        result, certificates = execute_comparison_record(
            _channel_job(), collect_certificates=True
        )
        assert result.ok
        assert result.metric == "diamond_norm"
        assert result.metric_tier == "certified"
        assert result.error_bound > 0.0
        assert certificates  # the SDP dual certificate was harvested
        for certificate in certificates:
            assert certificate.verify()

    def test_ab_mode_reports_both_sides(self):
        result, _ = execute_comparison_record(_ab_job())
        assert result.ok
        assert result.metric == "bound_drift"
        assert result.metric_tier == "heuristic"
        assert result.value_a is not None and result.value_b is not None
        assert result.error_bound == abs(result.value_a - result.value_b)

    def test_unknown_metric_fails_the_job_not_the_process(self):
        job = ComparisonJob.from_channels(
            bit_flip(1e-3), bit_flip(2e-3), metric="no_such_metric"
        )
        result, _ = execute_comparison_record(job)
        assert not result.ok
        assert result.status == "error"
        assert "no_such_metric" in result.error


class TestWarmOutcomeStore:
    def test_warm_hit_skips_execution_and_reverifies(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        jobs = [_channel_job(), _ab_job()]
        cold = AnalysisEngine(workers=1, outcomes=path).run(jobs)
        assert cold.ok and cold.executed == 2 and cold.outcome_hits == 0

        warm = AnalysisEngine(workers=1, outcomes=path).run(jobs)
        assert warm.executed == 0 and warm.outcome_hits == 2
        assert warm.results == cold.results  # whole records, bit-identical
        assert [r.metric for r in warm.results] == ["diamond_norm", "bound_drift"]

        # The persisted certificates still re-verify on demand.
        store = OutcomeStore(path)
        for job in jobs:
            assert store.get(job.fingerprint(), verify=True) is not None
            assert store.certificates(job.fingerprint())
        assert store.stats()["verification_failures"] == 0


class TestMixedBatches:
    def test_mixed_batch_routes_both_kinds_across_workers(self):
        analysis = AnalysisJob.from_circuit(_ghz2(), MODEL_A, config=FAST)
        jobs = [analysis, _channel_job(), _ab_job()]
        inline = [execute_comparison_record(j)[0] if isinstance(j, ComparisonJob)
                  else None for j in jobs]
        report = AnalysisEngine(workers=2, adaptive_workers=False).run(jobs)
        assert report.ok
        by_fingerprint = {r.fingerprint: r for r in report.results}
        assert len(by_fingerprint) == 3
        for job, expected in zip(jobs, inline):
            pooled = by_fingerprint[job.fingerprint()]
            if expected is not None:  # comparison: bit-identical to inline
                assert pooled.error_bound == expected.error_bound
                assert pooled.metric == expected.metric
            else:
                assert pooled.metric == ""  # analyses carry no metric

    def test_session_compare_matches_engine_batch(self):
        with AnalysisSession(config=FAST) as session:
            outcome = session.compare(_ghz2(), MODEL_A, MODEL_B)
            batch = session.compare_batch(
                [session.comparison_job(_ghz2(), MODEL_A, MODEL_B)]
            )
        outcome.raise_for_status()
        assert outcome.metric == "bound_drift"
        assert outcome.bound == batch[0].bound
        assert outcome.fingerprint == batch[0].fingerprint

    def test_session_channel_compare_is_certified(self):
        with AnalysisSession(config=FAST) as session:
            outcome = session.compare(depolarizing(1e-3), bit_flip(1e-3))
        outcome.raise_for_status()
        assert outcome.metric == "diamond_norm"
        assert outcome.metric_tier == "certified"
        assert outcome.bound > 0.0
