"""Tests for the process-pool engine: dedupe, sharding, budgets, resume."""

import copy
import os

import pytest

from helpers import random_circuit

from repro.circuits import Circuit
from repro.config import AnalysisConfig, ResourceGuard, SDPConfig
from repro.engine.outcomes import OutcomeStore
from repro.engine.pool import AnalysisEngine, execute_job
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _job(circuit: Circuit, *, config: AnalysisConfig = FAST, name: str | None = None) -> AnalysisJob:
    return AnalysisJob.from_circuit(circuit, MODEL, config=config, name=name)


def _small_jobs() -> list[AnalysisJob]:
    return [
        _job(Circuit(2, name="ghz2").h(0).cx(0, 1)),
        _job(Circuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)),
        _job(random_circuit(3, 12, seed=5), name="random3x12"),
    ]


class TestEngineBasics:
    def test_inline_matches_direct_execution(self):
        jobs = _small_jobs()
        direct = [execute_job(job) for job in jobs]
        report = AnalysisEngine(workers=1).run(jobs)
        assert report.ok and report.executed == 3
        assert [r.error_bound for r in report.results] == [r.error_bound for r in direct]

    def test_dedupe_executes_once(self):
        job = _small_jobs()[0]
        clone = AnalysisJob.from_json(job.to_json())
        report = AnalysisEngine(workers=1).run([job, clone, job])
        assert report.executed == 1
        assert report.deduplicated == 2
        assert report.results[0] is report.results[1] is report.results[2]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalysisEngine(workers=0)


class TestAdaptiveWorkers:
    """The worker count adapts to the machine: min(requested, cpus)."""

    def test_requested_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine = AnalysisEngine(workers=8)
        assert engine.requested_workers == 8
        assert engine.workers == 2
        assert engine.stats()["requested_workers"] == 8
        assert engine.stats()["workers"] == 2

    def test_clamp_survives_unknown_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert AnalysisEngine(workers=8).workers == 1

    def test_requests_within_budget_unclamped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert AnalysisEngine(workers=4).workers == 4


class TestEngineSharding:
    def test_two_workers_bit_identical_to_inline(self, monkeypatch):
        jobs = _small_jobs()
        inline = AnalysisEngine(workers=1).run(jobs)
        # A reported second CPU keeps a real process pool on 1-core machines.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sharded = AnalysisEngine(workers=2).run(jobs)
        assert sharded.ok
        assert [r.error_bound for r in sharded.results] == [
            r.error_bound for r in inline.results
        ]
        assert [r.fingerprint for r in sharded.results] == [
            job.fingerprint() for job in jobs
        ]

    def test_budget_timeout_does_not_kill_the_sweep(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        budgeted_config = AnalysisConfig(
            mps_width=16,
            sdp=SDPConfig(max_iterations=2000, tolerance=1e-7),
            guard=ResourceGuard(max_seconds=0.02),
        )
        jobs = [
            _job(random_circuit(5, 60, seed=3), config=budgeted_config, name="exploding"),
            *_small_jobs(),
        ]
        report = AnalysisEngine(workers=2).run(jobs)
        statuses = {result.name: result.status for result in report.results}
        assert statuses["exploding"] == "timeout"
        assert all(
            status == "ok" for name, status in statuses.items() if name != "exploding"
        )
        assert report.failures()[0].error_bound is None


class TestEngineStoreIntegration:
    def test_results_recorded_and_resumed(self, tmp_path):
        store_path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()
        first = AnalysisEngine(workers=1, outcomes=store_path).run(jobs)
        assert first.executed == 3

        resumed = AnalysisEngine(workers=1, outcomes=store_path).run(jobs)
        assert resumed.executed == 0
        assert resumed.outcome_hits == 3
        assert [r.error_bound for r in resumed.results] == [
            r.error_bound for r in first.results
        ]

    def test_resume_after_kill_runs_only_missing_jobs(self, tmp_path):
        """A sweep killed mid-run re-executes exactly the jobs it lost."""
        store_path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()
        # Simulate the kill: only the first job's outcome ever reached the store.
        AnalysisEngine(workers=1, outcomes=store_path).run(jobs[:1])
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "analysis_outc')  # line cut by the kill

        engine = AnalysisEngine(workers=1, outcomes=store_path)
        report = engine.run(jobs)
        assert report.outcome_hits == 1
        assert report.executed == 2
        assert report.ok
        # The store now answers the whole sweep.
        final = AnalysisEngine(workers=1, outcomes=store_path).run(jobs)
        assert final.executed == 0 and final.outcome_hits == 3

    def test_resume_retries_failures(self, tmp_path):
        store_path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        impossible = AnalysisJob(
            program=job.program,
            noise_model=job.noise_model,
            config=job.config.replace(guard=ResourceGuard(max_seconds=1e-9)),
            num_qubits=job.num_qubits,
            name=job.name,
        )
        first = AnalysisEngine(workers=1, outcomes=store_path).run([impossible])
        assert not first.ok
        assert len(OutcomeStore(store_path)) == 0  # failures are never stored
        # Same fingerprint (budgets are execution knobs), so a healthy re-run
        # re-executes and stores the outcome.
        second = AnalysisEngine(workers=1, outcomes=store_path).run([job])
        assert second.executed == 1 and second.ok
        assert OutcomeStore(store_path).get(job.fingerprint(), verify=True) is not None


class TestSharedBoundCache:
    """Each job solves against its own cache under a private config copy:
    the engine's per-run overrides never leak into the job."""

    def test_engine_does_not_mutate_job_config(self):
        job = _small_jobs()[0]
        before = copy.deepcopy(job.config)
        AnalysisEngine(workers=1).run([job])
        assert job.config == before


class TestWallClockBudget:
    def test_budget_restores_preexisting_itimer(self):
        """An outer ITIMER_REAL must survive a nested wall-clock budget."""
        import signal

        from repro.engine.pool import _wall_clock_budget

        outer_fired = []

        def outer_handler(signum, frame):
            outer_fired.append(signum)

        previous_handler = signal.signal(signal.SIGALRM, outer_handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 60.0)
            with _wall_clock_budget(5.0):
                pass
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            # The outer timer is still armed, with (roughly) its time left,
            # and the outer handler is back in place.
            assert 0.0 < remaining <= 60.0
            assert interval == 0.0
            assert signal.getsignal(signal.SIGALRM) is outer_handler
            assert not outer_fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_swallowed_expiry_still_raises(self):
        """A job that catches the alarm's exception is still a timeout."""
        import time

        from repro.engine.pool import _wall_clock_budget
        from repro.errors import ResourceLimitExceeded

        swallowed = []
        with pytest.raises(ResourceLimitExceeded):
            with _wall_clock_budget(0.01):
                try:
                    time.sleep(5.0)
                except Exception as exc:
                    swallowed.append(exc)
        assert swallowed and isinstance(swallowed[0], ResourceLimitExceeded)

    def test_budget_disarms_when_no_outer_timer(self):
        import signal

        from repro.engine.pool import _wall_clock_budget

        with _wall_clock_budget(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_shorter_outer_deadline_forwards_to_outer_handler(self):
        """A one-shot outer deadline inside the inner budget keeps priority."""
        import signal
        import time

        from repro.engine.pool import _wall_clock_budget

        outer_fired = []

        def outer_handler(signum, frame):
            outer_fired.append(time.monotonic())

        previous_handler = signal.signal(signal.SIGALRM, outer_handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            start = time.monotonic()
            with _wall_clock_budget(60.0):
                while not outer_fired and time.monotonic() - start < 5.0:
                    time.sleep(0.01)
            # The outer handler fired at its own deadline (no inner
            # ResourceLimitExceeded), and the consumed one-shot timer is not
            # re-armed on exit.
            assert outer_fired and outer_fired[0] - start < 2.0
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_periodic_timer_not_clamped_and_restored(self):
        """A periodic ITIMER_REAL (profiler tick) must not clamp the budget."""
        import signal

        from repro.engine.pool import _wall_clock_budget

        ticks = []
        previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: ticks.append(signum)
        )
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
            with _wall_clock_budget(60.0):
                remaining, interval = signal.getitimer(signal.ITIMER_REAL)
                # The inner budget is armed, not the 50ms tick.
                assert remaining > 1.0
                assert interval == 0.0
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            assert interval == 0.05  # periodic timer resumed on exit
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)


class TestWarmStartSharding:
    """Execution order never shows in the results."""

    def test_sharded_order_keeps_results_aligned_and_identical(self):
        jobs = _small_jobs()
        interleaved = [jobs[2], jobs[0], jobs[1]]
        direct = [execute_job(job) for job in interleaved]
        engine = AnalysisEngine(workers=1)
        assert engine.stats()["last_batch_executed"] is None
        report = engine.run(interleaved)
        assert engine.stats()["last_batch_executed"] == 3
        assert [r.fingerprint for r in report.results] == [
            r.fingerprint for r in direct
        ]
        assert [r.error_bound for r in report.results] == [
            r.error_bound for r in direct
        ]
