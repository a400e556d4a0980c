"""Tests for the process-pool engine: dedupe, sharding, budgets, resume."""

import copy
import os
import signal
import threading
import time

import pytest

from helpers import random_circuit

from repro.circuits import Circuit
from repro.config import AnalysisConfig, ResourceGuard, SDPConfig, check_deadline
from repro.engine.outcomes import OutcomeStore
from repro.engine.pool import AnalysisEngine, execute_job
from repro.engine.service import AnalysisService
from repro.engine.spec import AnalysisJob
from repro.errors import ResourceLimitExceeded
from repro.noise import NoiseModel
from repro.programs.library import benchmark_by_name

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
        # QAOA100 at width 16 takes about 90 ms warm (2 cores), 45x its
        # budget, so it times out whether or not its pool worker starts cold.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        budgeted_config = AnalysisConfig(
            mps_width=16,
            sdp=SDPConfig(max_iterations=2000, tolerance=1e-7),
            guard=ResourceGuard(max_seconds=0.002),
        )
        jobs = [
            _job(benchmark_by_name("QAOA100").build(), config=budgeted_config, name="exploding"),
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


#: A job that runs for well over a millisecond, under a 1 ms budget.
BUDGETED = AnalysisConfig(
    mps_width=16,
    sdp=SDPConfig(max_iterations=200, tolerance=1e-7),
    guard=ResourceGuard(max_seconds=0.001),
)


def _budgeted_job() -> AnalysisJob:
    # QAOA100 at width 16 takes about 90 ms warm (2 cores), 90x the budget.
    return _job(benchmark_by_name("QAOA100").build(), config=BUDGETED, name="budgeted")


class TestJobBudget:
    """``guard.max_seconds`` holds wherever the job runs, and never touches
    the process's interval timer."""

    def test_budget_holds_off_the_main_thread(self):
        statuses = []
        worker = threading.Thread(
            target=lambda: statuses.append(
                AnalysisEngine(workers=1).run([_budgeted_job()]).results[0].status
            )
        )
        worker.start()
        worker.join()
        assert statuses == ["timeout"]

    def test_budget_holds_in_the_service(self):
        service = AnalysisService(AnalysisEngine(workers=1))
        service.start()
        try:
            entry = service.submit_jobs([_budgeted_job()])[0]
            final = service.wait_for(entry["fingerprint"], timeout=60)
        finally:
            service.stop()
        assert final["status"] == "failed"
        assert final["result"]["status"] == "timeout"

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="POSIX interval timer")
    def test_interval_timer_and_handler_untouched(self):
        fired = []

        def handler(signum, frame):
            fired.append(signum)

        previous_handler = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 60.0, 30.0)
            before, _ = signal.getitimer(signal.ITIMER_REAL)
            start = time.monotonic()
            result = AnalysisEngine(workers=1).run([_budgeted_job()]).results[0]
            elapsed = time.monotonic() - start
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            assert result.status == "timeout"
            assert signal.getsignal(signal.SIGALRM) is handler
            assert interval == 30.0
            assert before - elapsed - 0.05 <= remaining <= before
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_swallowed_budget_still_ends_timeout(self, monkeypatch):
        """A job whose code catches the budget's exception is still a timeout."""
        import repro.engine.pool as pool

        finished = pool.analyze_program(Circuit(1).h(0), MODEL, config=FAST)
        swallowed = []

        def swallowing(*args, **kwargs):
            while not swallowed:
                try:
                    check_deadline()
                except ResourceLimitExceeded as exc:
                    swallowed.append(exc)
                time.sleep(0.001)
            return finished

        monkeypatch.setattr(pool, "analyze_program", swallowing)
        result = execute_job(_budgeted_job())
        assert swallowed
        assert result.status == "timeout"
        assert result.error_bound is None


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
