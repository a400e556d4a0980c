"""The process-pool analysis engine.

:class:`AnalysisEngine` turns a batch of :class:`~repro.engine.spec.AnalysisJob`
values into :class:`~repro.engine.spec.JobResult` records:

* **dedupe** — identical jobs (same fingerprint) are executed once and share
  one result, so a serving workload with repeated submissions pays for each
  unique analysis once;
* **outcome store** — with an :class:`~repro.engine.outcomes.OutcomeStore`
  attached, a fingerprint whose full outcome is already stored skips
  :func:`execute_job` entirely — no MPS walk, no derivation replay, no SDP
  cache consultation — and executed successes write their result *plus the
  dual certificates behind it* back to the store, so a killed sweep re-run
  on the same store executes only its missing (or failed) jobs;
* **sharding** — the pending jobs are fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; jobs travel as canonical
  JSON, so the worker exercises exactly the serialization path remote
  submissions use.  The pool size adapts to the machine: ``workers`` is
  clamped to ``os.cpu_count()`` by default, because oversubscribing a small
  box costs more in process churn than the parallelism returns;
* **budgets and isolation** — each job runs under its own
  :class:`~repro.config.ResourceGuard` wall-clock budget
  (``guard.max_seconds``, enforced with a POSIX interval timer), and any
  exception — budget, solver failure, or worker crash — is captured as a
  ``timeout``/``error`` result for that job alone; the rest of the sweep
  continues;
* **streaming** — :meth:`AnalysisEngine.stream` yields each unique job's
  result the moment it finishes; :meth:`AnalysisEngine.run` collects the
  same stream into a :class:`BatchReport`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed

from ..core.analyzer import GleipnirAnalyzer
from ..errors import ResourceLimitExceeded
from ..obs import metrics as obs_metrics
from ..obs.trace import collecting, emit_spans, reset_tracing, span, tracing_active
from .outcomes import OutcomeCertificate, OutcomeStore
from .spec import AnalysisJob, JobResult, job_from_json

__all__ = [
    "AnalysisEngine",
    "BatchReport",
    "execute_job",
    "execute_job_record",
    "job_result_from_analysis",
]


@contextlib.contextmanager
def _wall_clock_budget(seconds: float | None):
    """Raise :class:`ResourceLimitExceeded` after ``seconds`` of wall clock.

    Uses ``signal.setitimer``, which only works on POSIX main threads; in any
    other context (Windows, the service thread) the budget degrades to
    unenforced rather than failing the job.  A displaced ``ITIMER_REAL`` is
    restored on exit (minus the time the job ran), and a shorter one-shot
    outer deadline takes priority over the job's own budget — see the
    comments below.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    # A caller (an outer budget, or any library using ITIMER_REAL) may have a
    # timer ticking; tearing down with a plain 0.0 would silently cancel it.
    # A *one-shot* outer deadline shorter than our budget additionally keeps
    # priority: its remaining time is armed instead of our budget and the
    # expiry is forwarded to the outer handler, so an outer deadline is never
    # overshot nor misreported as this job's timeout.  Periodic timers (a
    # signal-based profiler's 10ms tick) never clamp the budget — they miss
    # their ticks while the job runs and resume on exit.
    outer_remaining, outer_interval = previous_timer = signal.getitimer(
        signal.ITIMER_REAL
    )
    clamped = outer_interval == 0.0 and 0.0 < outer_remaining < float(seconds)
    forwarded = False
    expired = False
    message = f"analysis exceeded its wall-clock budget of {seconds:g}s"

    def _expired(signum, frame):
        nonlocal forwarded, expired
        if clamped and callable(previous_handler):
            forwarded = True
            previous_handler(signum, frame)
            return
        expired = True
        raise ResourceLimitExceeded(message)

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(
        signal.ITIMER_REAL, outer_remaining if clamped else float(seconds)
    )
    started = time.monotonic()
    try:
        yield
        if expired:
            # A broad ``except Exception`` inside the job swallowed the alarm;
            # the budget still ran out, so the job is still a timeout.
            raise ResourceLimitExceeded(message)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        remaining, interval = previous_timer
        # A displaced timer with it_value == 0 was disarmed, and a forwarded
        # one-shot deadline is consumed; re-arming either would wrongly fire
        # the outer handler (again).
        if remaining > 0.0 and not forwarded:
            # Re-arm the displaced timer with whatever it has left; if it
            # expired while our budget ran, fire it as soon as possible.
            elapsed = time.monotonic() - started
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining - elapsed, 1e-6), interval
            )


def job_result_from_analysis(fingerprint: str, name: str, analysis) -> JobResult:
    """Flatten a successful :class:`~repro.core.analyzer.AnalysisResult`.

    The one place the engine's wire record is built from an analysis — shared
    by :func:`execute_job` and the facade's local derivation path
    (:meth:`repro.api.AnalysisSession.analyze`), so the two can never drift.
    """
    return JobResult(
        fingerprint=fingerprint,
        name=name,
        status="ok",
        error_bound=analysis.error_bound,
        final_delta=analysis.final_delta,
        num_gates=analysis.num_gates,
        num_branches=analysis.num_branches,
        elapsed_seconds=analysis.elapsed_seconds,
        sdp_solves=analysis.sdp_solves,
        sdp_cache_hits=analysis.sdp_cache_hits,
        scheduled_solves=analysis.scheduled_solves,
        mps_walks=analysis.mps_walks,
        mps_width=analysis.mps_width,
        noise_model=analysis.noise_model,
        timings=dict(getattr(analysis, "timings", {}) or {}),
    )


def _harvest_certificates(analyzer: GleipnirAnalyzer) -> list[OutcomeCertificate]:
    """The dual certificates behind a finished job's per-gate bounds.

    Only solver-certified entries qualify: ``noiseless``/``exact-zero``
    bounds have no feasibility problem to re-check, and a bound without a
    retained Choi matrix cannot be re-verified standalone.
    """
    certificates = []
    for bound in analyzer.cache.bounds_snapshot():
        if bound.choi is None or bound.certificate is None:
            continue
        if bound.method in ("noiseless", "exact-zero"):
            continue
        certificates.append(OutcomeCertificate.from_bound(bound))
    return certificates


def _run_job(
    job: AnalysisJob, fingerprint: str, analyze: Callable[[], object]
) -> tuple[JobResult, object | None]:
    """Run ``analyze()`` under the job's wall-clock budget: (result, analysis).

    The one job runner behind :func:`execute_job_record` and the facade's
    local derivation path (:meth:`repro.api.AnalysisSession.analyze`): a
    budget overrun becomes a ``timeout`` result, any other exception an
    ``error`` result (analysis None), so no failure escapes either path.
    """
    start = time.perf_counter()
    try:
        with _wall_clock_budget(job.config.guard.max_seconds):
            analysis = analyze()
    except ResourceLimitExceeded as exc:
        status, error = "timeout", str(exc)
    except Exception as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
    else:
        return job_result_from_analysis(fingerprint, job.name, analysis), analysis
    failure = JobResult(
        fingerprint=fingerprint,
        name=job.name,
        status=status,
        elapsed_seconds=time.perf_counter() - start,
        error=error,
    )
    return failure, None


def execute_job_record(
    job: AnalysisJob,
    *,
    fingerprint: str | None = None,
    collect_certificates: bool = False,
) -> tuple[JobResult, list[OutcomeCertificate]]:
    """Run one job to a :class:`JobResult` plus its dual certificates.

    ``fingerprint`` lets callers that already addressed the job (the engine
    computes it once per batch) skip the full canonical re-serialization a
    fresh :meth:`AnalysisJob.fingerprint` call would pay.  With
    ``collect_certificates=True`` the per-gate dual certificates are
    harvested from the job's bound cache so the engine can store them
    alongside the outcome; failures always return an empty certificate list.
    """
    if fingerprint is None:
        fingerprint = job.fingerprint()
    analyzer = None

    def analyze():
        nonlocal analyzer
        analyzer = GleipnirAnalyzer(job.noise_model, config=job.config)
        return analyzer.analyze(
            job.program,
            initial_bits=job.initial_bits,
            num_qubits=job.num_qubits,
            program_name=job.name,
        )

    result, _analysis = _run_job(job, fingerprint, analyze)
    if collect_certificates and result.ok:
        return result, _harvest_certificates(analyzer)
    return result, []


def execute_job(
    job: AnalysisJob,
    *,
    fingerprint: str | None = None,
) -> JobResult:
    """Run one job to a :class:`JobResult`, capturing failures as statuses."""
    return execute_job_record(job, fingerprint=fingerprint)[0]


def _execute_payload(
    payload: str,
    fingerprint: str,
    collect_certificates: bool = False,
    trace_spans: bool = False,
) -> dict:
    """Worker entry point: canonical JSON in, flat result + certificate dicts out.

    The job runs under a scoped metric registry, so the returned ``metrics``
    snapshot carries exactly this job's increments — pool processes are
    reused across jobs, and a cumulative snapshot would double-count when the
    parent merges one per job.  With ``trace_spans`` set (the parent has an
    active trace), the worker collects its own spans and ships them back with
    its ``time.perf_counter()`` origin (``trace_clock``) so the parent can
    re-base them onto its clock.
    """
    job = job_from_json(payload)
    reset_tracing()  # fork children inherit the parent's active collector
    trace_clock = time.perf_counter()
    spans: list = []
    with obs_metrics.scoped() as registry:
        if trace_spans:
            with collecting() as collector:
                result, certificates = execute_job_record(
                    job,
                    fingerprint=fingerprint,
                    collect_certificates=collect_certificates,
                )
            spans = [item.to_json_dict() for item in collector.spans()]
        else:
            result, certificates = execute_job_record(
                job,
                fingerprint=fingerprint,
                collect_certificates=collect_certificates,
            )
        snapshot = registry.wire_snapshot()
    return {
        "result": result.to_json_dict(),
        "certificates": [certificate.to_json_dict() for certificate in certificates],
        "metrics": snapshot,
        "spans": spans,
        "trace_clock": trace_clock,
    }


@dataclasses.dataclass
class BatchReport:
    """Outcome of one engine batch.

    ``results`` is aligned with the submitted job list (duplicates share the
    same :class:`JobResult` object); the counters describe how much work the
    engine actually did versus answered from dedupe and the outcome store.
    """

    results: list[JobResult]
    executed: int
    deduplicated: int
    elapsed_seconds: float
    outcome_hits: int = 0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failures(self) -> list[JobResult]:
        return [result for result in self.results if not result.ok]


class AnalysisEngine:
    """Executes analysis job batches with dedupe, an outcome store, and worker sharding.

    Args:
        workers: requested process-pool size; 1 executes inline (no
            subprocess), which is also the deterministic fallback used by
            tests.  By default the effective size is clamped to
            ``os.cpu_count()`` — extra processes on a smaller box only add
            fork/IPC overhead (``adaptive_workers=False`` opts out and takes
            the requested count literally).
        outcomes: an :class:`~repro.engine.outcomes.OutcomeStore`, a path to
            create one at, or None.  With a store attached, fingerprints it
            holds skip execution entirely (a warm hit is one dict lookup) and
            every executed success is written back together with its dual
            certificates.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        outcomes: OutcomeStore | str | None = None,
        adaptive_workers: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.requested_workers = int(workers)
        if adaptive_workers:
            self.workers = max(1, min(self.requested_workers, os.cpu_count() or 1))
        else:
            self.workers = self.requested_workers
        self.outcomes = (
            OutcomeStore(outcomes)
            if isinstance(outcomes, (str, os.PathLike))
            else outcomes
        )
        self._last_executed: int | None = None

    def stats(self) -> dict:
        """Execution statistics: configuration plus the last batch's work.

        ``last_batch_executed`` counts the jobs the last :meth:`run` had to
        execute (None before the first batch).
        """
        return {
            "workers": self.workers,
            "requested_workers": self.requested_workers,
            "outcomes": self.outcomes.stats() if self.outcomes is not None else None,
            "last_batch_executed": self._last_executed,
        }

    def run(self, jobs: Sequence[AnalysisJob]) -> BatchReport:
        """Execute a batch and return results aligned with ``jobs``."""
        start = time.perf_counter()
        fingerprints = [job.fingerprint() for job in jobs]
        results: dict[str, JobResult] = {}
        executed = 0
        for fingerprint, result, ran in self._stream(fingerprints, jobs):
            results[fingerprint] = result
            executed += ran
        self._last_executed = executed
        return BatchReport(
            results=[results[fingerprint] for fingerprint in fingerprints],
            executed=executed,
            deduplicated=len(jobs) - len(results),
            elapsed_seconds=time.perf_counter() - start,
            outcome_hits=len(results) - executed,
        )

    def stream(self, jobs: Sequence[AnalysisJob]) -> Iterator[tuple[str, JobResult]]:
        """Yield ``(fingerprint, result)`` as each unique job of ``jobs`` finishes.

        Outcome-store hits come first, then executions in completion order:
        inline ones in submission order, pool ones as their futures land.
        Each executed result is recorded (store write, counters) before it
        is yielded.  Closing the generator early cancels the jobs not yet
        started; a running job still runs to its end or its own
        ``guard.max_seconds``.
        """
        fingerprints = [job.fingerprint() for job in jobs]
        for fingerprint, result, _ran in self._stream(fingerprints, jobs):
            yield fingerprint, result

    def _stream(
        self, fingerprints: list[str], jobs: Sequence[AnalysisJob]
    ) -> Iterator[tuple[str, JobResult, bool]]:
        """:meth:`stream`, plus whether each result was executed (not a store hit)."""
        unique: dict[str, AnalysisJob] = {}
        for fingerprint, job in zip(fingerprints, jobs):
            unique.setdefault(fingerprint, job)
        deduplicated = len(jobs) - len(unique)
        if deduplicated:
            obs_metrics.counter(
                "repro_engine_deduplicated_total",
                "Submitted jobs answered by another identical job in the batch.",
            ).inc(deduplicated)

        with span("engine.batch", "engine", jobs=len(jobs), unique=len(unique)):
            hits: list[tuple[str, JobResult]] = []
            pending = list(unique.items())
            if self.outcomes is not None:
                with span("engine.outcome_lookup", "engine", unique=len(unique)):
                    pending = []
                    for fingerprint, job in unique.items():
                        cached = self.outcomes.get(fingerprint)
                        if cached is None:
                            pending.append((fingerprint, job))
                        else:
                            hits.append((fingerprint, cached))
            for fingerprint, cached in hits:
                yield fingerprint, cached, False
            if not pending:
                return
            with span("engine.execute", "engine", pending=len(pending)):
                execute = self._run_inline if self.workers == 1 else self._run_pool
                for fingerprint, result, certificates in execute(pending):
                    self._record(result, certificates)
                    yield fingerprint, result, True

    # -- execution backends ------------------------------------------------
    def _record(self, result: JobResult, certificates: Sequence = ()) -> None:
        if self.outcomes is not None and result.ok:
            self.outcomes.put(result, certificates)
        obs_metrics.counter(
            "repro_engine_jobs_total",
            "Jobs executed by the engine, by final status.",
            {"status": result.status},
        ).inc()
        obs_metrics.histogram(
            "repro_engine_job_seconds",
            "Server-side execution seconds per executed job.",
            {"status": result.status},
        ).observe(result.elapsed_seconds)

    def _run_inline(self, pending: list[tuple[str, AnalysisJob]]):
        collect = self.outcomes is not None
        for fingerprint, job in pending:
            result, certificates = execute_job_record(
                job,
                fingerprint=fingerprint,
                collect_certificates=collect,
            )
            yield fingerprint, result, certificates

    def _run_pool(self, pending: list[tuple[str, AnalysisJob]]):
        """Shard pending jobs over a process pool with per-job failure capture.

        Jobs are submitted as canonical JSON and results come back as flat
        dicts, so nothing model-specific needs to pickle.  A worker crash
        (OOM kill, segfault) breaks the pool; the affected jobs are recorded
        as ``error`` results and the sweep still returns.
        """
        collect = self.outcomes is not None
        trace = tracing_active()
        names = {fingerprint: job.name for fingerprint, job in pending}
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
        try:
            futures = {}
            dispatched = {}
            for fingerprint, job in pending:
                future = pool.submit(
                    _execute_payload,
                    job.to_json(),
                    fingerprint,
                    collect,
                    trace,
                )
                futures[future] = fingerprint
                dispatched[fingerprint] = time.perf_counter()
            for future in as_completed(futures):
                fingerprint = futures[future]
                certificates: list = []
                try:
                    payload = future.result()
                    result = JobResult.from_json_dict(payload["result"])
                    certificates = payload.get("certificates") or []
                    self._merge_worker_observability(payload, dispatched[fingerprint])
                except Exception as exc:
                    result = JobResult(
                        fingerprint=fingerprint,
                        name=names[fingerprint],
                        status="error",
                        error=f"worker failed: {type(exc).__name__}: {exc}",
                    )
                yield fingerprint, result, certificates
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _merge_worker_observability(payload: dict, dispatch_clock: float) -> None:
        """Fold a worker's metric snapshot and spans into this process.

        Worker spans carry the worker's own ``perf_counter`` origin; shifting
        them by (dispatch clock − worker origin) re-bases them onto the
        parent's clock, aligned to within the fork/IPC latency, so the
        cross-process rows of a Chrome trace line up.
        """
        snapshot = payload.get("metrics")
        if snapshot:
            obs_metrics.get_registry().merge(snapshot)
        spans = payload.get("spans")
        if spans and tracing_active():
            from ..obs.trace import Span

            offset = dispatch_clock - float(payload.get("trace_clock", 0.0))
            emit_spans(
                [Span.from_json_dict(item).shift(offset) for item in spans]
            )
