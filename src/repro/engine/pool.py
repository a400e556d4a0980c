"""The process-pool analysis engine.

:class:`AnalysisEngine` turns a batch of :class:`~repro.engine.spec.AnalysisJob`
values into :class:`~repro.engine.spec.JobResult` records:

* **dedupe** — identical jobs (same fingerprint) are executed once and share
  one result, so a serving workload with repeated submissions pays for each
  unique analysis once;
* **whole-outcome cache** — with an :class:`~repro.engine.outcomes.OutcomeStore`
  attached, a fingerprint whose full outcome is already stored skips
  :func:`execute_job` entirely — no MPS walk, no derivation replay, no SDP
  cache consultation — and executed jobs write their result *plus the dual
  certificates behind it* back to the store;
* **resume** — with a :class:`~repro.engine.store.ResultStore` attached,
  fingerprints that already completed successfully are answered from the
  store and only the missing jobs run;
* **sharding** — the pending jobs are fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; jobs travel as canonical
  JSON, so the worker exercises exactly the serialization path remote
  submissions use.  The pool size adapts to the machine: ``workers`` is
  clamped to ``os.cpu_count()`` by default, because oversubscribing a small
  box costs more in process churn than the parallelism returns;
* **shared bound cache** — when ``cache_dir`` is set, every worker points its
  :class:`~repro.sdp.diamond.GateBoundCache` at the same on-disk store
  (``SDPConfig.persistent_cache_path``), so bounds certified by one worker
  warm all the others (and later runs) — this is also how the jobs of one
  batch deduplicate their shared SDP solves;
* **budgets and isolation** — each job runs under its own
  :class:`~repro.config.ResourceGuard` wall-clock budget
  (``guard.max_seconds``, enforced with a POSIX interval timer), and any
  exception — budget, solver failure, or worker crash — is captured as a
  ``timeout``/``error`` result for that job alone; the rest of the sweep
  continues.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import signal
import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ..circuits.program import GateOp, IfMeasure, Program, Seq
from ..config import AnalysisConfig
from ..core.analyzer import GleipnirAnalyzer
from ..errors import ResourceLimitExceeded
from ..obs import metrics as obs_metrics
from ..obs.trace import collecting, emit_spans, reset_tracing, span, tracing_active
from .outcomes import OutcomeCertificate, OutcomeStore
from .spec import (
    AnalysisJob,
    ComparisonJob,
    JobResult,
    job_from_json,
)
from .store import ResultStore

__all__ = [
    "AnalysisEngine",
    "BatchReport",
    "execute_job",
    "execute_job_record",
    "job_family",
    "job_result_from_analysis",
]


def _gate_signature(program: Program) -> tuple:
    """The sorted set of structural gate keys a program applies.

    Two programs with the same signature under the same noise model request
    bounds for the same (gate, channel) classes, so their SDP cache entries
    overlap — which is exactly what the warm-start ordering shards on.
    """
    keys = set()
    pending = [program]
    while pending:
        node = pending.pop()
        if isinstance(node, GateOp):
            keys.add(node.gate.key())
        elif isinstance(node, Seq):
            pending.extend(node.parts)
        elif isinstance(node, IfMeasure):
            pending.append(node.then_branch)
            pending.append(node.else_branch)
    return tuple(sorted(map(repr, keys)))


def job_family(job: AnalysisJob | ComparisonJob) -> str:
    """Cache-overlap shard key of a job (digest of gates + noise + width).

    Jobs of one family share gate-bound cache entries (same gate set, same
    noise model, same predicate quantisation width), so executing them in the
    same worker window lets one job's certified bounds warm the next job's
    persistent-cache lookups instead of being scattered across the pool.
    Channel-pair comparisons have no program; they shard on the metric and
    the channel identities instead, so identical pairs stay contiguous.
    """
    digest = hashlib.sha256()
    if isinstance(job, ComparisonJob):
        digest.update(job.metric.encode())
        if job.mode == "channels":
            digest.update((job.channel_a.name or "?").encode())
            digest.update((job.channel_b.name or "?").encode())
        else:
            digest.update(repr(_gate_signature(job.program)).encode())
            digest.update(job.noise_model_a.name.encode())
            digest.update(job.noise_model_b.name.encode())
    else:
        digest.update(repr(_gate_signature(job.program)).encode())
        digest.update(job.noise_model.name.encode())
    digest.update(str(job.config.mps_width).encode())
    return digest.hexdigest()[:16]


@contextlib.contextmanager
def _wall_clock_budget(seconds: float | None):
    """Raise :class:`ResourceLimitExceeded` after ``seconds`` of wall clock.

    Uses ``signal.setitimer``, which only works on POSIX main threads; in any
    other context (Windows, service batcher threads) the budget degrades to
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


def _prepared_config(job: AnalysisJob, cache_dir: str | None) -> AnalysisConfig:
    """The execution config: a deep copy with engine-level overrides applied.

    Derivation trees are never collected (results must stay flat and
    picklable), and the shared persistent bound cache is attached when the
    engine has one.  Neither override is part of the job fingerprint.
    """
    config = job.config.replace(collect_derivation=False)
    if cache_dir is not None:
        config.sdp.persistent_cache_path = str(cache_dir)
    return config


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
        sdp_dominance_hits=analysis.sdp_dominance_hits,
        scheduled_solves=analysis.scheduled_solves,
        mps_walks=analysis.mps_walks,
        mps_width=analysis.mps_width,
        noise_model=analysis.noise_model,
        timings=dict(getattr(analysis, "timings", {}) or {}),
    )


def _harvest_certificates(analyzer: GleipnirAnalyzer) -> list[OutcomeCertificate]:
    """The dual certificates behind a finished job's per-gate bounds.

    Only solver-certified entries qualify: ``noiseless``/``exact-zero``
    bounds have no feasibility problem to re-check, and persistent-cache
    loads without a retained Choi matrix cannot be re-verified standalone.
    """
    certificates = []
    for bound in analyzer.cache.bounds_snapshot():
        if bound.choi is None or bound.certificate is None:
            continue
        if bound.method in ("noiseless", "exact-zero"):
            continue
        certificates.append(OutcomeCertificate.from_bound(bound))
    return certificates


def execute_job_record(
    job: AnalysisJob | ComparisonJob,
    *,
    cache_dir: str | None = None,
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

    :class:`~repro.engine.spec.ComparisonJob` batches dispatch to
    :mod:`repro.engine.comparisons` (imported lazily — it builds on this
    module's helpers) and flow through the same dedupe/store/pool machinery.
    """
    if isinstance(job, ComparisonJob):
        from .comparisons import execute_comparison_record

        return execute_comparison_record(
            job,
            cache_dir=cache_dir,
            fingerprint=fingerprint,
            collect_certificates=collect_certificates,
        )
    if fingerprint is None:
        fingerprint = job.fingerprint()
    config = _prepared_config(job, cache_dir)
    start = time.perf_counter()
    try:
        with _wall_clock_budget(config.guard.max_seconds):
            analyzer = GleipnirAnalyzer(job.noise_model, config=config)
            analysis = analyzer.analyze(
                job.program,
                initial_bits=job.initial_bits,
                num_qubits=job.num_qubits,
                program_name=job.name,
            )
    except ResourceLimitExceeded as exc:
        return (
            JobResult(
                fingerprint=fingerprint,
                name=job.name,
                status="timeout",
                elapsed_seconds=time.perf_counter() - start,
                error=str(exc),
            ),
            [],
        )
    except Exception as exc:
        return (
            JobResult(
                fingerprint=fingerprint,
                name=job.name,
                status="error",
                elapsed_seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            ),
            [],
        )
    result = job_result_from_analysis(fingerprint, job.name, analysis)
    certificates = _harvest_certificates(analyzer) if collect_certificates else []
    return result, certificates


def execute_job(
    job: AnalysisJob | ComparisonJob,
    *,
    cache_dir: str | None = None,
    fingerprint: str | None = None,
) -> JobResult:
    """Run one job to a :class:`JobResult`, capturing failures as statuses."""
    return execute_job_record(job, cache_dir=cache_dir, fingerprint=fingerprint)[0]


def _execute_payload(
    payload: str,
    cache_dir: str | None,
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
                    cache_dir=cache_dir,
                    fingerprint=fingerprint,
                    collect_certificates=collect_certificates,
                )
            spans = [item.to_json_dict() for item in collector.spans()]
        else:
            result, certificates = execute_job_record(
                job,
                cache_dir=cache_dir,
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
    engine actually did versus answered from dedupe and the stores.
    """

    results: list[JobResult]
    executed: int
    resumed: int
    deduplicated: int
    elapsed_seconds: float
    outcome_hits: int = 0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failures(self) -> list[JobResult]:
        return [result for result in self.results if not result.ok]


class AnalysisEngine:
    """Executes analysis job batches with dedupe, resume, and worker sharding.

    Args:
        workers: requested process-pool size; 1 executes inline (no
            subprocess), which is also the deterministic fallback used by
            tests.  By default the effective size is clamped to
            ``os.cpu_count()`` — extra processes on a smaller box only add
            fork/IPC overhead (``adaptive_workers=False`` opts out and takes
            the requested count literally).
        store: a :class:`ResultStore`, a path to create one at, or None.
            Every executed result is appended to the store; with
            ``resume=True`` completed fingerprints are not re-executed.
        cache_dir: directory of the shared on-disk gate-bound cache handed to
            every worker (None disables sharing).
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
        store: ResultStore | str | None = None,
        cache_dir: str | None = None,
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
        self.store = ResultStore(store) if isinstance(store, (str, os.PathLike)) else store
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        self.outcomes = (
            OutcomeStore(outcomes)
            if isinstance(outcomes, (str, os.PathLike))
            else outcomes
        )
        self._last_shards: dict | None = None

    def stats(self) -> dict:
        """Execution statistics: configuration plus the last batch's sharding."""
        return {
            "workers": self.workers,
            "requested_workers": self.requested_workers,
            "cache_dir": self.cache_dir,
            "store_results": len(self.store) if self.store is not None else None,
            "outcomes": self.outcomes.stats() if self.outcomes is not None else None,
            "last_batch_shards": dict(self._last_shards) if self._last_shards else None,
        }

    def _shard_pending(
        self, pending: list[tuple[str, AnalysisJob]]
    ) -> list[tuple[str, AnalysisJob]]:
        """Warm-start ordering: group pending jobs by program family.

        Same-family jobs (overlapping gate-bound cache entries — see
        :func:`job_family`) are made contiguous in submission order, so with a
        shared ``cache_dir`` the bounds certified by one job land in the same
        worker window as the lookups that want them, instead of every worker
        paying its own cold start.  Within a family, jobs keep fingerprint
        order so the schedule is deterministic; results stay aligned with the
        submitted job list regardless of execution order, and the bounds are
        bit-identical either way (the persistent cache answers exact keys
        before the dominance layer).
        """
        families: dict[str, int] = {}
        keyed = []
        for fingerprint, job in pending:
            family = job_family(job)
            families[family] = families.get(family, 0) + 1
            keyed.append((family, fingerprint, job))
        keyed.sort(key=lambda item: (item[0], item[1]))
        self._last_shards = {
            "pending_jobs": len(pending),
            "families": len(families),
            "largest_family": max(families.values(), default=0),
        }
        return [(fingerprint, job) for _family, fingerprint, job in keyed]

    def run(
        self,
        jobs: Sequence[AnalysisJob | ComparisonJob],
        *,
        resume: bool = False,
    ) -> BatchReport:
        """Execute a batch and return results aligned with ``jobs``."""
        start = time.perf_counter()
        fingerprints = [job.fingerprint() for job in jobs]
        unique: dict[str, AnalysisJob | ComparisonJob] = {}
        for fingerprint, job in zip(fingerprints, jobs):
            unique.setdefault(fingerprint, job)

        results: dict[str, JobResult] = {}
        resumed = 0
        outcome_hits = 0
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                span("engine.batch", "engine", jobs=len(jobs), unique=len(unique))
            )
            if self.outcomes is not None:
                # Pin the batch's fingerprints so a concurrent batch's inserts
                # cannot evict an entry between the hit decision and the read.
                stack.enter_context(self.outcomes.pinned(list(unique)))
                with span("engine.outcome_lookup", "engine", unique=len(unique)):
                    for fingerprint in unique:
                        cached = self.outcomes.get(fingerprint)
                        if cached is not None:
                            results[fingerprint] = cached
                            outcome_hits += 1
            if resume and self.store is not None:
                with span("engine.resume", "engine"):
                    for fingerprint in unique:
                        if fingerprint not in results and self.store.completed(
                            fingerprint
                        ):
                            results[fingerprint] = self.store.get(fingerprint)
                            resumed += 1

            pending = self._shard_pending(
                [
                    (fingerprint, job)
                    for fingerprint, job in unique.items()
                    if fingerprint not in results
                ]
            )
            if pending:
                with span("engine.execute", "engine", pending=len(pending)):
                    if self.workers == 1:
                        executed = self._run_inline(pending, results)
                    else:
                        executed = self._run_pool(pending, results)
            else:
                executed = 0
        deduplicated = len(jobs) - len(unique)
        if deduplicated:
            obs_metrics.counter(
                "repro_engine_deduplicated_total",
                "Submitted jobs answered by another identical job in the batch.",
            ).inc(deduplicated)

        return BatchReport(
            results=[results[fingerprint] for fingerprint in fingerprints],
            executed=executed,
            resumed=resumed,
            deduplicated=deduplicated,
            elapsed_seconds=time.perf_counter() - start,
            outcome_hits=outcome_hits,
        )

    # -- execution backends ------------------------------------------------
    def _record(
        self,
        results: dict[str, JobResult],
        fingerprint: str,
        result: JobResult,
        certificates: Sequence = (),
    ) -> None:
        results[fingerprint] = result
        if self.store is not None:
            self.store.put(result)
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

    def _run_inline(
        self,
        pending: list[tuple[str, AnalysisJob]],
        results: dict[str, JobResult],
    ) -> int:
        collect = self.outcomes is not None
        for fingerprint, job in pending:
            result, certificates = execute_job_record(
                job,
                cache_dir=self.cache_dir,
                fingerprint=fingerprint,
                collect_certificates=collect,
            )
            self._record(results, fingerprint, result, certificates)
        return len(pending)

    def _run_pool(
        self,
        pending: list[tuple[str, AnalysisJob]],
        results: dict[str, JobResult],
    ) -> int:
        """Shard pending jobs over a process pool with per-job failure capture.

        Jobs are submitted as canonical JSON and results come back as flat
        dicts, so nothing model-specific needs to pickle.  A worker crash
        (OOM kill, segfault) breaks the pool; the affected jobs are recorded
        as ``error`` results and the sweep still returns.
        """
        collect = self.outcomes is not None
        trace = tracing_active()
        max_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {}
            dispatched = {}
            for fingerprint, job in pending:
                future = pool.submit(
                    _execute_payload,
                    job.to_json(),
                    self.cache_dir,
                    fingerprint,
                    collect,
                    trace,
                )
                futures[future] = fingerprint
                dispatched[fingerprint] = time.perf_counter()
            names = {fingerprint: job.name for fingerprint, job in pending}
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    fingerprint = futures[future]
                    certificates: list = []
                    try:
                        payload = future.result()
                        result = JobResult.from_json_dict(payload["result"])
                        certificates = payload.get("certificates") or []
                        self._merge_worker_observability(
                            payload, dispatched[fingerprint]
                        )
                    except Exception as exc:
                        result = JobResult(
                            fingerprint=fingerprint,
                            name=names[fingerprint],
                            status="error",
                            error=f"worker failed: {type(exc).__name__}: {exc}",
                        )
                    self._record(results, fingerprint, result, certificates)
        return len(pending)

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
