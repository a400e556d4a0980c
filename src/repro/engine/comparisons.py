"""Executor for :class:`~repro.engine.spec.ComparisonJob`.

Comparison jobs reuse every piece of engine plumbing the analysis family
already has — content-addressed dedupe, the outcome store (with dual
certificates re-verified on warm hits), worker sharding, the shared
persistent bound cache — and differ only in what one execution does:

* **channels mode** routes the pair through the process-wide metric registry
  (:mod:`repro.metrics`); a certified metric's
  :class:`~repro.sdp.diamond.DiamondNormBound` certificate is harvested into
  the outcome store like any per-gate bound;
* **A/B mode** runs the full certified Gleipnir analysis under each of the
  two noise models (sequentially, sharing ``cache_dir`` so the second run
  warms from the first where the models overlap) and reports the drift
  ``|bound_a - bound_b|`` with both sides' certificates harvested.

Every executed comparison increments
``repro_metric_jobs_total{metric,certified}`` so ``/v1/metrics`` exposes the
per-metric traffic mix.
"""

from __future__ import annotations

import time

from ..core.analyzer import GleipnirAnalyzer
from ..errors import ResourceLimitExceeded
from ..metrics import get_metric
from ..obs import metrics as obs_metrics
from .outcomes import OutcomeCertificate
from .pool import (
    _harvest_certificates,
    _prepared_config,
    _wall_clock_budget,
    job_result_from_analysis,
)
from .spec import ComparisonJob, JobResult

__all__ = ["execute_comparison", "execute_comparison_record"]


def _count_metric_job(metric: str, certified: bool) -> None:
    obs_metrics.counter(
        "repro_metric_jobs_total",
        "Comparison jobs executed, by metric and certification outcome.",
        {"metric": metric, "certified": "true" if certified else "false"},
    ).inc()


def _failure(
    job: ComparisonJob, fingerprint: str, status: str, started: float, exc: Exception
) -> tuple[JobResult, list]:
    message = str(exc) if status == "timeout" else f"{type(exc).__name__}: {exc}"
    return (
        JobResult(
            fingerprint=fingerprint,
            name=job.name,
            status=status,
            elapsed_seconds=time.perf_counter() - started,
            metric=job.metric,
            error=message,
        ),
        [],
    )


def execute_comparison_record(
    job: ComparisonJob,
    *,
    cache_dir: str | None = None,
    fingerprint: str | None = None,
    collect_certificates: bool = False,
) -> tuple[JobResult, list[OutcomeCertificate]]:
    """Run one comparison to a :class:`JobResult` plus its dual certificates.

    Mirrors :func:`~repro.engine.pool.execute_job_record`: failures (budget,
    solver, malformed metric) are captured as ``timeout``/``error`` results
    with empty certificate lists, never raised, so one bad comparison cannot
    take down a sweep.
    """
    if fingerprint is None:
        fingerprint = job.fingerprint()
    started = time.perf_counter()
    # Metric resolution failures (unknown name, program metric on a channel
    # pair) are job errors like any other — captured, not raised.
    try:
        metric = get_metric(job.metric)
        if job.mode == "channels":
            result, certificates = _run_channels(
                job, fingerprint, metric, cache_dir, collect_certificates
            )
        else:
            result, certificates = _run_ab(
                job, fingerprint, metric, cache_dir, collect_certificates
            )
    except ResourceLimitExceeded as exc:
        result, certificates = _failure(job, fingerprint, "timeout", started, exc)
    except Exception as exc:
        result, certificates = _failure(job, fingerprint, "error", started, exc)
    _count_metric_job(job.metric, result.ok and result.metric_tier == "certified")
    return result, certificates


def execute_comparison(
    job: ComparisonJob, *, cache_dir: str | None = None, fingerprint: str | None = None
) -> JobResult:
    """Run one comparison to a :class:`JobResult`, capturing failures."""
    return execute_comparison_record(job, cache_dir=cache_dir, fingerprint=fingerprint)[0]


def _run_channels(
    job: ComparisonJob,
    fingerprint: str,
    metric,
    cache_dir: str | None,
    collect_certificates: bool,
) -> tuple[JobResult, list[OutcomeCertificate]]:
    """Channel-pair comparison through the metric registry."""
    config = _prepared_config(job, cache_dir)
    started = time.perf_counter()
    with _wall_clock_budget(config.guard.max_seconds):
        value = metric.compute(job.channel_a, job.channel_b, config=config.sdp)
    elapsed = time.perf_counter() - started
    bound = value.bound
    solves = 0
    if bound is not None:
        solves = 1 if getattr(bound, "method", "") not in ("exact-zero", "noiseless") else 0
    result = JobResult(
        fingerprint=fingerprint,
        name=job.name,
        status="ok",
        error_bound=float(value.value),
        elapsed_seconds=elapsed,
        sdp_solves=solves,
        noise_model=f"{job.channel_a.name}|{job.channel_b.name}",
        metric=value.metric,
        metric_tier=value.tier,
    )
    certificates: list[OutcomeCertificate] = []
    if collect_certificates and bound is not None:
        if (
            getattr(bound, "certificate", None) is not None
            and getattr(bound, "choi", None) is not None
            and bound.method not in ("noiseless", "exact-zero")
        ):
            certificates.append(OutcomeCertificate.from_bound(bound))
    return result, certificates


def _run_ab(
    job: ComparisonJob,
    fingerprint: str,
    metric,
    cache_dir: str | None,
    collect_certificates: bool,
) -> tuple[JobResult, list[OutcomeCertificate]]:
    """Noise-model A/B diff: two full certified analyses, one drift record."""
    if metric.kind != "program":
        raise_kind = type(metric).__name__
        from ..errors import MetricError

        raise MetricError(
            f"metric {job.metric!r} ({raise_kind}) compares channel pairs; "
            "noise-model A/B jobs need a program-level metric such as "
            "'bound_drift'"
        )
    config = _prepared_config(job, cache_dir)
    started = time.perf_counter()
    sides = []
    certificates: list[OutcomeCertificate] = []
    # One budget covers both sides: the job is one unit of work to the
    # engine's guard, however many analyses it runs internally.
    with _wall_clock_budget(config.guard.max_seconds):
        for model in (job.noise_model_a, job.noise_model_b):
            analyzer = GleipnirAnalyzer(model, config=config)
            analysis = analyzer.analyze(
                job.program,
                initial_bits=job.initial_bits,
                num_qubits=job.num_qubits,
                program_name=job.name,
            )
            sides.append(analysis)
            if collect_certificates:
                certificates.extend(_harvest_certificates(analyzer))
    analysis_a, analysis_b = sides
    value_a = float(analysis_a.error_bound)
    value_b = float(analysis_b.error_bound)
    # Reuse the canonical flattening for the aggregate counters, then overlay
    # the comparison-specific fields.
    base_a = job_result_from_analysis(fingerprint, job.name, analysis_a)
    base_b = job_result_from_analysis(fingerprint, job.name, analysis_b)
    result = JobResult(
        fingerprint=fingerprint,
        name=job.name,
        status="ok",
        error_bound=abs(value_a - value_b),
        num_gates=base_a.num_gates,
        num_branches=base_a.num_branches,
        elapsed_seconds=time.perf_counter() - started,
        sdp_solves=base_a.sdp_solves + base_b.sdp_solves,
        sdp_cache_hits=base_a.sdp_cache_hits + base_b.sdp_cache_hits,
        scheduled_solves=base_a.scheduled_solves + base_b.scheduled_solves,
        mps_walks=base_a.mps_walks + base_b.mps_walks,
        mps_width=base_a.mps_width,
        noise_model=f"{job.noise_model_a.name}|{job.noise_model_b.name}",
        metric=job.metric,
        metric_tier=metric.tier,
        value_a=value_a,
        value_b=value_b,
    )
    return result, certificates
