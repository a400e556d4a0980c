"""The layer entry points the traced run wraps, and the per-layer metrics.

Each :class:`~spans.WrapPoint` names the module attribute a caller looks the
entry point up by: ``gate_error_bounds_batch`` is imported into
``repro.core.scheduler``, so that is the name wrapped; methods are wrapped on
their class.  Span names are ``<layer>.<step>``; the layer is the part before
the dot.  Structural reduction, template instantiation, certification and
the derivation replay have no public entry point of their own, so they are
wrapped at the private helpers that the program's own ``repro.obs`` spans
time (``sdp.reduce``, ``sdp.instantiate``, ``sdp.certify``,
``analyzer.replay``).

Every per-layer time is *self time per operation* (one analysis, one batch
or one request, depending on the workload), so the times of all layers add
up to the wall time the spans cover.  Counts are per operation as well,
except the ADMM iteration statistics, which describe the distribution over
solved problems.
"""

from __future__ import annotations

import statistics

from spans import Span, WrapPoint, self_time_by_name

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "sdp.admm_s": "s/op",
    "sdp.project_psd_s": "s/op",
    "sdp.reduce_s": "s/op",
    "sdp.instantiate_s": "s/op",
    "sdp.certify_s": "s/op",
    "sdp.batch_s": "s/op",
    "sdp.admm_problems": "1/op",
    "sdp.admm_iterations_p50": "count",
    "sdp.admm_iterations_max": "count",
    "sdp.admm_unconverged": "1/op",
    "sdp.certified_gap_sum": "1/op",
    "mps.local_predicate_s": "s/op",
    "mps.local_predicate_calls": "1/op",
    "mps.apply_gate_s": "s/op",
    "mps.apply_gate_calls": "1/op",
    "mps.final_delta": "1/op",
    "core.analyze_s": "s/op",
    "core.prefill_s": "s/op",
    "core.replay_s": "s/op",
    "core.gate_instances": "1/op",
    "core.solve_classes": "1/op",
    "core.tape_steps_reused": "1/op",
    "core.prefix_share": "ratio",
    "engine.run_s": "s/op",
    "engine.execute_s": "s/op",
    "engine.jobs_executed": "1/op",
    "engine.dedup_ratio": "ratio",
    "engine.outcomes_put_s": "s/op",
    "engine.outcomes_get_s": "s/op",
    "engine.outcome_hits": "1/op",
    "engine.spec_encode_s": "s/op",
    "engine.spec_decode_s": "s/op",
    "engine.fingerprint_s": "s/op",
    "engine.http_server_s": "s/op",
    "api.submit_s": "s/op",
    "api.wait_s": "s/op",
    "api.requests_per_op": "1/op",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
}

#: Span name -> per-layer self-time metric.
SPAN_METRICS: dict[str, str] = {
    "sdp.admm": "sdp.admm_s",
    "sdp.project_psd": "sdp.project_psd_s",
    "sdp.reduce": "sdp.reduce_s",
    "sdp.instantiate": "sdp.instantiate_s",
    "sdp.certify": "sdp.certify_s",
    "sdp.gate_error_bounds_batch": "sdp.batch_s",
    "sdp.constrained_diamond_norms_batch": "sdp.batch_s",
    "mps.local_predicate": "mps.local_predicate_s",
    "mps.apply_gate": "mps.apply_gate_s",
    "core.analyze": "core.analyze_s",
    "core.prefill": "core.prefill_s",
    "core.replay": "core.replay_s",
    "engine.run": "engine.run_s",
    "engine.execute_job": "engine.execute_s",
    "engine.outcomes_put": "engine.outcomes_put_s",
    "engine.outcomes_get": "engine.outcomes_get_s",
    "engine.spec_encode": "engine.spec_encode_s",
    "engine.spec_decode": "engine.spec_decode_s",
    "engine.fingerprint": "engine.fingerprint_s",
    "api.submit": "api.submit_s",
    "api.wait": "api.wait_s",
}


class LayerCounts:
    """Work counts read from the return values of the wrapped calls."""

    def __init__(self) -> None:
        self.admm_iterations: list[int] = []
        self.admm_unconverged = 0
        self.certified_gap_sum = 0.0
        self.gate_instances = 0
        self.solve_classes = 0
        self.final_delta = 0.0
        self.tape_steps_reused = 0
        self.analyses = 0
        self.analyses_with_prefix = 0
        self.jobs_submitted = 0
        self.jobs_executed = 0
        self.jobs_deduplicated = 0
        self.outcome_hits = 0

    def on_admm(self, results, _args, _kwargs) -> None:
        for result in results:
            self.admm_iterations.append(int(result.iterations))
            self.admm_unconverged += not result.converged

    def on_bounds(self, bounds, _args, _kwargs) -> None:
        self.certified_gap_sum += sum(bound.estimated_gap for bound in bounds)

    def on_prefill(self, report, _args, _kwargs) -> None:
        self.gate_instances += report.num_gate_instances
        self.solve_classes += report.num_unique_classes

    def on_analyze(self, result, _args, _kwargs) -> None:
        self.analyses += 1
        self.final_delta += result.final_delta
        self.tape_steps_reused += result.tape_steps_reused
        self.analyses_with_prefix += result.tape_steps_reused > 0

    def on_engine_run(self, report, args, _kwargs) -> None:
        self.jobs_submitted += len(args[1])
        self.jobs_executed += report.executed
        self.jobs_deduplicated += report.deduplicated
        self.outcome_hits += report.outcome_hits


def wrap_points(counts: LayerCounts) -> list[WrapPoint]:
    """Every layer entry point of the in-process pipeline, client included."""
    return [
        WrapPoint("sdp.gate_error_bounds_batch", "repro.core.scheduler", "gate_error_bounds_batch"),
        WrapPoint("sdp.reduce", "repro.sdp.diamond", "_reduced_gate_problems_batch"),
        WrapPoint(
            "sdp.constrained_diamond_norms_batch",
            "repro.sdp.diamond",
            "constrained_diamond_norms_batch",
            counts.on_bounds,
        ),
        WrapPoint("sdp.instantiate", "repro.sdp.diamond", "_ShapeTemplate.instantiate_batch"),
        WrapPoint("sdp.admm", "repro.sdp.diamond", "admm_solve_packed_batch", counts.on_admm),
        WrapPoint("sdp.project_psd", "repro.sdp.kernel", "BlockLayout.project_psd"),
        WrapPoint("sdp.certify", "repro.sdp.diamond", "_certify_solutions_batch"),
        WrapPoint("mps.local_predicate", "repro.mps.approximator", "MPSApproximator.local_predicate"),
        WrapPoint("mps.apply_gate", "repro.mps.approximator", "MPSApproximator.apply_gate"),
        WrapPoint("core.analyze", "repro.core.analyzer", "GleipnirAnalyzer.analyze", counts.on_analyze),
        WrapPoint("core.prefill", "repro.core.scheduler", "BoundScheduler.prefill", counts.on_prefill),
        WrapPoint("core.replay", "repro.core.analyzer", "GleipnirAnalyzer._analyze_node"),
        WrapPoint("engine.run", "repro.engine.pool", "AnalysisEngine.run", counts.on_engine_run),
        WrapPoint("engine.execute_job", "repro.engine.pool", "execute_job_record"),
        WrapPoint("engine.outcomes_get", "repro.engine.outcomes", "OutcomeStore.get"),
        WrapPoint("engine.outcomes_put", "repro.engine.outcomes", "OutcomeStore.put"),
        WrapPoint("engine.spec_encode", "repro.engine.spec", "AnalysisJob.to_json_dict"),
        WrapPoint("engine.fingerprint", "repro.engine.spec", "AnalysisJob.fingerprint"),
        WrapPoint("api.submit", "repro.api.client", "Client.submit"),
        WrapPoint("api.wait", "repro.api.client", "Client.wait"),
    ]


def self_time_table(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``span name -> (self seconds, calls)``, every wrapped name present."""
    table = {name: (0.0, 0) for name in SPAN_METRICS}
    table.update(self_time_by_name(spans))
    return table


def per_layer_metrics(
    table: dict[str, tuple[float, int]],
    counts: LayerCounts,
    operations: int,
    *,
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every per-layer metric, per operation, from a self-time table and counts."""
    per_op = 1.0 / max(1, operations)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for span_name, metric in SPAN_METRICS.items():
        values[metric] += table.get(span_name, (0.0, 0))[0] * per_op
    iterations = counts.admm_iterations
    values.update(
        {
            "sdp.admm_problems": len(iterations) * per_op,
            "sdp.admm_iterations_p50": statistics.median(iterations) if iterations else 0.0,
            "sdp.admm_iterations_max": max(iterations, default=0),
            "sdp.admm_unconverged": counts.admm_unconverged * per_op,
            "sdp.certified_gap_sum": counts.certified_gap_sum * per_op,
            "mps.local_predicate_calls": table.get("mps.local_predicate", (0, 0))[1] * per_op,
            "mps.apply_gate_calls": table.get("mps.apply_gate", (0, 0))[1] * per_op,
            "mps.final_delta": counts.final_delta * per_op,
            "core.gate_instances": counts.gate_instances * per_op,
            "core.solve_classes": counts.solve_classes * per_op,
            "core.tape_steps_reused": counts.tape_steps_reused * per_op,
            "core.prefix_share": (
                counts.analyses_with_prefix / counts.analyses if counts.analyses else 0.0
            ),
            "engine.jobs_executed": counts.jobs_executed * per_op,
            "engine.dedup_ratio": (
                counts.jobs_deduplicated / counts.jobs_submitted if counts.jobs_submitted else 0.0
            ),
            "engine.outcome_hits": counts.outcome_hits * per_op,
        }
    )
    values.update(extra or {})
    return values


def layer_table_lines(table: dict[str, tuple[float, int]], wall: float) -> list[str]:
    """A printable per-layer self-time table: layer totals, then each span."""
    layers: dict[str, float] = {}
    for name, (seconds, _calls) in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    lines = [f"{'span':<38}{'self s':>10}{'share':>8}{'calls':>10}"]
    for layer in sorted(layers, key=layers.get, reverse=True):
        lines.append(f"{layer:<38}{layers[layer]:>10.4f}{layers[layer] / wall:>8.1%}{'':>10}")
        for name in sorted(table, key=lambda key: table[key][0], reverse=True):
            seconds, calls = table[name]
            if name.split(".", 1)[0] == layer and calls:
                lines.append(f"  {name:<36}{seconds:>10.4f}{seconds / wall:>8.1%}{calls:>10}")
    return lines
