"""The observability subsystem (``repro.obs``): tracing + metrics.

Three layers of guarantees:

* **unit** — span nesting / pickling / Chrome-trace shape; metric families,
  label handling, snapshot merging (both in-process and wire shapes), and
  the Prometheus 0.0.4 exposition;
* **read-only by construction** — a property test asserting the certified
  bound of an analysis is bit-identical with tracing + metrics on and off;
* **cross-process** — a 4-worker engine run whose per-job metric snapshots
  and spans merge back into the parent registry/collector, and a live HTTP
  server whose ``/v1/metrics`` histograms move when traffic arrives.
"""

from __future__ import annotations

import json
import pickle
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import analyze_program
from repro.engine.pool import AnalysisEngine
from repro.engine.service import AnalysisService, make_server
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    chrome_trace,
    collecting,
    span,
    tracing_active,
    write_chrome_trace,
)

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _job(name: str, num_qubits: int = 2) -> AnalysisJob:
    circuit = Circuit(num_qubits, name=name).h(0).cx(0, 1)
    for q in range(2, num_qubits):
        circuit.cx(q - 1, q)
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTrace:
    def test_off_by_default(self):
        assert not tracing_active()
        with span("noop", "test") as handle:  # no collector: must be a no-op
            handle.set(ignored=1)
        assert not tracing_active()

    def test_nesting_records_parent_ids(self):
        with collecting() as collector:
            with span("outer", "test"):
                with span("inner", "test", detail=3):
                    pass
            with span("sibling", "test"):
                pass
        spans = {entry.name: entry for entry in collector.spans()}
        assert set(spans) == {"outer", "inner", "sibling"}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["sibling"].parent_id is None
        assert spans["inner"].args == {"detail": 3}
        assert spans["outer"].duration >= spans["inner"].duration

    def test_collecting_is_exclusive(self):
        with collecting():
            with pytest.raises(RuntimeError):
                with collecting():
                    pass

    def test_spans_pickle_and_shift(self):
        with collecting() as collector:
            with span("work", "test"):
                pass
        original = collector.spans()[0]
        copied = pickle.loads(pickle.dumps(original))
        assert copied == original
        shifted = original.shift(2.5)
        assert shifted.start == pytest.approx(original.start + 2.5)
        assert shifted.duration == original.duration

    def test_chrome_trace_shape(self, tmp_path):
        with collecting() as collector:
            with span("outer", "test"):
                with span("inner", "test"):
                    pass
        payload = chrome_trace(collector.spans(), label="unit")
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(complete) == 2
        assert metadata, "process_name metadata events missing"
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0  # microseconds
            assert event["cat"] == "test"
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), collector.spans(), label="unit")
        assert json.loads(path.read_text())["traceEvents"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("jobs_total", "jobs", {"status": "done"}).inc()
        registry.counter("jobs_total", "jobs", {"status": "done"}).inc(2)
        registry.gauge("depth", "queue depth").set(7)
        histogram = registry.histogram("latency_seconds", "latency", buckets=[0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        snapshot = registry.snapshot()
        assert snapshot["jobs_total"]["series"][(("status", "done"),)] == 3
        assert snapshot["depth"]["series"][()] == 7
        series = snapshot["latency_seconds"]["series"][()]
        assert series["count"] == 3
        assert series["counts"] == [1, 2]  # cumulative: ≤0.1, ≤1.0
        assert series["sum"] == pytest.approx(5.55)

    def test_kind_mismatch_raises(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_merge_accepts_both_snapshot_shapes(self):
        source = obs_metrics.MetricsRegistry()
        source.counter("a_total", "a", {"k": "v"}).inc(2)
        source.histogram("h_seconds", "h", buckets=[1.0]).observe(0.5)

        into_dict = obs_metrics.MetricsRegistry()
        into_dict.counter("a_total", "a", {"k": "v"}).inc()
        into_dict.merge(source.snapshot())
        assert into_dict.snapshot()["a_total"]["series"][(("k", "v"),)] == 3

        into_wire = obs_metrics.MetricsRegistry()
        wire = source.wire_snapshot()
        json.dumps(wire)  # must survive the pickle/JSON boundary
        into_wire.merge(wire)
        into_wire.merge(wire)
        assert into_wire.snapshot()["a_total"]["series"][(("k", "v"),)] == 4
        histogram = into_wire.snapshot()["h_seconds"]["series"][()]
        assert histogram["count"] == 2

    def test_prometheus_exposition(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("a_total", "things", {"cls": 'dim"4"'}).inc(6)
        registry.histogram("h_seconds", "latency", buckets=[0.5, 1.0]).observe(0.7)
        text = registry.render_prometheus()
        assert "# TYPE a_total counter" in text
        assert 'a_total{cls="dim\\"4\\""} 6' in text
        assert 'h_seconds_bucket{le="0.5"} 0' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_scoped_registry_isolates(self):
        obs_metrics.counter("outer_total", "outer").inc()
        with obs_metrics.scoped() as inner:
            obs_metrics.counter("inner_total", "inner").inc()
            assert "outer_total" not in inner.snapshot()
        assert "inner_total" not in obs_metrics.get_registry().snapshot()

    def test_solver_health_metrics(self):
        """Every certified solve is counted in the iteration histogram of its
        solve class, and the unconverged ones in ``repro_sdp_unconverged_total``."""
        from repro.linalg import HADAMARD, maximally_mixed, pure_density, zero_state
        from repro.noise import bit_flip
        from repro.sdp import gate_error_bounds_batch

        instances = [
            (HADAMARD, bit_flip(1e-3), maximally_mixed(1), 0.05),
            # A pure predicate with δ = 0 has no strictly feasible point.
            (HADAMARD, bit_flip(1e-3), pure_density(zero_state(1)), 0.0),
        ]
        with obs_metrics.scoped() as registry:
            bounds = gate_error_bounds_batch(instances)
        snapshot = registry.snapshot()
        label = (("solve_class", "dim4_constrained"),)
        histogram = snapshot["repro_sdp_solver_iterations"]["series"][label]
        assert histogram["count"] == 2
        assert histogram["sum"] == sum(bound.iterations for bound in bounds)
        unconverged = snapshot["repro_sdp_unconverged_total"]["series"][label]
        assert unconverged == sum(not bound.converged for bound in bounds) == 1


# ---------------------------------------------------------------------------
# Read-only by construction
# ---------------------------------------------------------------------------

class TestBitIdentical:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_gates=st.integers(min_value=3, max_value=8),
    )
    def test_bound_identical_with_observability_on(self, seed, num_gates):
        circuit = random_circuit(2, num_gates, seed=seed)
        plain = analyze_program(circuit, MODEL, config=FAST)
        with obs_metrics.scoped(), collecting() as collector:
            observed = analyze_program(circuit, MODEL, config=FAST)
        assert observed.error_bound == plain.error_bound
        assert observed.final_delta == plain.final_delta
        assert len(collector) > 0
        assert observed.timings["total_seconds"] > 0


# ---------------------------------------------------------------------------
# Cross-process merging
# ---------------------------------------------------------------------------

class TestWorkerMerge:
    def test_pool_workers_ship_metrics_and_spans(self, tmp_path):
        # Distinct widths: jobs are content-addressed, so same-structure
        # circuits would dedupe to fewer than four executions.
        jobs = [_job(f"merge{i}", num_qubits=2 + i) for i in range(4)]
        # adaptive_workers would clamp to the CPU count (1 on small CI
        # runners) and execute inline; the point here is the pool path.
        engine = AnalysisEngine(
            workers=4, store=str(tmp_path / "results.jsonl"), adaptive_workers=False
        )
        with obs_metrics.scoped() as registry, collecting() as collector:
            report = engine.run(jobs)
        assert all(result.status == "ok" for result in report.results)
        snapshot = registry.snapshot()
        analyses = sum(snapshot["repro_analyses_total"]["series"].values())
        assert analyses == 4  # one per worker-executed job, merged back
        job_series = snapshot["repro_engine_jobs_total"]["series"]
        assert sum(job_series.values()) == 4
        names = {entry.name for entry in collector.spans()}
        assert "engine.execute" in names
        # Worker spans crossed the process boundary and were re-based.
        pids = {entry.pid for entry in collector.spans()}
        assert len(pids) > 1
        for entry in collector.spans():
            assert entry.start >= 0

    def test_job_results_carry_timings(self, tmp_path):
        engine = AnalysisEngine(workers=1, store=str(tmp_path / "results.jsonl"))
        report = engine.run([_job("timed")])
        timings = report.results[0].timings
        assert timings["total_seconds"] > 0
        assert "solve_classes" in timings


# ---------------------------------------------------------------------------
# Live HTTP exposition
# ---------------------------------------------------------------------------

@pytest.fixture
def server(tmp_path):
    engine = AnalysisEngine(workers=1, store=str(tmp_path / "results.jsonl"))
    service = AnalysisService(engine, batch_window=0.02, max_batch=8, max_submit=4)
    service.start()
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.headers.get("Content-Type", ""), response.read().decode("utf-8")


def _histogram_count(body: str, prefix: str) -> float:
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in body.splitlines()
        if line.startswith(prefix)
    )


class TestHTTPObservability:
    def test_healthz(self, server):
        base, _service = server
        _ctype, body = _get(f"{base}/v1/healthz")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["workers"] >= 1
        assert "queue_depth" in health and "version" in health

    def test_metrics_format_and_movement(self, server):
        base, service = server
        ctype, before = _get(f"{base}/v1/metrics")
        assert ctype.startswith("text/plain")
        assert "# TYPE repro_http_request_seconds histogram" in before
        count_before = _histogram_count(before, "repro_http_request_seconds_count")

        entry = service.submit_job(_job("metrics-job"))
        assert service.wait_for(entry["fingerprint"], timeout=120)["status"] == "done"

        _ctype, after = _get(f"{base}/v1/metrics")
        count_after = _histogram_count(after, "repro_http_request_seconds_count")
        assert count_after > count_before  # the scrapes themselves are counted
        assert "repro_engine_jobs_total" in after
        assert 'repro_sdp_solves_total{solve_class="' in after
        assert "repro_service_queue_depth" in after

    def test_remote_outcomes_carry_both_clocks(self, server):
        from repro.api import AnalysisSession

        base, _service = server
        with AnalysisSession(remote=base, config=FAST) as remote:
            outcome = remote.analyze_batch([_job("clocks")])[0]
        assert outcome.status == "ok"
        # elapsed_seconds is the server-side execution clock; the client
        # round trip includes submission, batching, and the long poll.
        assert outcome.elapsed_seconds > 0
        assert outcome.round_trip_seconds is not None
        assert outcome.round_trip_seconds > 0
        assert outcome.timings["total_seconds"] > 0  # shipped over /v1

        with AnalysisSession(config=FAST) as local:
            local_outcome = local.analyze_batch([_job("clocks")])[0]
        assert local_outcome.round_trip_seconds is None  # remote-only field
        assert local_outcome.bound == outcome.bound
