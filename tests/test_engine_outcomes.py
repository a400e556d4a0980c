"""Tests for the outcome store: store semantics, corruption paths, the legacy
result log, engine/session/service wiring, and on-demand certificate
re-verification."""

import dataclasses
import itertools
import json
import os
import shutil
import stat
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import RETIRED_COUNTER_FIELDS, RETIRED_RESULT_FIELDS, random_circuit

from repro.api import AnalysisSession
from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import analyze_program
from repro.engine.outcomes import (
    OUTCOME_SCHEMA_VERSION,
    OutcomeCertificate,
    OutcomeStore,
    outcome_record_line,
)
from repro.engine.pool import AnalysisEngine, execute_job_record
from repro.engine.service import AnalysisService
from repro.engine.spec import AnalysisJob, JobResult, canonical_json
from repro.noise import NoiseModel, depolarizing

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _job(circuit: Circuit, name: str | None = None) -> AnalysisJob:
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST, name=name)


def _small_jobs() -> list[AnalysisJob]:
    return [
        _job(Circuit(2, name="ghz2").h(0).cx(0, 1)),
        _job(Circuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)),
        _job(random_circuit(3, 12, seed=5), name="random3x12"),
    ]


def _result(fingerprint: str, name: str = "job") -> JobResult:
    return JobResult(fingerprint=fingerprint, name=name, status="ok", error_bound=0.25)


def _executed(job: AnalysisJob):
    result, certificates = execute_job_record(job, collect_certificates=True)
    assert result.ok and certificates
    return result, certificates


class TestStoreBasics:
    def test_roundtrip_and_reload(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        result, certificates = _executed(job)

        store = OutcomeStore(path)
        assert store.get(result.fingerprint) is None  # miss
        store.put(result, certificates)
        assert store.get(result.fingerprint) == result

        # A fresh process (new store over the same file) answers identically.
        reloaded = OutcomeStore(path)
        assert reloaded.get(result.fingerprint) == result
        assert len(reloaded.certificates(result.fingerprint)) == len(certificates)

    def test_failed_results_never_stored(self, tmp_path):
        store = OutcomeStore(str(tmp_path / "outcomes.jsonl"))
        store.put(JobResult(fingerprint="f" * 8, name="boom", status="timeout"))
        assert len(store) == 0

    def test_roundtrip_reload_and_verified_get(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        result, certificates = _executed(_small_jobs()[0])
        store = OutcomeStore(path)
        store.put(result, certificates)
        store.close()

        reloaded = OutcomeStore(path)
        assert reloaded.get(result.fingerprint, verify=True) == result
        assert reloaded.stats()["verification_failures"] == 0
        assert len(reloaded.certificates(result.fingerprint)) == len(certificates)
        assert all(cert.verify() for cert in reloaded.certificates(result.fingerprint))
        reloaded.close()

    def test_failed_results_leave_the_log_empty(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        store = OutcomeStore(str(path))
        store.put(JobResult(fingerprint="f" * 8, name="boom", status="timeout"))
        store.close()
        assert not path.exists() or path.read_text(encoding="utf-8") == ""
        assert len(OutcomeStore(str(path))) == 0

    def test_verify_on_demand_passes_for_genuine_records(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        result, certificates = _executed(job)
        store = OutcomeStore(path)
        store.put(result, certificates)
        assert store.get(result.fingerprint, verify=True) == result
        assert store.stats()["verification_failures"] == 0


class TestCorruptionPaths:
    def test_truncated_trailing_line_healed_on_load(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()[:2]
        store = OutcomeStore(path)
        results = []
        for job in jobs:
            result, certificates = _executed(job)
            store.put(result, certificates)
            results.append(result)
        # Simulate a kill mid-append: a cut-off record without a newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "analysis_outc')

        healed = OutcomeStore(path)
        assert healed.skipped_lines == 1
        assert healed.get(results[0].fingerprint) == results[0]
        # The next append heals the file: a fresh load sees every record.
        extra, extra_certs = _executed(_small_jobs()[2])
        healed.put(extra, extra_certs)
        final = OutcomeStore(path)
        for result in [*results, extra]:
            assert final.get(result.fingerprint) == result

    def test_tampered_certificate_rejected_by_verify(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        result, certificates = _executed(job)
        OutcomeStore(path).put(result, certificates)

        # Tamper on disk: claim a smaller certified value than the dual
        # certificate actually establishes.
        with open(path, "r", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        for certificate in record["certificates"]:
            certificate["value"] = certificate["value"] * 1e-3
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

        store = OutcomeStore(path)
        # Blind lookups still answer (the record parses) ...
        assert store.get(result.fingerprint) is not None
        # ... but verify=True re-checks the certificates, drops the record,
        # and reports a miss, so the caller recomputes.
        assert store.get(result.fingerprint, verify=True) is None
        stats = store.stats()
        assert stats["verification_failures"] == 1
        assert store.get(result.fingerprint) is None  # entry is gone

    def test_dropped_record_stays_dropped_after_reopen(self, tmp_path):
        """A record rejected by verify=True must not reload from the log,
        where a blind get() would serve it again."""
        path = str(tmp_path / "outcomes.jsonl")
        tampered, certificates = _executed(_small_jobs()[0])
        genuine, genuine_certs = _executed(_small_jobs()[1])
        store = OutcomeStore(path)
        store.put(tampered, certificates)
        store.put(genuine, genuine_certs)
        records = [json.loads(line) for line in Path(path).read_text().splitlines()]
        for certificate in records[0]["certificates"]:
            certificate["value"] = certificate["value"] * 1e-3
        Path(path).write_text("".join(json.dumps(r) + "\n" for r in records))

        store = OutcomeStore(path)
        assert store.get(tampered.fingerprint, verify=True) is None
        assert store.stats()["verification_failures"] == 1

        reopened = OutcomeStore(path)
        assert reopened.get(tampered.fingerprint) is None
        assert len(reopened) == 1
        assert reopened.get(genuine.fingerprint, verify=True) == genuine
        # The log stays appendable after the rewrite.
        reopened.put(tampered, certificates)
        assert OutcomeStore(path).get(tampered.fingerprint, verify=True) == tampered

    def test_torn_tail_keeps_certificates_verifiable(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        result, certificates = _executed(_small_jobs()[0])
        store = OutcomeStore(path)
        store.put(result, certificates)
        store.close()
        # A kill mid-append leaves a torn trailing line after a good record.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "analysis_outc')

        reloaded = OutcomeStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.get(result.fingerprint, verify=True) == result
        assert reloaded.stats()["verification_failures"] == 0
        reloaded.close()

    def test_garbage_certificate_payload_fails_verification(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        result, _certificates = _executed(job)
        store = OutcomeStore(path)
        store.put(result, [{"not": "a certificate"}])
        assert store.get(result.fingerprint, verify=True) is None
        assert store.stats()["verification_failures"] == 1


class TestEvictionAndPinning:
    def test_lru_eviction_over_cap(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        store = OutcomeStore(path, max_entries=2)
        results = []
        for job in _small_jobs():
            result, certificates = _executed(job)
            store.put(result, certificates)
            results.append(result)
        assert len(store) == 2
        assert store.stats()["evictions"] == 1
        assert store.get(results[0].fingerprint) is None  # LRU victim
        assert store.get(results[2].fingerprint) is not None

    def test_hits_refresh_recency(self, tmp_path):
        store = OutcomeStore(str(tmp_path / "outcomes.jsonl"), max_entries=2)
        jobs = _small_jobs()
        first, first_certs = _executed(jobs[0])
        second, second_certs = _executed(jobs[1])
        store.put(first, first_certs)
        store.put(second, second_certs)
        store.get(first.fingerprint)  # touch: first is now most recent
        third, third_certs = _executed(jobs[2])
        store.put(third, third_certs)
        assert store.get(first.fingerprint) is not None
        assert store.get(second.fingerprint) is None  # evicted instead

    def test_lru_eviction_order_and_touch(self, tmp_path):
        store = OutcomeStore(str(tmp_path / "outcomes.jsonl"), max_entries=2)
        for i in range(2):
            store.put(_result(f"fp{i}"))
        assert store.get("fp0") is not None  # touch: fp1 is now the LRU
        store.put(_result("fp2"))
        assert len(store) == 2
        assert "fp1" not in store  # the untouched entry was evicted
        assert "fp0" in store and "fp2" in store
        assert store.stats()["evictions"] == 1
        store.close()

    def test_concurrent_access(self, tmp_path):
        """Six threads putting and reading under the one store lock."""
        store = OutcomeStore(str(tmp_path / "outcomes.jsonl"), max_entries=64)
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(20):
                    fingerprint = f"fp{base:02d}{i:02d}"
                    store.put(_result(fingerprint))
                    store.get(fingerprint)
                    len(store)
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(store) == 64  # capped by LRU, never above
        assert len(OutcomeStore(store.path, max_entries=64)) == 64

    def test_compaction_preserves_live_entries(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        store = OutcomeStore(path, max_entries=1)
        results = []
        # Enough churn to trigger the dead-lines > live+64 compaction rule.
        for index in range(70):
            job = _job(Circuit(2, name=f"c{index}").h(0).rx(0.01 * (index + 1), 1))
            result, certificates = execute_job_record(job, collect_certificates=True)
            store.put(result, certificates)
            results.append(result)
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        assert len(lines) < 70  # the log was rewritten
        assert store.get(results[-1].fingerprint) == results[-1]
        assert OutcomeStore(path).get(results[-1].fingerprint) == results[-1]

    def test_compaction_bounds_the_log_under_rewrites(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        store = OutcomeStore(path)
        # Rewrite the same fingerprints many times: dead records pile up in
        # the append-only log and must be reclaimed without losing state.
        for round_ in range(40):
            for i in range(3):
                store.put(_result(f"fp{i}", name=f"round{round_}"))
        assert len(store) == 3
        with open(path, encoding="utf-8") as handle:
            file_lines = sum(1 for _ in handle)
        # The 2:1 amortized rule: the log stays within a constant factor of
        # the live set instead of growing with write volume.
        assert file_lines <= max(2 * 3, 3 + 64)
        store.close()
        reloaded = OutcomeStore(path)
        assert len(reloaded) == 3
        for i in range(3):
            entry = reloaded.get(f"fp{i}")
            assert entry is not None and entry.name == "round39"
        reloaded.close()


class TestOnDiskFormat:
    def test_earlier_log_reloads_identically(self, tmp_path):
        """An outcomes.jsonl written by an earlier release of the store loads
        with the same entries, and a rewrite reproduces it byte for byte less
        the empty result fields of the removed comparison jobs and the
        always-0 dominance counter."""
        path = tmp_path / "outcomes.jsonl"
        shutil.copy(FIXTURES / "outcomes_v1.jsonl", path)
        original = path.read_text(encoding="utf-8")
        records = [json.loads(line) for line in original.splitlines()]
        assert {record["version"] for record in records} == {OUTCOME_SCHEMA_VERSION}

        store = OutcomeStore(str(path))
        assert store.skipped_lines == 0 and len(store) == len(records)
        for line, record in zip(original.splitlines(), records):
            fingerprint = record["result"]["fingerprint"]
            result = store.get(fingerprint, verify=True)
            assert result == JobResult.from_json_dict(record["result"])
            raw = [c.to_json_dict() for c in store.certificates(fingerprint)]
            expected = json.loads(line)
            assert {expected["result"].pop(key) for key in RETIRED_RESULT_FIELDS} <= {"", None}
            assert {expected["result"].pop(key) for key in RETIRED_COUNTER_FIELDS} == {0}
            assert outcome_record_line(result, raw) == canonical_json(expected)
        assert store.stats()["verification_failures"] == 0
        assert path.read_text(encoding="utf-8") == original

    def test_legacy_result_log_reloads_and_is_never_verified(self, tmp_path):
        """A results.jsonl of the old result store is an outcome log of
        legacy entries: plain get() answers its ok records, get(verify=True)
        misses, a later failure line drops an earlier entry, and all of this
        holds after a compaction rewrites the log."""
        path = tmp_path / "results.jsonl"
        shutil.copy(FIXTURES / "results_v1.jsonl", path)
        latest = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)  # later lines win
            latest[record["fingerprint"]] = record
        ok = {fp: record for fp, record in latest.items() if record["status"] == "ok"}
        assert len(ok) == 2 and "bb22" not in ok

        def check(store):
            assert store.skipped_lines == 0
            assert store.get("bb22") is None  # failures re-run
            for fingerprint, record in ok.items():
                for key in RETIRED_RESULT_FIELDS + RETIRED_COUNTER_FIELDS:
                    record.pop(key, None)
                assert store.get(fingerprint) == JobResult.from_json_dict(record)
                assert store.get(fingerprint, verify=True) is None
                assert store.certificates(fingerprint) == []
                assert store.get(fingerprint) is not None  # still served

        store = OutcomeStore(str(path))
        assert len(store) == 2
        check(store)
        assert store.stats()["verification_failures"] == 0
        assert store.get("aa11").error_bound == 0.125

        # The 64th put leaves 68 lines for 3 live entries: past live + 64, so
        # the log is compacted.
        for _ in range(64):
            store.put(_result("other"))
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 3
        # Legacy entries are written back as bare result lines.
        assert sorted(r["fingerprint"] for r in records if "kind" not in r) == sorted(ok)
        check(store)
        reopened = OutcomeStore(str(path))
        assert len(reopened) == 3
        check(reopened)
        assert reopened.get("other", verify=True) == _result("other")

        # A verified put replaces a legacy entry.
        job = _small_jobs()[0]
        result, certificates = _executed(job)
        legacy = dataclasses.replace(result, elapsed_seconds=1.0)
        path.write_text(canonical_json(legacy.to_json_dict()) + "\n", encoding="utf-8")
        upgraded = OutcomeStore(str(path))
        assert upgraded.get(result.fingerprint, verify=True) is None
        upgraded.put(result, certificates)
        assert OutcomeStore(str(path)).get(result.fingerprint, verify=True) == result

    def test_rewrite_fsyncs_the_directory(self, tmp_path, monkeypatch):
        """Compaction's rename is made durable by a directory fsync."""
        store = OutcomeStore(str(tmp_path / "outcomes.jsonl"), max_entries=1)
        synced_directories = []
        real_fsync = os.fsync

        def spy(fd):
            synced_directories.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        for index in range(66):  # past the dead-lines > live + 64 rule
            store.put(_result(f"fp{index:02d}"))
        assert synced_directories.count(True) == 1
        assert synced_directories.count(False) == 67  # 66 appends + the temp file
        assert OutcomeStore(store.path).get("fp65") is not None


class TestEngineIntegration:
    def test_warm_hit_skips_execution_and_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()
        cold = AnalysisEngine(workers=1, outcomes=path).run(jobs)
        assert cold.ok and cold.executed == 3 and cold.outcome_hits == 0

        warm_engine = AnalysisEngine(workers=1, outcomes=path)
        warm = warm_engine.run(jobs)
        assert warm.executed == 0
        assert warm.outcome_hits == 3
        assert [r.error_bound for r in warm.results] == [
            r.error_bound for r in cold.results
        ]
        assert warm.results == cold.results  # whole records, bit-identical
        stats = warm_engine.stats()["outcomes"]
        assert stats["hits"] == 3 and stats["entries"] == 3

    def test_stored_certificates_reverifiable_after_engine_run(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()
        AnalysisEngine(workers=1, outcomes=path).run(jobs)
        store = OutcomeStore(path)
        for job in jobs:
            fingerprint = job.fingerprint()
            assert store.get(fingerprint, verify=True) is not None
            assert store.certificates(fingerprint)
        assert store.stats()["verification_failures"] == 0

    def test_pool_workers_collect_certificates(self, tmp_path, monkeypatch):
        # Above the CPU count the engine would clamp to inline execution.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = str(tmp_path / "outcomes.jsonl")
        jobs = _small_jobs()
        report = AnalysisEngine(workers=2, outcomes=path).run(jobs)
        assert report.ok
        store = OutcomeStore(path)
        for job in jobs:
            assert store.get(job.fingerprint(), verify=True) is not None

    def test_stored_certificates_are_the_distinct_derivation_bounds(self, tmp_path):
        """x then id from |0⟩ are two gates that reduce to one SDP, solved
        once, so their gate nodes share one bound, stored once; the
        noiseless h contributes none."""
        model = (
            NoiseModel()
            .add_gate_rule("x", depolarizing(1e-3))
            .add_gate_rule("id", depolarizing(1e-3))
        )
        circuit = Circuit(2, name="shared").x(0).i(0).h(1)
        job = AnalysisJob.from_circuit(circuit, model, config=FAST)
        analysis = analyze_program(circuit, model, config=FAST)
        x_bound, id_bound, h_bound = [
            node.bound for node in analysis.derivation.gate_nodes()
        ]
        assert analysis.scheduled_solves == 1
        assert x_bound is id_bound and h_bound is None

        path = str(tmp_path / "outcomes.jsonl")
        report = AnalysisEngine(outcomes=path).run([job])
        assert report.ok and report.results[0].error_bound == analysis.error_bound
        store = OutcomeStore(path)
        fingerprint = job.fingerprint()
        stored = [c.to_json_dict() for c in store.certificates(fingerprint)]
        assert stored == [OutcomeCertificate.from_bound(x_bound).to_json_dict()]
        assert store.get(fingerprint, verify=True) is not None

    def test_outcome_certificate_wire_roundtrip(self):
        _result, certificates = _executed(_small_jobs()[0])
        for certificate in certificates:
            clone = OutcomeCertificate.from_json_dict(certificate.to_json_dict())
            assert clone.verify()
            assert clone.value == certificate.value


class TestWarmColdProperty:
    _paths = itertools.count()

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        p=st.floats(min_value=1e-5, max_value=5e-3, allow_nan=False),
        num_qubits=st.sampled_from([2, 3]),
    )
    def test_warm_analysis_bit_identical_to_cold(self, tmp_path, p, num_qubits):
        """A warm answer equals the cold run, with its certificates intact."""
        path = str(tmp_path / f"outcomes{next(self._paths)}.jsonl")
        circuit = Circuit(num_qubits, name=f"ghz{num_qubits}").h(0)
        for q in range(1, num_qubits):
            circuit.cx(q - 1, q)
        job = AnalysisJob.from_circuit(
            circuit, NoiseModel.uniform_bit_flip(p), config=FAST
        )
        cold_report = AnalysisEngine(workers=1, outcomes=path).run([job])
        assert cold_report.ok and cold_report.outcome_hits == 0
        cold = cold_report.results[0]

        # A fresh store over the persisted log answers verified and
        # bit-identical — and the engine's warm path never re-executes.
        warm_store = OutcomeStore(path)
        verified = warm_store.get(job.fingerprint(), verify=True)
        assert verified is not None
        assert verified.error_bound == cold.error_bound
        assert warm_store.stats()["verification_failures"] == 0

        warm_report = AnalysisEngine(workers=1, outcomes=warm_store).run([job])
        assert warm_report.executed == 0 and warm_report.outcome_hits == 1
        assert warm_report.results[0] == cold


class TestSessionAndServiceIntegration:
    def test_session_analyze_batch_answers_warm_from_store(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        circuit = Circuit(2, name="ghz2").h(0).cx(0, 1)
        with AnalysisSession(config=FAST, outcomes=path) as session:
            cold = session.analyze(circuit, MODEL)
        with AnalysisSession(config=FAST, outcomes=path) as session:
            warm = session.analyze(circuit, MODEL)
            # Nothing was pending: the whole batch answered from the store.
            assert session.engine.stats()["last_batch_executed"] == 0
        assert warm == cold

    def test_service_warm_hit_answers_without_the_pool(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        job = _small_jobs()[0]
        AnalysisEngine(workers=1, outcomes=path).run([job])

        engine = AnalysisEngine(workers=1, outcomes=path)
        service = AnalysisService(engine)
        try:
            service.start()
            entry = service.submit_job(job)
            # "done" at submission time: no queue, no service thread, no pool.
            assert entry["status"] == "done"
            assert entry["result"]["error_bound"] is not None
            assert service.batches_run == 0
        finally:
            service.stop()

    def test_capabilities_expose_outcome_counters(self, tmp_path):
        path = str(tmp_path / "outcomes.jsonl")
        with AnalysisSession(config=FAST, outcomes=path) as session:
            session.analyze(Circuit(2, name="ghz2").h(0).cx(0, 1), MODEL)
            outcomes = session.capabilities()["engine"]["outcomes"]
        assert outcomes is not None
        assert {"hits", "misses", "evictions"} <= set(outcomes)

    def test_remote_session_rejects_outcomes_knob(self):
        with pytest.raises(Exception):
            AnalysisSession(remote="http://127.0.0.1:1", outcomes="o.jsonl")
