"""Tests for the JSONL log under the outcome store: persistence, resume
filtering, robustness, the on-disk format, and the rejection of URL-style
store arguments.

The cases were written for the result store that the outcome store replaced;
they run against :class:`~repro.engine.outcomes.OutcomeStore` and its line
log.  An outcome store keeps only successful results, so "resume filtering"
means that failed and unknown fingerprints are misses.
"""

import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from helpers import RETIRED_COUNTER_FIELDS, RETIRED_RESULT_FIELDS

from repro.api import AnalysisSession
from repro.engine.outcomes import OutcomeStore, _JsonlLog, outcome_record_line
from repro.engine.spec import JobResult, canonical_json
from repro.errors import StorageBackendError, error_envelope, error_from_envelope

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Store arguments that name a URL scheme rather than a JSONL file.
URL_ARGUMENTS = pytest.mark.parametrize(
    "url, scheme",
    [
        ("redis://localhost:6379/0", "redis"),
        ("sqlite:///x.db", "sqlite"),
        ("memory://", "memory"),
        ("memory://name", "memory"),
        ("jsonl://x.jsonl", "jsonl"),
    ],
    ids=["redis", "sqlite", "memory", "memory-name", "jsonl"],
)


def _result(fp: str, status: str = "ok", bound: float = 0.1) -> JobResult:
    return JobResult(fingerprint=fp, name=f"job-{fp}", status=status, error_bound=bound)


def _missing(store: OutcomeStore, fingerprints: list[str]) -> list[str]:
    """The fingerprints a sweep over ``store`` would still execute."""
    return [fp for fp in fingerprints if store.get(fp) is None]


class TestResultStore:
    def test_put_get_across_instances(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = OutcomeStore(str(path))
        store.put(_result("aa", bound=0.5))
        store.put(_result("bb", status="error", bound=None))

        reloaded = OutcomeStore(str(path))
        assert len(reloaded) == 1
        assert reloaded.get("aa").error_bound == 0.5
        assert _missing(reloaded, ["aa", "bb", "cc"]) == ["bb", "cc"]  # errors re-run

    def test_put_get_reload_roundtrip(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = OutcomeStore(path)
        assert len(store) == 0
        results = [_result(f"fp{i:02d}") for i in range(8)]
        for result in results:
            store.put(result)
        assert len(store) == 8
        assert "fp03" in store
        assert store.get("fp03") == results[3]
        assert _missing(store, ["fp00", "fpXX"]) == ["fpXX"]

        reloaded = OutcomeStore(path)  # a "new process" over the same file
        assert len(reloaded) == 8
        assert [reloaded.get(r.fingerprint) for r in results] == results

    def test_later_lines_win(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = OutcomeStore(str(path))
        store.put(_result("aa", bound=0.5))
        store.put(_result("aa", bound=0.25))
        reloaded = OutcomeStore(str(path))
        assert len(reloaded) == 1
        assert reloaded.get("aa").error_bound == 0.25

    def test_missing_filter(self, tmp_path):
        store = OutcomeStore(str(tmp_path / "results.jsonl"))
        store.put(_result("aa"))
        store.put(_result("bb", status="timeout"))
        assert _missing(store, ["aa", "bb", "cc"]) == ["bb", "cc"]

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = OutcomeStore(str(path))
        store.put(_result("aa"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "analysis_outc')  # killed mid-append
        reloaded = OutcomeStore(str(path))
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1
        # The store stays appendable after the bad line.
        reloaded.put(_result("cc"))
        assert OutcomeStore(str(path)).get("cc") is not None

    def test_later_writes_supersede(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = OutcomeStore(path)
        store.put(_result("fp", status="timeout", bound=None))
        assert store.get("fp") is None
        store.put(_result("fp"))  # a bigger budget succeeded later
        assert store.get("fp") is not None
        reloaded = OutcomeStore(path)
        assert reloaded.get("fp") is not None and len(reloaded) == 1

    def test_nested_directory_created(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "results.jsonl"
        OutcomeStore(str(path)).put(_result("aa"))
        assert path.exists()


class TestResultStoreConcurrency:
    def test_put_and_completed_hammered_from_two_threads(self, tmp_path):
        """Reads must hold the lock while the service thread writes.

        One thread appends results while another hammers the read API;
        without locking this races a mutating dict and can raise or return
        torn state.
        """
        store = OutcomeStore(str(tmp_path / "results.jsonl"))
        total = 200
        errors = []
        done = threading.Event()

        def writer():
            try:
                for index in range(total):
                    store.put(_result(f"fp{index:04d}"))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    store.get("fp0000")
                    store.get("fp0199")
                    "fp0100" in store
                    len(store)
                    store.stats()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(store) == total
        assert store.get("fp0000") and store.get(f"fp{total - 1:04d}")

    def test_concurrent_access(self, tmp_path):
        """Eight threads writing and reading through the one store lock."""
        store = OutcomeStore(str(tmp_path / "results.jsonl"))
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(25):
                    store.put(_result(f"fp{base:02d}{i:02d}"))
                    assert store.get(f"fp{base:02d}{i:02d}") is not None
                    len(store)
                    store.stats()
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(store) == 8 * 25
        assert len(OutcomeStore(store.path)) == 8 * 25

    def test_put_many_single_append(self, tmp_path, monkeypatch):
        """Many lines go to disk with one fsync, and stay loadable."""
        path = tmp_path / "results.jsonl"
        log = _JsonlLog(str(path))
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        log.append([outcome_record_line(_result(f"fp{i}"), []) for i in range(25)])
        assert len(fsyncs) == 1
        reloaded = OutcomeStore(str(path))
        assert len(reloaded) == 25
        assert all(reloaded.get(f"fp{i}", verify=True) for i in range(25))

    def test_put_many_heals_truncated_tail_first(self, tmp_path):
        path = tmp_path / "results.jsonl"
        OutcomeStore(str(path)).put(_result("aa"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "analysis_outc')  # killed mid-append
        store = OutcomeStore(str(path))
        store.put(_result("cc"))
        store.put(_result("dd"))
        reloaded = OutcomeStore(str(path))
        assert reloaded.get("cc") and reloaded.get("dd")
        assert reloaded.skipped_lines == 1

    def test_put_many_empty_is_noop(self, tmp_path):
        path = tmp_path / "results.jsonl"
        _JsonlLog(str(path)).append([])
        assert not path.exists() or path.read_text() == ""
        assert len(OutcomeStore(str(path))) == 0


class TestOnDiskFormat:
    def test_earlier_log_reloads_identically(self, tmp_path):
        """A results.jsonl written by the earlier result store loads with the
        same records, re-serializes to the same bytes less the empty fields
        of the removed comparison jobs and the always-0 dominance counter, and
        is left untouched by loading."""
        path = tmp_path / "results.jsonl"
        shutil.copy(FIXTURES / "results_v1.jsonl", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        store = OutcomeStore(str(path))
        assert store.skipped_lines == 0
        latest = {}
        for line in lines:  # later lines win
            record = json.loads(line)
            latest[record["fingerprint"]] = line
        ok = {fp: line for fp, line in latest.items() if json.loads(line)["status"] == "ok"}
        assert len(store) == len(ok) == 2
        for fingerprint, line in ok.items():
            record = json.loads(line)
            assert {record.pop(key) for key in RETIRED_RESULT_FIELDS} <= {"", None}
            assert {record.pop(key) for key in RETIRED_COUNTER_FIELDS} == {0}
            assert canonical_json(store.get(fingerprint).to_json_dict()) == canonical_json(record)
        assert store.get("aa11").error_bound == 0.125
        assert store.get("bb22") is None
        assert path.read_text(encoding="utf-8").splitlines() == lines


class TestStorageBackendError:
    """Store arguments are file paths; every URL scheme is outside input."""

    @URL_ARGUMENTS
    def test_error_carries_the_scheme(self, url, scheme):
        with pytest.raises(StorageBackendError) as excinfo:
            OutcomeStore(url)
        assert excinfo.value.scheme == scheme
        assert "JSONL" in str(excinfo.value)

    def test_envelope_roundtrip_preserves_the_class(self):
        """The /v1 400 envelope reconstructs as StorageBackendError."""
        try:
            OutcomeStore("redis://localhost:6379/0")
        except StorageBackendError as exc:
            envelope = error_envelope(exc, status=400)
        entry = envelope["error"]
        assert entry["type"] == "StorageBackendError"
        assert entry["status"] == 400
        assert entry["repro_error"] is True
        assert "redis" in entry["message"]
        rebuilt = error_from_envelope(envelope, status=400)
        assert isinstance(rebuilt, StorageBackendError)
        assert "redis" in str(rebuilt)

    @URL_ARGUMENTS
    def test_facades_reject_unknown_schemes(self, url, scheme, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(StorageBackendError):
            OutcomeStore(url)
        with pytest.raises(StorageBackendError):
            AnalysisSession(outcomes=url)
        assert os.listdir(tmp_path) == []  # nothing was created

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StorageBackendError, match="postgres"):
            OutcomeStore("postgres://nope")

    @URL_ARGUMENTS
    def test_gleipnir_serve_exits_2_with_one_line(self, url, scheme, capsys):
        """A URL-style --outcomes is an operator error, not a traceback."""
        from repro.engine.service import main

        assert main(["--outcomes", url, "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("gleipnir-serve: ")
        assert f"{scheme}://" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
