"""A resumable result store keyed by job fingerprint, kept as a JSONL log.

The store keeps the surface every caller (engine, service, experiment
drivers) has always used — ``get``/``completed``/``results``/``missing``/
``put``/``put_many`` under one lock — over an append-only line log
(:class:`_JsonlLog`, shared with :class:`~repro.engine.outcomes.OutcomeStore`):

* one record per line, appends are single ``write`` calls followed by one
  flush + fsync, so a kill leaves at worst one truncated trailing line;
* the loader skips unparseable lines (``skipped_lines`` counts them) and the
  next append heals a missing trailing newline before writing;
* later lines win, so re-recording a fingerprint supersedes its old record;
* rewrites (outcome-log compaction) go through a temp file, ``os.replace``
  and a directory fsync, so a kill leaves the old log or the new one.

A store argument is a file path; URL-style arguments (``scheme://…``) are
rejected with :class:`~repro.errors.StorageBackendError`.

``resume`` semantics (used by the engine and the ``--resume`` experiment
flag): a job whose fingerprint maps to an ``ok`` record is not re-executed;
failed, timed-out, or unknown fingerprints run again.  Later writes for a
fingerprint supersede earlier ones — including replacing a
``timeout``/``error`` record with an ``ok`` one once the job is given a
larger budget.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable

from ..errors import EngineError, StorageBackendError
from ..obs import metrics as obs_metrics
from .spec import JobResult, canonical_json

__all__ = ["ResultStore"]


def count_store_op(op: str) -> None:
    """One store operation into the metric registry."""
    obs_metrics.counter(
        "repro_backend_ops_total",
        "Result- and outcome-store operations, by operation.",
        {"op": op},
    ).inc()


class _JsonlLog:
    """Line-log mechanics: load, heal, one-fsync append, atomic rewrite."""

    def __init__(self, path: str):
        self.path = str(path)
        if "://" in self.path:
            scheme = self.path.split("://", 1)[0]
            raise StorageBackendError(
                f"store paths are JSONL file paths, not URLs: {self.path!r} "
                f"names a {scheme}:// scheme",
                scheme=scheme,
            )
        self.skipped_lines = 0
        self.file_lines = 0
        self.needs_newline = False
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)

    def load(self, parse: Callable[[dict], object]) -> list:
        """``parse`` of every record on disk, in file order.

        Unparseable lines (a truncated trailing line after a kill, or foreign
        junk) are skipped and counted rather than failing the whole store.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            content = handle.read()
        # A kill can leave the file without a trailing newline; the next
        # append must not concatenate onto the truncated record.
        self.needs_newline = bool(content) and not content.endswith("\n")
        records = []
        for line in content.splitlines():
            if not line.strip():
                continue
            self.file_lines += 1
            try:
                records.append(parse(json.loads(line)))
            except (json.JSONDecodeError, EngineError):
                self.skipped_lines += 1
        return records

    def append(self, lines: list[str]) -> None:
        """One durable append: a single write, one flush, one fsync."""
        payload = "".join(line + "\n" for line in lines)
        with open(self.path, "a", encoding="utf-8") as handle:
            if self.needs_newline:
                payload = "\n" + payload
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
            # Only after the healing newline is durably on disk: a failed
            # write must leave the flag set so a retry still heals the
            # truncated tail instead of gluing onto it.
            self.needs_newline = False
        self.file_lines += len(lines)

    def rewrite(self, lines: Iterable[str]) -> None:
        """Atomically replace the log: temp file + fsync + ``os.replace``.

        A kill mid-rewrite leaves either the old log or the new one, never a
        mix; the directory fsync makes the rename itself survive power loss.
        """
        tmp_path = self.path + ".compact"
        count = 0
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        directory = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self.file_lines = count
        self.needs_newline = False


class ResultStore:
    """Map from job fingerprint to the latest :class:`JobResult`.

    Args:
        path: the JSONL log file (created with its directory on first write).
    """

    def __init__(self, path: str):
        self._log = _JsonlLog(path)
        self.path = self._log.path
        self._lock = threading.Lock()
        self._results: dict[str, JobResult] = {}
        for result in self._log.load(JobResult.from_json_dict):
            self._results[result.fingerprint] = result

    # -- queries -------------------------------------------------------------
    # Every read takes the lock: the service batcher thread calls put() while
    # request handlers read, and an unlocked read racing a mutation is
    # exactly the kind of bug that only fires under load.
    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._results

    @property
    def skipped_lines(self) -> int:
        """Records the loader could not parse (diagnostics only)."""
        return self._log.skipped_lines

    def get(self, fingerprint: str) -> JobResult | None:
        with self._lock:
            result = self._results.get(fingerprint)
        count_store_op("result_get")
        return result

    def completed(self, fingerprint: str) -> bool:
        """Whether the store holds a successful result for this fingerprint."""
        with self._lock:
            result = self._results.get(fingerprint)
        return result is not None and result.ok

    def results(self) -> dict[str, JobResult]:
        """A snapshot of the latest result per fingerprint."""
        with self._lock:
            return dict(self._results)

    def missing(self, fingerprints: Iterable[str]) -> list[str]:
        """The fingerprints that still need (re-)execution under resume."""
        snapshot = self.results()  # one locked snapshot, not a lock per query
        return [
            fp
            for fp in fingerprints
            if fp not in snapshot or not snapshot[fp].ok
        ]

    # -- mutation ------------------------------------------------------------
    def put(self, result: JobResult) -> None:
        """Record one result; later writes supersede earlier ones."""
        self.put_many([result])

    def put_many(self, results: Iterable[JobResult]) -> None:
        """Record many results with one append (one write, one fsync)."""
        results = list(results)
        if not results:
            return
        lines = [canonical_json(result.to_json_dict()) for result in results]
        with self._lock:
            self._log.append(lines)
            for result in results:
                self._results[result.fingerprint] = result
        count_store_op("result_put")
