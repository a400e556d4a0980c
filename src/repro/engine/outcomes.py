"""A content-addressed store of whole analysis outcomes, re-verifiable on demand.

The warm path of the serving workload: a repeat submission should cost one
store lookup, not an MPS walk plus a derivation replay.  The
:class:`OutcomeStore` maps the job fingerprint to the full serialized
:class:`~repro.engine.spec.JobResult` **plus the certificates** that
established the job's per-gate bounds, so a warm answer is not a blind
memo: ``get(fingerprint, verify=True)`` re-checks every stored dual
certificate's feasibility against its stored Choi matrix (the cheap half of
the original work — never the SDP solve), recomputes every closed-form
certificate bit for bit, and refuses to answer from a record whose
certificates no longer verify.

It is also what makes a sweep resumable: an engine with a store attached
never re-executes a fingerprint the store answers, and failed results are
never stored, so they run again.

Outcomes live in a JSONL line log (:class:`_JsonlLog`), one
:func:`outcome_record_line` per put:

* appends are single ``write`` calls followed by one flush + fsync, so a kill
  leaves at worst one truncated trailing line;
* the loader skips unparseable lines (``skipped_lines`` counts them) and the
  next append heals a missing trailing newline before writing;
* later lines win and file order is recency order;
* rewrites (compaction) go through a temp file, ``os.replace`` and a
  directory fsync, so a kill leaves the old log or the new one.

A store argument is a file path; URL-style arguments (``scheme://…``) are
rejected with :class:`~repro.errors.StorageBackendError`.

On top of the log the store keeps the size-capped LRU (``max_entries``),
certificate verification, and the hit/miss/eviction accounting.  A hit is
decided and read in one locked :meth:`OutcomeStore.get` call, so no
eviction can fall between the two.
The log is compacted (atomic rewrite of the live entries) once dead lines
outnumber live entries 2:1, and a record that fails re-verification is
dropped from the file as well, so it never comes back after a restart.
Certificates ride as base64-encoded ``complex128`` arrays decoded lazily, so
the hot ``get()`` path never touches base64.

A log written by the removed result store holds bare ``JobResult`` lines
without certificates.  Those load as *legacy* entries: plain ``get()``
serves them, ``get(verify=True)`` reports a miss (there is nothing to
verify, so the caller recomputes), and compaction writes them back as bare
lines, so they stay legacy.  A bare failed line drops any earlier entry for
its fingerprint, as it did in that log.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import threading
from collections.abc import Callable, Iterable
from itertools import islice

import numpy as np

from ..errors import EngineError, StorageBackendError
from ..obs import metrics as obs_metrics
from ..sdp.certificates import DualCertificate, verify_certificate
from ..sdp.closed_form import ClosedFormCertificate, verify_closed_form
from .spec import JobResult, canonical_json

__all__ = ["OutcomeStore", "OutcomeCertificate", "OUTCOME_SCHEMA_VERSION"]

#: Schema version of one outcome record; bump on incompatible format changes.
OUTCOME_SCHEMA_VERSION = 1

#: Tolerance of the on-demand certificate re-check.  Matches the derivation
#: checker's floor (max(tolerance, 1e-6) in Derivation._check_gate): the
#: stored certificate was verified at solve time, so the re-check only needs
#: to catch corruption/tampering, not re-litigate solver precision.
VERIFY_TOLERANCE = 1e-6


def count_store_op(op: str) -> None:
    """One store operation into the metric registry."""
    obs_metrics.counter(
        "repro_backend_ops_total",
        "Outcome-store operations, by operation.",
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


def _encode_array(array: np.ndarray) -> dict:
    """A complex matrix as a JSON-safe {shape, data} payload."""
    contiguous = np.ascontiguousarray(np.asarray(array, dtype=np.complex128))
    return {
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`_encode_array`, with length validation."""
    if not isinstance(payload, dict):
        raise EngineError(f"array payload must be a dict, got {type(payload).__name__}")
    try:
        shape = tuple(int(value) for value in payload["shape"])
        raw = base64.b64decode(payload["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise EngineError(f"malformed array payload: {exc}") from exc
    expected = int(np.prod(shape)) * np.dtype(np.complex128).itemsize
    if len(raw) != expected:
        raise EngineError(
            f"array payload carries {len(raw)} bytes for shape {shape} "
            f"(expected {expected})"
        )
    return np.frombuffer(raw, dtype=np.complex128).reshape(shape).copy()


@dataclasses.dataclass(frozen=True)
class OutcomeCertificate:
    """One stored gate-bound certificate, self-contained.

    ``certificate`` is either an SDP's
    :class:`~repro.sdp.certificates.DualCertificate`, stored with ``choi``,
    the difference map it bounds, or a
    :class:`~repro.sdp.closed_form.ClosedFormCertificate`, which carries its
    channel ``(p, V)`` itself and leaves ``choi`` None.  :meth:`verify`
    needs nothing but the stored bytes: an SDP certificate's feasibility
    (``z ⪰ 0``, ``z ⪰ J``, ``y ≥ 0``) and value are recomputed from scratch,
    the SDP solve never is, and a closed-form certificate is recomputed bit
    for bit.

    On the wire a closed-form payload has ``"kind": "closed-form"``; an SDP
    payload has no ``kind`` (every payload written before closed-form bounds
    existed is one), and ``"kind": "sdp"`` decodes as one too.
    """

    certificate: DualCertificate | ClosedFormCertificate
    choi: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "closed-form" if isinstance(self.certificate, ClosedFormCertificate) else "sdp"

    @property
    def value(self) -> float:
        return self.certificate.value

    @classmethod
    def from_bound(cls, bound) -> "OutcomeCertificate":
        """Snapshot a :class:`~repro.sdp.diamond.DiamondNormBound`'s certificate."""
        certificate = bound.certificate
        if isinstance(certificate, ClosedFormCertificate):
            return cls(certificate)
        return cls(
            DualCertificate(
                value=float(certificate.value),
                z=np.asarray(certificate.z, dtype=np.complex128),
                y=float(certificate.y),
                constraint_operator=(
                    np.asarray(certificate.constraint_operator, dtype=np.complex128)
                    if certificate.constraint_operator is not None
                    else None
                ),
                constraint_bound=float(certificate.constraint_bound),
            ),
            choi=np.asarray(bound.choi, dtype=np.complex128),
        )

    def verify(self, *, tolerance: float = VERIFY_TOLERANCE) -> bool:
        """Independently re-check the certificate; a closed form has no tolerance."""
        if isinstance(self.certificate, ClosedFormCertificate):
            return verify_closed_form(self.certificate)
        return verify_certificate(self.certificate, self.choi, tolerance=tolerance)

    def to_json_dict(self) -> dict:
        certificate = self.certificate
        if isinstance(certificate, ClosedFormCertificate):
            return {
                "kind": "closed-form",
                "p": certificate.p,
                "v": _encode_array(certificate.v),
                "sigma": _encode_array(certificate.sigma),
                "delta": certificate.delta,
                "m": certificate.m,
                "value": certificate.value,
            }
        return {
            "value": certificate.value,
            "y": certificate.y,
            "constraint_bound": certificate.constraint_bound,
            "z": _encode_array(certificate.z),
            "constraint_operator": (
                _encode_array(certificate.constraint_operator)
                if certificate.constraint_operator is not None
                else None
            ),
            "choi": _encode_array(self.choi),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "OutcomeCertificate":
        if not isinstance(payload, dict):
            raise EngineError(
                f"certificate payload must be a dict, got {type(payload).__name__}"
            )
        kind = payload.get("kind", "sdp")
        try:
            if kind == "closed-form":
                return cls(
                    ClosedFormCertificate(
                        p=float(payload["p"]),
                        v=_decode_array(payload["v"]),
                        sigma=_decode_array(payload["sigma"]),
                        delta=float(payload["delta"]),
                        m=float(payload["m"]),
                        value=float(payload["value"]),
                    )
                )
            if kind != "sdp":
                raise EngineError(f"unknown certificate kind {kind!r}")
            operator = payload.get("constraint_operator")
            return cls(
                DualCertificate(
                    value=float(payload["value"]),
                    z=_decode_array(payload["z"]),
                    y=float(payload["y"]),
                    constraint_operator=(
                        _decode_array(operator) if operator is not None else None
                    ),
                    constraint_bound=float(payload["constraint_bound"]),
                ),
                choi=_decode_array(payload["choi"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EngineError(f"malformed certificate payload: {exc}") from exc


def outcome_record_line(result: JobResult, certificates: list[dict] | None) -> str:
    """One serialized outcome record (shared by append and rewrite).

    A legacy entry (``certificates`` None) is written back as the bare
    result line it was loaded from, so it reloads as legacy.
    """
    if certificates is None:
        return canonical_json(result.to_json_dict())
    return canonical_json(
        {
            "version": OUTCOME_SCHEMA_VERSION,
            "kind": "analysis_outcome",
            "result": result.to_json_dict(),
            "certificates": certificates,
        }
    )


def entry_from_outcome_record(record: dict) -> dict:
    """Validate one parsed outcome record into an entry.

    A record without ``kind`` is a bare result line of the old result log:
    its entry has ``certificates`` None, and it may be a failure, which the
    loader treats as dropping the fingerprint.
    """
    if not isinstance(record, dict):
        raise EngineError("outcome record must be a dict")
    if "kind" not in record:
        result = JobResult.from_json_dict(record)
        if not result.fingerprint:
            raise EngineError("result records must carry a fingerprint")
        return {"result": result, "certificates": None}
    if record.get("kind") != "analysis_outcome":
        raise EngineError(f"not an outcome record: kind={record.get('kind')!r}")
    if record.get("version") != OUTCOME_SCHEMA_VERSION:
        raise EngineError(f"unsupported outcome schema {record.get('version')!r}")
    result = JobResult.from_json_dict(record.get("result") or {})
    if not result.ok or not result.fingerprint:
        raise EngineError("outcome records must carry a successful result")
    certificates = record.get("certificates")
    if not isinstance(certificates, list):
        raise EngineError("certificates must be a list")
    return {"result": result, "certificates": certificates}


class OutcomeStore:
    """LRU-capped map from job fingerprint to its whole outcome.

    Args:
        path: the JSONL log file (created with its directory on first write).
        max_entries: live-entry cap; the least-recently-used entries are
            evicted beyond it (None = unbounded).
    """

    def __init__(self, path: str, *, max_entries: int | None = None):
        if max_entries is not None and int(max_entries) < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        self.max_entries = int(max_entries) if max_entries is not None else None
        self._log = _JsonlLog(path)
        self.path = self._log.path
        self._lock = threading.Lock()
        # fingerprint -> {"result": JobResult, "certificates": [raw dict, ...]}
        # — certificates stay in wire form so the blind-lookup hot path never
        # pays base64 decoding; None marks a legacy entry.  Insertion order
        # doubles as recency order (hits and later lines re-insert at the end).
        self._entries: dict[str, dict] = {}
        for entry in self._log.load(entry_from_outcome_record):
            fingerprint = entry["result"].fingerprint
            self._entries.pop(fingerprint, None)
            if entry["result"].ok:
                self._entries[fingerprint] = entry
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._verification_failures = 0
        with self._lock:
            self._evict_over_cap()

    def close(self) -> None:
        """Nothing to release: every write is already durable on return."""

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    @property
    def skipped_lines(self) -> int:
        """Records the loader could not parse (diagnostics only)."""
        return self._log.skipped_lines

    def _touch(self, fingerprint: str) -> dict | None:
        """The entry for ``fingerprint``, made most-recent.  Callers hold the lock."""
        entry = self._entries.pop(fingerprint, None)
        if entry is not None:
            self._entries[fingerprint] = entry
        return entry

    def get(self, fingerprint: str, *, verify: bool = False) -> JobResult | None:
        """The stored outcome for ``fingerprint``, or None.

        With ``verify=True`` every stored certificate is re-checked against
        its stored Choi matrix first; a record that fails re-verification is
        dropped from the store and its log (counted in
        ``verification_failures``) and the lookup reports a miss — the caller
        recomputes, it never gets a tampered answer, not even after a restart.
        A legacy entry has no certificates to re-check, so ``verify=True``
        reports it as a miss and keeps it.
        """
        count_store_op("outcome_get")
        with self._lock:
            if not verify:
                entry = self._touch(fingerprint)
                if entry is None:
                    self._misses += 1
                    self._count("miss")
                    return None
                self._hits += 1
                self._count("hit")
                return entry["result"]
            entry = self._entries.get(fingerprint)
            if entry is None or entry["certificates"] is None:
                self._misses += 1
                self._count("miss")
                return None
            raw_certificates = list(entry["certificates"])
        # Decode + verify outside the lock: O(certificates) eigenvalue work.
        try:
            verified = all(
                OutcomeCertificate.from_json_dict(raw).verify()
                for raw in raw_certificates
            )
        except EngineError:
            verified = False
        with self._lock:
            if not verified:
                if self._entries.pop(fingerprint, None) is not None:
                    # A rare path, so a whole rewrite is affordable: the
                    # dropped record must not reload from the log.
                    self._rewrite()
                self._verification_failures += 1
                self._misses += 1
                self._count("verification_failure")
                return None
            current = self._touch(fingerprint)
            if current is None:
                self._misses += 1
                self._count("miss")
                return None
            self._hits += 1
            self._count("verified_hit")
            return current["result"]

    @staticmethod
    def _count(outcome: str) -> None:
        """One outcome-store event into the metric registry."""
        obs_metrics.counter(
            "repro_outcome_store_lookups_total",
            "Whole-outcome store lookups by outcome.",
            {"outcome": outcome},
        ).inc()

    def certificates(self, fingerprint: str) -> list[OutcomeCertificate]:
        """The decoded dual certificates stored with an outcome."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            raw = list(entry["certificates"] or []) if entry is not None else []
        return [OutcomeCertificate.from_json_dict(payload) for payload in raw]

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": self.path,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "verification_failures": self._verification_failures,
                "skipped_lines": self._log.skipped_lines,
            }

    # -- mutation ------------------------------------------------------------
    def put(self, result: JobResult, certificates: Iterable = ()) -> None:
        """Record one successful outcome with its dual certificates.

        Failed results are not stored (a timeout under one budget must not
        answer for a healthy re-run); certificates may be
        :class:`OutcomeCertificate` values or their wire dicts (as returned
        by pool workers).
        """
        if not result.ok:
            return
        payloads = [
            cert.to_json_dict() if isinstance(cert, OutcomeCertificate) else dict(cert)
            for cert in certificates
        ]
        line = outcome_record_line(result, payloads)
        count_store_op("outcome_put")
        with self._lock:
            self._log.append([line])
            self._entries.pop(result.fingerprint, None)
            self._entries[result.fingerprint] = {
                "result": result,
                "certificates": payloads,
            }
            self._evict_over_cap()
            # Compact once dead lines outnumber live entries 2:1.
            live = len(self._entries)
            if self._log.file_lines > max(2 * live, live + 64):
                self._rewrite()

    def _rewrite(self) -> None:
        """Replace the log with the live entries in recency order.  Callers hold the lock."""
        self._log.rewrite(
            outcome_record_line(entry["result"], entry["certificates"])
            for entry in self._entries.values()
        )

    def _evict_over_cap(self) -> None:
        """Drop LRU entries beyond ``max_entries``.  Callers hold the lock."""
        if self.max_entries is None:
            return
        evicted = max(0, len(self._entries) - self.max_entries)
        for fingerprint in list(islice(self._entries, evicted)):
            del self._entries[fingerprint]
        if evicted:
            self._evictions += evicted
            obs_metrics.counter(
                "repro_outcome_store_evictions_total",
                "Outcome-store entries evicted by the LRU cap.",
            ).inc(evicted)
