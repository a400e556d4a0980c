"""The serving front-end: submit analysis jobs over HTTP, await results.

Installed as ``gleipnir-serve`` (see pyproject.toml)::

    gleipnir-serve --port 8780 --workers 4 --outcomes outcomes.jsonl

The **versioned** API (JSON over stdlib HTTP, no extra dependencies) lives
under ``/v1/`` and is what :class:`repro.api.Client` speaks:

* ``POST /v1/batches`` — body ``{"jobs": [<job payload>, ...]}`` (see
  :meth:`repro.engine.spec.AnalysisJob.to_json_dict`).  Returns 202 with
  ``{"jobs": [{"fingerprint", "name", "status", "result"}, ...], "batch":
  {"submitted": n}}``.  The jobs of one POST are queued as one unit and
  run as one engine batch (so a multi-job POST keeps the pool fan-out); the
  service thread takes everything queued as soon as it is free, with no
  coalescing window, and publishes each job's entry the moment its result
  lands.  Batches larger than ``max_submit`` jobs are rejected with 413.
* ``GET /v1/jobs/<fingerprint>`` — the job's status entry, where ``status``
  is ``queued | running | done | failed`` and ``result`` is the flat
  :class:`~repro.engine.spec.JobResult` dict once finished.  404 for unknown
  fingerprints.
* ``GET /v1/jobs/<fingerprint>?wait=<seconds>`` — **result push via long
  poll**: the request blocks (server-side, on a condition variable — no
  polling anywhere) until the job finishes or the wait window closes, then
  returns the latest entry.  A completed job therefore needs exactly one
  request after submission.
* ``GET /v1/capabilities`` — service discovery: API versions, job schema
  version, server limits (batch sizes, wait window), worker count.
* ``GET /v1/healthz`` — liveness: version, uptime, queue depth, workers,
  outcome store size.
* ``GET /v1/metrics`` — Prometheus text exposition of the process-wide
  :mod:`repro.obs.metrics` registry: per-endpoint latency histograms,
  in-flight/parked-coroutine gauges, engine/outcome/cache/store
  counters, and per-solve-class SDP solve histograms (see
  ``docs/observability.md``).

The HTTP front end is a single-threaded **asyncio** server
(:class:`~repro.engine.aserve.AsyncAnalysisServer`): a parked long poll is a
coroutine awaiting a future, bridged to the engine's ``threading.Condition``
world through result listeners and ``call_soon_threadsafe``, so one process
holds thousands of concurrent waiters without one thread each.

Errors on ``/v1`` are **structured envelopes** mapped from the
:class:`~repro.errors.ReproError` hierarchy::

    {"error": {"type": "EngineError", "message": "...", "status": 400,
               "repro_error": true}}

so :class:`repro.api.Client` re-raises the exact exception class.

Any path outside ``/v1`` answers the same 404 envelope as an unknown
``/v1`` path.

Duplicate submissions (same fingerprint) — including re-submissions of jobs
whose outcome the attached outcome store holds — are answered without
re-execution; the fingerprint in the response is the handle for waiting.
A byte-identical repeat of an accepted body is answered without decoding it
(:mod:`repro.engine.aserve`).
"""

from __future__ import annotations

import argparse
import queue
import sys
import threading
import time

from ..errors import BatchLimitExceeded, StorageBackendError
from ..obs import metrics as obs_metrics
from ..version import __version__
from .outcomes import OutcomeStore
from .pool import AnalysisEngine
from .spec import JOB_SCHEMA_VERSION, AnalysisJob, job_from_json_dict

__all__ = ["AnalysisService", "API_VERSION", "TERMINAL_STATUSES", "make_server", "main"]

#: The one wire-format version this service speaks (bump on breaking changes).
API_VERSION = "v1"

#: Upper bound on one long-poll wait window; clients re-issue for longer waits.
MAX_WAIT_SECONDS = 60.0

#: The job statuses that mean "no further transition will happen" — the one
#: definition every surface (service, facade, client) shares.
TERMINAL_STATUSES = ("done", "failed")

_FINISHED = TERMINAL_STATUSES


class AnalysisService:
    """Runs submitted jobs through the engine; tracks status by fingerprint."""

    #: Shared with serving surfaces so they need not import module constants.
    max_wait_seconds = MAX_WAIT_SECONDS
    terminal_statuses = TERMINAL_STATUSES

    def __init__(
        self,
        engine: AnalysisEngine,
        *,
        max_tracked: int = 4096,
        max_submit: int = 1024,
    ):
        self.engine = engine
        #: In-memory status entries kept before finished ones are evicted
        #: (oldest first); evicted successes are still answerable from the
        #: attached outcome store, so a long-running server stays bounded.
        self.max_tracked = int(max_tracked)
        #: Largest number of jobs one submission may carry (413 beyond).
        self.max_submit = int(max_submit)
        #: One item per submission: the (fingerprint, job) pairs it enqueued.
        self._queue: queue.Queue[list[tuple[str, AnalysisJob]]] = queue.Queue()
        self._status: dict[str, dict] = {}
        # One condition guards the status map and is notified whenever a job
        # reaches a terminal state, so waiters (long-poll handlers) block
        # instead of busy-polling.
        self._cond = threading.Condition()
        self._lock = self._cond
        #: Callbacks fired (with the finished fingerprints, or [] on stop)
        #: whenever jobs reach a terminal state — the bridge that lets an
        #: asyncio serving surface park coroutines on threaded results.
        self._result_listeners: list = []
        self._running = False
        self._stopped = False
        self._thread: threading.Thread | None = None
        self.batches_run = 0
        self._started_monotonic = time.monotonic()

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` ran — waiters return immediately from then on."""
        return self._stopped

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stopped = False
        self._thread = threading.Thread(target=self._loop, name="engine-service", daemon=True)
        self._thread.start()

    def stop(self, *, timeout: float = 10.0) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        # Release any long-poll waiters instead of leaving them to time out:
        # the flag makes wait_for return its current view on wakeup (no
        # service thread is left to finish the work it was waiting on).
        with self._cond:
            self._stopped = True
            self._notify_finished([])

    # -- result listeners ----------------------------------------------------
    def add_result_listener(self, listener) -> None:
        """Register ``listener(fingerprints)`` for terminal transitions.

        Called with the fingerprints that just finished — or ``[]`` when the
        service stops and every waiter should be released.  Listeners fire
        under the service lock and from engine threads, so they must be quick
        and non-blocking; ``loop.call_soon_threadsafe`` qualifies.
        """
        with self._lock:
            if listener not in self._result_listeners:
                self._result_listeners.append(listener)

    def remove_result_listener(self, listener) -> None:
        with self._lock:
            if listener in self._result_listeners:
                self._result_listeners.remove(listener)

    def _notify_finished(self, fingerprints: list[str]) -> None:
        """Wake condition waiters and fire listeners.  Callers hold the lock."""
        self._cond.notify_all()
        for listener in list(self._result_listeners):
            try:
                listener(list(fingerprints))
            except Exception:  # a broken listener must not kill the service thread
                pass

    # -- submission --------------------------------------------------------
    def submit_payload(self, payload: dict) -> dict:
        """Validate one job payload and enqueue it; returns its status entry.

        Raises :class:`~repro.errors.EngineError` (or another
        :class:`~repro.errors.ReproError`) on malformed payloads — the HTTP
        layer maps those to a 400 response.
        """
        return self.submit_job(job_from_json_dict(payload))

    def decode_payloads(self, payloads: list[dict]) -> list[AnalysisJob]:
        """Decode *every* payload of a batch before any is enqueued.

        A 400 response for a batch must mean nothing from that batch runs;
        decoding lazily would execute the leading valid jobs and then reject
        the request.  Raises :class:`~repro.errors.BatchLimitExceeded` past
        ``max_submit`` payloads and another
        :class:`~repro.errors.ReproError` for a malformed one.
        """
        if len(payloads) > self.max_submit:
            raise BatchLimitExceeded(
                f"batch of {len(payloads)} jobs exceeds the per-submission "
                f"limit of {self.max_submit}"
            )
        return [job_from_json_dict(payload) for payload in payloads]

    def submit_job(self, job: AnalysisJob) -> dict:
        """Enqueue an already-validated job; returns its status entry."""
        return self.submit_jobs([job])[0]

    def submit_jobs(self, jobs: list[AnalysisJob]) -> list[dict]:
        """Enqueue already-validated jobs as one engine batch; their status entries.

        Jobs :meth:`answer` handles need no enqueueing; the rest are queued
        together, so one submission is one engine batch.
        """
        entries = []
        unit = []
        with self._lock:
            for job in jobs:
                fingerprint = job.fingerprint()
                entry = self.answer(fingerprint, job.name)
                if entry is None:
                    entry = dict(
                        self._track(self._entry(fingerprint, job.name, "queued", None))
                    )
                    unit.append((fingerprint, job))
                entries.append(entry)
        if unit:
            self._queue.put(unit)
        return entries

    def answer(self, fingerprint: str, name: str) -> dict | None:
        """The status entry of a submission that needs no enqueueing, else None.

        The non-enqueuing half of :meth:`submit_job`: a tracked queued,
        running or done entry, or an outcome-store warm hit.  None means the
        job must run (it is new, ``failed``, or evicted and absent from the
        outcome store).
        """
        with self._lock:
            entry = self._status.get(fingerprint)
            if entry is not None and entry["status"] in ("queued", "running", "done"):
                return dict(entry)
            # Warm hit: the whole-outcome store answers without touching the
            # queue, the service thread, or the pool — the submission is
            # "done" the moment it arrives.
            outcomes = self.engine.outcomes
            if outcomes is not None:
                cached = outcomes.get(fingerprint)
                if cached is not None:
                    entry = self._track(self._entry(fingerprint, name, "done", cached))
                    # A long poll may already be parked on this fingerprint;
                    # warm hits must wake it like any other terminal
                    # transition.
                    self._notify_finished([fingerprint])
                    return dict(entry)
        return None

    def _track(self, entry: dict) -> dict:
        """Insert a status entry, evicting the oldest finished ones over the cap.

        Callers hold ``self._lock``.  Only ``done``/``failed`` entries are
        evicted (successes remain answerable from the outcome store); in-flight
        entries are never dropped.
        """
        self._status[entry["fingerprint"]] = entry
        if len(self._status) > self.max_tracked:
            for fingerprint, tracked in list(self._status.items()):
                if len(self._status) <= self.max_tracked:
                    break
                if tracked["status"] in _FINISHED:
                    del self._status[fingerprint]
        return entry

    @staticmethod
    def _entry(fingerprint: str, name: str, status: str, result) -> dict:
        return {
            "fingerprint": fingerprint,
            "name": name,
            "status": status,
            "result": result.to_json_dict() if result is not None else None,
        }

    # -- queries -----------------------------------------------------------
    def status(self, fingerprint: str) -> dict | None:
        with self._lock:
            entry = self._status.get(fingerprint)
            if entry is not None:
                return dict(entry)
        # Evicted (or never-submitted-here) fingerprints: the outcome store
        # still answers for anything that succeeded.
        outcomes = self.engine.outcomes
        if outcomes is not None:
            result = outcomes.get(fingerprint)
            if result is not None:
                return self._entry(fingerprint, result.name, "done", result)
        return None

    def capabilities(self) -> dict:
        """Service discovery payload for ``GET /v1/capabilities``."""
        return {
            "api": {"version": API_VERSION, "versions": [API_VERSION]},
            "job_schema_version": JOB_SCHEMA_VERSION,
            "server": {"name": "gleipnir-serve", "version": __version__},
            "engine": self.engine.stats(),
            "limits": {
                "max_batch_jobs": self.max_submit,
                "max_wait_seconds": MAX_WAIT_SECONDS,
            },
            "endpoints": {
                "submit": f"POST /{API_VERSION}/batches",
                "job": f"GET /{API_VERSION}/jobs/<fingerprint>",
                "wait": f"GET /{API_VERSION}/jobs/<fingerprint>?wait=<seconds>",
                "capabilities": f"GET /{API_VERSION}/capabilities",
                "healthz": f"GET /{API_VERSION}/healthz",
                "metrics": f"GET /{API_VERSION}/metrics",
            },
        }

    def stats(self) -> dict:
        with self._lock:
            counts: dict[str, int] = {}
            for entry in self._status.values():
                counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return {
            "status": "ok",
            "jobs": counts,
            "batches_run": self.batches_run,
            "workers": self.engine.workers,
            "queue_depth": counts.get("queued", 0),
            "engine": self.engine.stats(),
        }

    def healthz(self) -> dict:
        """The ``GET /v1/healthz`` payload: liveness + capacity at a glance."""
        stats = self.stats()
        engine = self.engine
        return {
            "status": "ok",
            "version": __version__,
            "api_version": API_VERSION,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "queue_depth": stats["queue_depth"],
            "workers": engine.workers,
            "batches_run": stats["batches_run"],
            "jobs": stats["jobs"],
            "outcome_store_entries": (
                len(engine.outcomes) if engine.outcomes is not None else None
            ),
        }

    def render_metrics(self) -> str:
        """The ``GET /v1/metrics`` body: Prometheus text exposition.

        Point-in-time service gauges (queue depth, tracked jobs per status)
        are refreshed into the registry at scrape time; counters and
        latency histograms accumulate as requests and batches flow.
        """
        registry = obs_metrics.get_registry()
        stats = self.stats()
        registry.gauge(
            "repro_service_queue_depth", "Jobs waiting for an engine batch."
        ).set(stats["queue_depth"])
        registry.gauge(
            "repro_service_uptime_seconds", "Seconds since service start."
        ).set(time.monotonic() - self._started_monotonic)
        registry.counter(
            "repro_service_batches_run_total", "Engine batches completed."
        ).value = float(stats["batches_run"])
        for status, count in stats["jobs"].items():
            registry.gauge(
                "repro_service_jobs",
                "Tracked job status entries, by status.",
                {"status": status},
            ).set(count)
        return registry.render_prometheus()

    # -- waiting -----------------------------------------------------------
    def wait_for(self, fingerprint: str, *, timeout: float) -> dict | None:
        """Block until ``fingerprint`` finishes or ``timeout`` elapses.

        Returns the latest status entry (possibly still ``queued``/``running``
        at timeout), or None when the fingerprint is unknown to both the
        in-memory map and the outcome store.  Waiting uses the service's
        condition variable — notified as each result lands — so
        there is no sleep loop on either side of the HTTP connection.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        entry = self.status(fingerprint)
        while True:
            if entry is not None and entry["status"] in _FINISHED:
                return entry
            remaining = deadline - time.monotonic()
            if remaining <= 0 or entry is None:
                return entry
            with self._cond:
                # Re-check under the lock: a result recorded between the
                # status() read above and acquiring the lock would otherwise
                # be a lost wakeup.
                current = self._status.get(fingerprint)
                if current is not None and current["status"] in _FINISHED:
                    return dict(current)
                if self._stopped:
                    return dict(current) if current is not None else entry
                self._cond.wait(remaining)
            entry = self.status(fingerprint)

    def wait(self, fingerprint: str, *, timeout: float = 60.0) -> dict:
        """Block until a submitted fingerprint finishes (tests and CLIs)."""
        entry = self.wait_for(fingerprint, timeout=timeout)
        if entry is None or entry["status"] not in _FINISHED:
            raise TimeoutError(f"job {fingerprint} did not finish within {timeout:g}s")
        return entry

    # -- service thread ----------------------------------------------------
    def _drain(self) -> list[tuple[str, AnalysisJob]]:
        """Everything queued: the first submission blocks briefly, the rest are taken."""
        try:
            batch = list(self._queue.get(timeout=0.1))
        except queue.Empty:
            return []
        while True:
            try:
                batch.extend(self._queue.get_nowait())
            except queue.Empty:
                return batch

    def _loop(self) -> None:
        while self._running:
            batch = self._drain()
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[tuple[str, AnalysisJob]]) -> None:
        """One engine batch, each entry published as its result lands."""
        names = {fingerprint: job.name for fingerprint, job in batch}
        with self._lock:
            for fingerprint in names:
                self._status[fingerprint]["status"] = "running"
        try:
            for fingerprint, result in self.engine.stream([job for _, job in batch]):
                status = "done" if result.ok else "failed"
                with self._lock:
                    name = names.pop(fingerprint)
                    self._track(self._entry(fingerprint, name, status, result))
                    self._notify_finished([fingerprint])
        except Exception as exc:  # the engine must never kill the service thread
            with self._lock:
                for fingerprint, name in names.items():
                    entry = self._track(self._entry(fingerprint, name, "failed", None))
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                self._notify_finished(list(names))
            return
        self.batches_run += 1


def make_server(service: AnalysisService, host: str = "127.0.0.1", port: int = 0):
    """An :class:`~repro.engine.aserve.AsyncAnalysisServer` bound to ``host:port``.

    Port 0 binds an ephemeral port; ``server_address`` is final on return.
    The returned object keeps the ``socketserver`` lifecycle surface
    (``serve_forever`` / ``shutdown`` / ``server_close``), so callers and
    fixtures written against the old threaded server drive it unchanged —
    but every parked long poll is now a coroutine, not a thread.
    """
    from .aserve import AsyncAnalysisServer

    return AsyncAnalysisServer(service, host, port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gleipnir-serve",
        description="Serve Gleipnir analysis jobs over HTTP (submit, batch, await).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8780)
    parser.add_argument("--workers", type=int, default=1, help="process-pool size")
    parser.add_argument(
        "--outcomes",
        default=None,
        help="outcome store JSONL path; stored fingerprints answer without the pool",
    )
    parser.add_argument(
        "--outcomes-max-entries",
        type=int,
        default=None,
        help="LRU cap of the whole-outcome store (default: unbounded)",
    )
    parser.add_argument(
        "--max-submit", type=int, default=1024, help="max jobs in one POST /v1/batches"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        engine = AnalysisEngine(
            workers=args.workers,
            outcomes=(
                OutcomeStore(args.outcomes, max_entries=args.outcomes_max_entries)
                if args.outcomes
                else None
            ),
        )
    except StorageBackendError as exc:
        # A URL-style --outcomes argument (redis://...) is an
        # operator error, not a crash: one line naming the problem, exit 2.
        print(f"gleipnir-serve: {exc}", file=sys.stderr)
        return 2
    service = AnalysisService(engine, max_submit=args.max_submit)
    service.start()
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"gleipnir-serve listening on http://{host}:{port} "
        f"(api {API_VERSION}, workers={args.workers})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
