"""The session facade: one object that fronts every way of running analyses.

:class:`AnalysisSession` owns the wiring that the experiment drivers,
benchmarks, and examples used to re-plumb individually — engine worker
counts, the outcome store, and a remote transport to a running
``gleipnir-serve``.  All surfaces return the same typed, frozen
:class:`AnalysisOutcome`.

Local sessions execute through the :class:`~repro.engine.pool.AnalysisEngine`
(content-addressed dedupe, process-pool sharding, an optional outcome
store); remote sessions speak the ``/v1`` wire format through
:class:`repro.api.Client` (batch submit + long-poll result push).  The two
transports are bit-identical for the same jobs: the engine executes both.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import time
from collections.abc import Iterator, Sequence

from ..circuits.circuit import Circuit
from ..circuits.program import Program
from ..config import AnalysisConfig
from ..core.derivation import Derivation
from ..engine.pool import AnalysisEngine, _run_job
from ..engine.service import TERMINAL_STATUSES
from ..engine.spec import AnalysisJob, JobResult
from ..errors import EngineError
from ..noise.model import NoiseModel
from .client import Client

__all__ = [
    "AnalysisOutcome",
    "AnalysisSession",
    "add_session_arguments",
    "session_from_args",
    "trace_to_file",
]


@dataclasses.dataclass(frozen=True)
class AnalysisOutcome:
    """The typed result every ``repro.api`` surface returns.

    A frozen value object mirroring the engine's wire-level
    :class:`~repro.engine.spec.JobResult` — plus, for local single analyses
    that asked for it, the in-memory derivation tree.

    Attributes:
        name: the job's label.
        fingerprint: content address of the job (the handle on every surface).
        status: ``"ok"`` (bound certified), ``"timeout"`` (resource budget
            fired), or ``"error"``.
        bound: the certified error bound (None unless ``status == "ok"``).
        final_delta: accumulated MPS truncation bound.
        num_gates / num_branches: size of the analysed derivation.
        elapsed_seconds: *server-side* wall-clock execution time of the
            analysis itself — on remote sessions this is the time the engine
            spent, not the time the client waited (queueing, batching, and
            long-poll park time are excluded).
        round_trip_seconds: client-observed wall clock from submission to
            result receipt (remote sessions only; None locally).
        timings: structured per-phase breakdown from the analyzer
            (``total_seconds``, ``prefill_walk_seconds``,
            ``prefill_solve_seconds``, ``replay_seconds``); empty on legacy
            records.
        sdp_solves / sdp_cache_hits / scheduled_solves:
            SDP workload statistics.
        mps_walks: MPS evolutions through the program (1 on the single-pass
            pipeline).
        mps_width: bond dimension used.
        noise_model: name of the noise model.
        error: failure message when ``status != "ok"``.
        derivation: the derivation tree (only from
            ``AnalysisSession.analyze(..., derivation=True)`` on a local
            session; never crosses the wire).
    """

    name: str
    fingerprint: str
    status: str
    bound: float | None
    final_delta: float | None
    num_gates: int
    num_branches: int
    elapsed_seconds: float
    sdp_solves: int
    sdp_cache_hits: int
    scheduled_solves: int
    mps_walks: int
    mps_width: int
    noise_model: str
    error: str | None = None
    timings: dict = dataclasses.field(default_factory=dict)
    round_trip_seconds: float | None = None
    derivation: Derivation | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def tape_steps_reused(self) -> int:
        """Always 0: kept because ``perfbench/workloads.py`` reads it."""
        return 0

    @property
    def certified(self) -> bool:
        """Whether the analysis completed and ``bound`` carries a certified value."""
        return self.status == "ok"

    @property
    def ok(self) -> bool:
        return self.certified

    def raise_for_status(self) -> "AnalysisOutcome":
        """Return self, or raise :class:`EngineError` for failed analyses."""
        if not self.certified:
            raise EngineError(
                f"analysis {self.name!r} {self.status}: {self.error or 'no detail'}"
            )
        return self

    def gate_contributions(self):
        """Per-gate judgments (requires ``derivation=True`` at analyze time)."""
        if self.derivation is None:
            raise EngineError(
                "this outcome carries no derivation tree; request one with "
                "AnalysisSession.analyze(..., derivation=True) on a local session"
            )
        return self.derivation.gate_contributions()

    @classmethod
    def from_job_result(
        cls,
        result: JobResult,
        *,
        derivation: Derivation | None = None,
        round_trip_seconds: float | None = None,
    ) -> "AnalysisOutcome":
        return cls(
            name=result.name,
            fingerprint=result.fingerprint,
            status=result.status,
            bound=result.error_bound,
            final_delta=result.final_delta,
            num_gates=result.num_gates,
            num_branches=result.num_branches,
            elapsed_seconds=result.elapsed_seconds,
            sdp_solves=result.sdp_solves,
            sdp_cache_hits=result.sdp_cache_hits,
            scheduled_solves=result.scheduled_solves,
            mps_walks=result.mps_walks,
            mps_width=result.mps_width,
            noise_model=result.noise_model,
            error=result.error,
            timings=dict(result.timings or {}),
            round_trip_seconds=round_trip_seconds,
            derivation=derivation,
        )

    @classmethod
    def from_wire_entry(
        cls, entry: dict, *, round_trip_seconds: float | None = None
    ) -> "AnalysisOutcome":
        """An outcome from a service status entry (``/v1`` or in-process).

        ``entry["result"]["elapsed_seconds"]`` is the server-side execution
        time; ``round_trip_seconds`` is the client-measured submission-to-
        receipt clock remote transports pass in (they are only equal when
        nothing queued).
        """
        payload = entry.get("result")
        if payload is not None:
            return cls.from_job_result(
                JobResult.from_json_dict(payload),
                round_trip_seconds=round_trip_seconds,
            )
        # Batcher-level failures carry no JobResult; synthesize one.
        return cls.from_job_result(
            JobResult(
                fingerprint=entry["fingerprint"],
                name=entry.get("name", "job"),
                status="error",
                error=entry.get("error", f"job finished as {entry.get('status')!r}"),
            ),
            round_trip_seconds=round_trip_seconds,
        )

    def to_json_dict(self) -> dict:
        """The wire-shape record (derivation excluded — it never serializes)."""
        # Field-by-field, not dataclasses.asdict: asdict would deep-copy the
        # whole derivation tree just to be discarded.
        payload = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "derivation"
        }
        payload["error_bound"] = payload.pop("bound")
        return payload


class AnalysisSession:
    """The front door: analyses in, :class:`AnalysisOutcome` values out.

    A session is a context manager owning either a **local** engine (process
    pool, optional outcome store) or a **remote** transport to a
    ``gleipnir-serve`` instance:

    >>> with AnalysisSession(workers=4, outcomes="outcomes.jsonl") as session:
    ...     outcomes = session.analyze_batch(jobs)

    >>> with AnalysisSession(remote="http://127.0.0.1:8780") as session:
    ...     outcome = session.analyze(circuit, noise)

    Args:
        workers: local engine process-pool size (1 = inline execution).
        config: default :class:`AnalysisConfig` for jobs built by this
            session (per-call ``config=`` overrides it).
        outcomes: outcome store path or
            :class:`~repro.engine.outcomes.OutcomeStore`; fingerprints it
            holds answer from one lookup (no MPS walk, no SDP work) and
            executed successes are written back with their dual
            certificates, so a re-run sweep executes only its missing jobs.
        remote: base URL of a running service; mutually exclusive with the
            local engine knobs.
        client: a pre-built :class:`Client` (overrides ``remote``).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        config: AnalysisConfig | None = None,
        outcomes=None,
        remote: str | None = None,
        client: Client | None = None,
    ):
        self.config = config or AnalysisConfig()
        self._closed = False
        if remote is not None or client is not None:
            if workers != 1 or outcomes is not None:
                raise EngineError(
                    "remote sessions delegate workers/outcomes to the server; "
                    "configure those on gleipnir-serve instead"
                )
            self._client: Client | None = client or Client(remote)
            self._engine: AnalysisEngine | None = None
        else:
            self._client = None
            self._engine = AnalysisEngine(workers=workers, outcomes=outcomes)

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_remote(self) -> bool:
        return self._client is not None

    @property
    def engine(self) -> AnalysisEngine:
        if self._engine is None:
            raise EngineError("remote sessions have no local engine")
        return self._engine

    @property
    def client(self) -> Client:
        if self._client is None:
            raise EngineError("local sessions have no HTTP client")
        return self._client

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("this AnalysisSession is closed")

    # -- job construction --------------------------------------------------
    def job(
        self,
        program: Circuit | Program,
        noise_model: NoiseModel,
        *,
        config: AnalysisConfig | None = None,
        initial_bits: Sequence[int] | None = None,
        name: str | None = None,
    ) -> AnalysisJob:
        """A content-addressed job using the session's default configuration."""
        return AnalysisJob.from_circuit(
            program,
            noise_model,
            config=config or self.config,
            initial_bits=initial_bits,
            name=name,
        )

    # -- analysis ----------------------------------------------------------
    def analyze(
        self,
        program: Circuit | Program,
        noise_model: NoiseModel,
        *,
        config: AnalysisConfig | None = None,
        initial_bits: Sequence[int] | None = None,
        name: str | None = None,
        derivation: bool = False,
    ) -> AnalysisOutcome:
        """Analyse one program and return its outcome.

        With ``derivation=True`` (local sessions only) the analysis runs
        in-process with derivation collection enabled and the outcome carries
        the full tree; the certified bound is identical to the engine path —
        collecting the derivation only records judgments, it never changes
        them.
        """
        self._check_open()
        job = self.job(
            program, noise_model, config=config, initial_bits=initial_bits, name=name
        )
        if derivation:
            if self.is_remote:
                raise EngineError(
                    "derivation collection is local-only: derivation trees do "
                    "not serialize across the wire"
                )
            return self._analyze_with_derivation(job)
        return self.analyze_batch([job])[0]

    def _analyze_with_derivation(self, job: AnalysisJob) -> AnalysisOutcome:
        """The in-process path of ``analyze(derivation=True)``.

        Runs through the engine's job runner — same wall-clock budget, same
        failure capture — except that the analysis's derivation tree is
        attached to the outcome (it cannot ride on the flat engine record).
        """
        result, analysis = _run_job(job, job.fingerprint())
        return AnalysisOutcome.from_job_result(
            result, derivation=analysis.derivation if analysis is not None else None
        )

    def analyze_batch(self, jobs: Sequence[AnalysisJob]) -> list[AnalysisOutcome]:
        """Execute a batch; outcomes are aligned with ``jobs``.

        Duplicate jobs (same fingerprint) share one execution on both
        transports; fingerprints the outcome store holds are answered without
        re-running.
        """
        self._check_open()
        jobs = list(jobs)
        if not jobs:
            return []
        if self.is_remote:
            return self._remote_batch(jobs)
        report = self.engine.run(jobs)
        return [AnalysisOutcome.from_job_result(result) for result in report.results]

    def _wait_remote_entry(self, fingerprint: str, deadline: float | None) -> dict:
        """Chain long-poll windows until ``fingerprint`` finishes.

        ``deadline`` is an absolute ``time.monotonic()`` deadline (None =
        wait as long as the job takes, like the local engine).  The session's
        ``closed`` state is re-checked between windows so closing the session
        releases remote waiters within one long-poll window.
        """
        while True:
            if self._closed:
                raise EngineError(
                    f"session closed while waiting for remote job {fingerprint}"
                )
            window = self.client.max_wait
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"job {fingerprint} still pending at timeout")
                window = min(window, remaining)
            entry = self.client.status(fingerprint, wait=window)
            if entry["status"] in TERMINAL_STATUSES:
                return entry

    def _remote_batch(self, jobs: list[AnalysisJob]) -> list[AnalysisOutcome]:
        submitted = time.monotonic()
        entries = self.client.submit(jobs)
        outcomes: dict[str, AnalysisOutcome] = {}
        for entry in entries:
            fingerprint = entry["fingerprint"]
            if fingerprint in outcomes:
                continue
            if entry["status"] not in TERMINAL_STATUSES:
                entry = self._wait_remote_entry(fingerprint, None)
            outcomes[fingerprint] = AnalysisOutcome.from_wire_entry(
                entry, round_trip_seconds=time.monotonic() - submitted
            )
        return [outcomes[entry_out["fingerprint"]] for entry_out in entries]

    def as_completed(
        self, jobs: Sequence[AnalysisJob], *, timeout: float | None = None
    ) -> Iterator[tuple[int, AnalysisOutcome]]:
        """Stream ``(index, outcome)`` pairs in completion order.

        ``index`` refers to the position in ``jobs``; duplicate submissions
        each get their own pair (sharing one execution).  Local sessions
        iterate :meth:`AnalysisEngine.stream` in the calling thread, so each
        pair is yielded as its job finishes; remote sessions hold one
        long-poll per unique fingerprint.

        Locally, ``timeout`` is checked as each result lands: once it has
        passed with jobs pending, :class:`TimeoutError` is raised and the
        jobs not yet started are cancelled.  A running job is stopped only by
        its own ``guard.max_seconds``, which the analysis checks at every walk
        gate and interior-point iteration, in this thread as in any other.
        """
        self._check_open()
        jobs = list(jobs)
        if not jobs:
            return
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        if self.is_remote:
            yield from self._remote_as_completed(jobs, deadline)
        else:
            yield from self._local_as_completed(jobs, deadline)

    def _local_as_completed(self, jobs, deadline):
        indices_by_fp: dict[str, list[int]] = {}
        for index, job in enumerate(jobs):
            indices_by_fp.setdefault(job.fingerprint(), []).append(index)
        pending = len(indices_by_fp)
        for fingerprint, result in self.engine.stream(jobs):
            pending -= 1
            outcome = AnalysisOutcome.from_job_result(result)
            for index in indices_by_fp[fingerprint]:
                yield index, outcome
            if pending and deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"{pending} job(s) still pending at timeout")

    def _remote_as_completed(self, jobs, deadline):
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
        from concurrent.futures import wait as futures_wait

        submitted = time.monotonic()
        entries = self.client.submit(jobs)
        indices_by_fp: dict[str, list[int]] = {}
        for index, entry in enumerate(entries):
            indices_by_fp.setdefault(entry["fingerprint"], []).append(index)
        with ThreadPoolExecutor(
            max_workers=min(8, len(indices_by_fp)), thread_name_prefix="repro-api-wait"
        ) as pool:
            # Each waiter enforces the shared deadline itself (raising
            # TimeoutError at most one long-poll window past it), so the
            # executor's exit never blocks on un-cancellable futures and the
            # caller's timeout is honoured end to end.
            remaining = {
                pool.submit(self._wait_remote_entry, fingerprint, deadline): fingerprint
                for fingerprint in indices_by_fp
            }
            outstanding = set(remaining)
            while outstanding:
                done, outstanding = futures_wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    fingerprint = remaining[future]
                    outcome = AnalysisOutcome.from_wire_entry(
                        future.result(),
                        round_trip_seconds=time.monotonic() - submitted,
                    )
                    for index in indices_by_fp[fingerprint]:
                        yield index, outcome

    # -- introspection -----------------------------------------------------
    def capabilities(self) -> dict:
        """What this session can do (mirrors ``GET /v1/capabilities`` remotely)."""
        self._check_open()
        if self.is_remote:
            payload = self.client.capabilities()
            payload["transport"] = "http"
            return payload
        from ..engine.service import API_VERSION
        from ..engine.spec import JOB_SCHEMA_VERSION

        return {
            "transport": "local",
            "api": {"version": API_VERSION, "versions": [API_VERSION]},
            "job_schema_version": JOB_SCHEMA_VERSION,
            "engine": self.engine.stats(),
        }


# ---------------------------------------------------------------------------
# Shared CLI wiring (the flags every driver used to re-plumb by hand)
# ---------------------------------------------------------------------------

def add_session_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the standard session flags on an ``argparse`` parser."""
    group = parser.add_argument_group("analysis session")
    group.add_argument(
        "--workers", type=int, default=1, help="engine process-pool size (1 = inline)"
    )
    group.add_argument(
        "--outcomes",
        type=str,
        default=None,
        help="outcome store (JSONL); stored jobs answer without re-running",
    )
    group.add_argument(
        "--remote",
        type=str,
        default=None,
        help="submit to a running gleipnir-serve at this URL instead of running locally",
    )
    group.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="OUT.json",
        help="write a Chrome trace-event JSON of the run (load in Perfetto)",
    )
    group.add_argument(
        "--log-level",
        type=str,
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="stdlib logging level for progress/diagnostic output",
    )


def session_from_args(
    args: argparse.Namespace, *, config: AnalysisConfig | None = None
) -> AnalysisSession:
    """Build the session a parsed command line describes.

    Mixing ``--remote`` with the local engine flags is an error, not a silent
    drop: the server owns its own workers and outcome store.
    """
    remote = getattr(args, "remote", None)
    if remote:
        offending = [
            flag
            for flag, is_set in (
                ("--workers", getattr(args, "workers", 1) != 1),
                ("--outcomes", getattr(args, "outcomes", None) is not None),
            )
            if is_set
        ]
        if offending:
            raise EngineError(
                f"{', '.join(offending)} cannot be combined with --remote: "
                "configure workers/outcomes on gleipnir-serve instead"
            )
        return AnalysisSession(remote=remote, config=config)
    return AnalysisSession(
        workers=getattr(args, "workers", 1),
        outcomes=getattr(args, "outcomes", None),
        config=config,
    )


@contextlib.contextmanager
def trace_to_file(path: str | None, *, label: str = "gleipnir"):
    """Collect spans for the enclosed block and write a Chrome trace on exit.

    ``path`` of ``None``/empty is a no-op (so CLIs can pass ``args.trace``
    straight through).  The trace file is written even when the block raises,
    so partial runs can still be inspected in Perfetto.
    """
    if not path:
        yield None
        return
    from ..obs.trace import collecting, write_chrome_trace

    with collecting() as collector:
        try:
            yield collector
        finally:
            write_chrome_trace(path, collector.spans(), label=label)
