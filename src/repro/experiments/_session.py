"""Shared session plumbing for the experiment harnesses.

The :class:`~repro.api.AnalysisSession` facade owns the engine wiring
(workers, stores, shared bound cache, resume); every driver takes a
``session=`` and falls back to an ephemeral inline session.
"""

from __future__ import annotations

import contextlib
import logging
from collections.abc import Callable, Sequence

from ..api import AnalysisOutcome, AnalysisSession

__all__ = ["configure_logging", "resolve_session", "stream_batch"]

LOGGER = logging.getLogger("repro.experiments")


def configure_logging(level: str = "INFO") -> None:
    """Attach a stderr handler to the ``repro`` logger hierarchy.

    Idempotent: repeated calls only adjust the level, so experiment drivers
    composed under ``gleipnir-experiments all`` don't stack handlers and
    double every line.
    """
    root = logging.getLogger("repro")
    root.setLevel(getattr(logging, str(level).upper(), logging.INFO))
    if not any(getattr(h, "_repro_cli", False) for h in root.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        handler._repro_cli = True  # type: ignore[attr-defined]
        root.addHandler(handler)


def stream_batch(
    active: AnalysisSession,
    jobs: Sequence,
    progress: bool | Callable[[str], None] | None = None,
) -> list[AnalysisOutcome]:
    """Run ``jobs`` through ``active``, streaming per-job progress lines.

    With ``progress`` truthy, the batch runs through
    :meth:`~repro.api.AnalysisSession.as_completed` and every finished job
    emits one ``repro.experiments`` log record (INFO level, with the job
    fingerprint attached as ``record.fingerprint``) as its result lands,
    instead of silence until batch end; without it this is a plain
    ``analyze_batch`` call.  Passing a callable still works (it receives the
    formatted line, the pre-logging contract) but new code should rely on
    the logger.  Either way the returned outcomes are aligned with ``jobs``.
    """
    if not progress:
        return active.analyze_batch(jobs)
    jobs = list(jobs)
    outcomes: list[AnalysisOutcome | None] = [None] * len(jobs)
    done = 0
    for index, outcome in active.as_completed(jobs):
        outcomes[index] = outcome
        done += 1
        if outcome.ok:
            detail = f"bound={outcome.bound:.6e} ({outcome.elapsed_seconds:.2f}s)"
        else:
            detail = f"{outcome.status}: {outcome.error or 'no detail'}"
        line = f"[{done}/{len(jobs)}] {outcome.name}: {detail}"
        if callable(progress):
            progress(line)
        else:
            LOGGER.info("%s", line, extra={"fingerprint": outcome.fingerprint})
    return outcomes  # type: ignore[return-value]


@contextlib.contextmanager
def resolve_session(session: AnalysisSession | None):
    """Yield the session an experiment should run through.

    A caller-provided ``session`` is used as-is (and not closed); otherwise
    an ephemeral inline session is built and closed when the experiment
    finishes.
    """
    if session is not None:
        yield session
        return
    owned = AnalysisSession()
    try:
        yield owned
    finally:
        owned.close()
