"""Pluggable storage backends for the engine's persistence facades.

:class:`~repro.engine.store.ResultStore` and
:class:`~repro.engine.outcomes.OutcomeStore` keep their public surfaces; this
package supplies the storage engines behind them, selected by URL-style
paths on the existing ``--store`` / ``--outcomes`` flags (bare paths remain
JSONL — see :func:`parse_storage_url` for the full table):

* :mod:`~repro.engine.backends.jsonl` — the historical append-only line logs
  (healing, atomic compaction);
* :mod:`~repro.engine.backends.sqlite` — WAL-journaled SQLite, point queries
  instead of load-everything-at-init, concurrent readers;
* :mod:`~repro.engine.backends.memory` — process-local dicts for tests and
  warm-only caches (``memory://name`` shares by name).
"""

from ...errors import EngineError
from .base import (
    SUPPORTED_SCHEMES,
    OutcomeBackend,
    ResultBackend,
    count_backend_op,
    parse_storage_url,
)
from .jsonl import JsonlOutcomeBackend, JsonlResultBackend
from .memory import (
    MemoryOutcomeBackend,
    MemoryResultBackend,
    reset_shared_memory,
)
from .sqlite import SqliteOutcomeBackend, SqliteResultBackend

__all__ = [
    "OutcomeBackend",
    "ResultBackend",
    "SUPPORTED_SCHEMES",
    "count_backend_op",
    "open_outcome_backend",
    "open_result_backend",
    "parse_storage_url",
    "reset_shared_memory",
    "JsonlOutcomeBackend",
    "JsonlResultBackend",
    "MemoryOutcomeBackend",
    "MemoryResultBackend",
    "SqliteOutcomeBackend",
    "SqliteResultBackend",
]

_RESULT_BACKENDS = {
    "jsonl": JsonlResultBackend,
    "sqlite": SqliteResultBackend,
    "memory": MemoryResultBackend,
}

_OUTCOME_BACKENDS = {
    "jsonl": JsonlOutcomeBackend,
    "sqlite": SqliteOutcomeBackend,
    "memory": MemoryOutcomeBackend,
}


def open_result_backend(url: str) -> ResultBackend:
    """The :class:`ResultBackend` a storage URL (or bare JSONL path) names."""
    scheme, location = parse_storage_url(url)
    try:
        return _RESULT_BACKENDS[scheme](location)
    except EngineError:
        raise
    except Exception as exc:
        raise EngineError(f"cannot open result backend {url!r}: {exc}") from exc


def open_outcome_backend(url: str) -> OutcomeBackend:
    """The :class:`OutcomeBackend` a storage URL (or bare JSONL path) names."""
    scheme, location = parse_storage_url(url)
    try:
        return _OUTCOME_BACKENDS[scheme](location)
    except EngineError:
        raise
    except Exception as exc:
        raise EngineError(f"cannot open outcome backend {url!r}: {exc}") from exc
