"""Phase-span tracing: nested, picklable, Chrome-trace-exportable.

The tracer answers "where did the time go?" for one analysis, one engine
batch, or one whole experiment sweep:

* a **span** is one named, timed phase (``scheduler.walk``, ``sdp.solve``,
  ``engine.execute`` ...) with a category, free-form ``args``, and the
  process/thread that ran it;
* spans **nest**: the current span id travels in a :class:`contextvars.
  ContextVar`, so a span opened inside another records its parent without
  any explicit plumbing (a fresh thread starts a new top-level stack);
* spans are **picklable plain data** (a dataclass of primitives), so pool
  workers trace locally and ship their span lists back to the parent inside
  the worker payload, where they are merged into the active collector —
  one trace covers all processes;
* :func:`chrome_trace` renders any span list as Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto loadable), with worker processes shown
  as separate pid rows.

**Zero cost when off.**  Instrumentation points call :func:`span`, which
checks one module global and returns a shared no-op context manager when no
collector is installed — no allocation, no clock read.  Tracing never
changes what the pipeline computes either way: spans only record clocks, so
traced analyses are bit-identical to untraced ones.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import os
import threading
import time

__all__ = [
    "Span",
    "SpanCollector",
    "chrome_trace",
    "collecting",
    "span",
    "tracing_active",
    "write_chrome_trace",
]


@dataclasses.dataclass
class Span:
    """One finished phase: plain picklable data, clocks in seconds.

    ``start`` is a ``time.perf_counter()`` reading; within one process spans
    share that clock, so nesting and ordering are exact.  Worker-process
    spans are re-based by the engine (see ``shift``) onto the parent's
    clock using the job dispatch time, which keeps cross-process rows
    aligned to within the fork/IPC latency.
    """

    name: str
    category: str
    start: float
    duration: float
    pid: int
    tid: int
    span_id: int
    parent_id: int | None = None
    args: dict | None = None

    def shift(self, offset: float) -> "Span":
        """A copy with the start clock shifted by ``offset`` seconds."""
        return dataclasses.replace(self, start=self.start + offset)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Span":
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


class SpanCollector:
    """Accumulates finished spans; thread-safe, one per active trace."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1

    def next_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans) -> None:
        """Merge foreign spans (worker processes); ids are re-assigned to a
        private range per batch so they can never collide with local ids."""
        spans = [
            item if isinstance(item, Span) else Span.from_json_dict(item)
            for item in spans
        ]
        if not spans:
            return
        with self._lock:
            base = self._next_id
            self._next_id += max(item.span_id for item in spans) + 1
            for item in spans:
                self._spans.append(
                    dataclasses.replace(
                        item,
                        span_id=item.span_id + base,
                        parent_id=(
                            item.parent_id + base
                            if item.parent_id is not None
                            else None
                        ),
                    )
                )

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The active collector (module-global: one trace at a time per process, and
#: spans recorded from helper threads — the scheduler's solve pool — must
#: land in the same trace even though threads do not inherit context).
_COLLECTOR: SpanCollector | None = None

#: The id of the innermost open span in *this* context; contextvar-based so
#: nesting follows the logical call flow, not the collector.
_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_trace_parent", default=None
)


def tracing_active() -> bool:
    """Whether a span collector is currently installed in this process."""
    return _COLLECTOR is not None


class _NullSpan:
    """The shared no-op context manager returned while tracing is off.

    Mirrors the :class:`_OpenSpan` surface (``set``), so instrumented code
    never needs to check whether tracing is on.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """An in-flight span: records the clock on entry, the span on exit."""

    __slots__ = (
        "_name",
        "_category",
        "_args",
        "_collector",
        "_start",
        "_id",
        "_parent",
        "_token",
    )

    def __init__(self, collector: SpanCollector, name: str, category: str, args):
        self._collector = collector
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self):
        self._id = self._collector.next_id()
        self._parent = _PARENT.get()
        self._token = _PARENT.set(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        _PARENT.reset(self._token)
        self._collector.add(
            Span(
                name=self._name,
                category=self._category,
                start=self._start,
                duration=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self._id,
                parent_id=self._parent,
                args=self._args,
            )
        )
        return False

    def set(self, **args) -> None:
        """Attach (or update) args on the open span."""
        if self._args is None:
            self._args = {}
        self._args.update(args)


def span(name: str, category: str = "analysis", **args):
    """Open a traced span, or a shared no-op when tracing is off.

    The fast path is one global load and an ``is None`` test.  ``args``
    must be JSON-safe primitives (they ride the wire to trace files).
    """
    collector = _COLLECTOR
    if collector is None:
        return _NULL_SPAN
    return _OpenSpan(collector, name, category, args or None)


class collecting:
    """Context manager installing a fresh collector; yields it.

    Nested activation is rejected: one trace at a time per process keeps
    "who owns the spans" unambiguous (the engine merges worker spans into
    whatever collector is active when the batch finishes).

    >>> with collecting() as trace:
    ...     run_workload()
    >>> write_chrome_trace("out.json", trace.spans())
    """

    def __init__(self) -> None:
        self._collector = SpanCollector()

    def __enter__(self) -> SpanCollector:
        global _COLLECTOR
        if _COLLECTOR is not None:
            raise RuntimeError("a trace collector is already active in this process")
        _COLLECTOR = self._collector
        return self._collector

    def __exit__(self, *exc_info) -> None:
        global _COLLECTOR
        _COLLECTOR = None


def reset_tracing() -> None:
    """Drop trace state inherited across a ``fork``.

    A pool worker forked while the parent had an active collector inherits
    it as module state; starting the worker's own trace would then fail as
    "already active", and anything recorded into the inherited copy is
    invisible to the parent.  Workers call this once at entry, before
    installing their own collector.
    """
    global _COLLECTOR
    _COLLECTOR = None
    _PARENT.set(None)


def emit_spans(spans) -> None:
    """Merge foreign (worker) spans into the active trace, if any."""
    collector = _COLLECTOR
    if collector is not None and spans:
        collector.extend(spans)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

def chrome_trace(spans, *, label: str = "gleipnir") -> dict:
    """A span list as Chrome trace-event JSON (object format).

    Complete events (``"ph": "X"``) with microsecond timestamps, one pid row
    per traced process (pool workers show up as their own rows), thread ids
    compacted to small ordinals per process so the viewer's lanes stay
    readable.  Loadable by ``chrome://tracing`` and https://ui.perfetto.dev.
    """
    spans = [
        item if isinstance(item, Span) else Span.from_json_dict(item)
        for item in spans
    ]
    origin = min((item.start for item in spans), default=0.0)
    tids: dict[tuple[int, int], int] = {}
    events = []
    for pid in sorted({item.pid for item in spans}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{label} pid {pid}"},
            }
        )
    for item in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault((item.pid, item.tid), len(tids) + 1)
        event = {
            "name": item.name,
            "cat": item.category,
            "ph": "X",
            "ts": round((item.start - origin) * 1e6, 3),
            "dur": round(item.duration * 1e6, 3),
            "pid": item.pid,
            "tid": tid,
        }
        if item.args:
            event["args"] = item.args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans, *, label: str = "gleipnir") -> str:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    payload = chrome_trace(spans, label=label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return str(path)
