"""In-memory spans recorded around the layer entry points of ``repro``.

The traced run replaces selected public functions and methods with thin
wrappers *at the names their callers look up* (a module attribute for a
function imported with ``from x import f``, the class attribute for a
method).  Each wrapped call appends one :class:`Span` (name, start, end,
parent) to a :class:`Recorder`; nothing is written until the run ends.  The
end-to-end run installs no wrapper at all.

Self time is a span's duration minus the durations of its direct children.
Children are recorded on the same thread's stack, so they nest strictly
inside their parent and never overlap each other: the subtraction is exact.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence


@dataclasses.dataclass
class Span:
    """One finished wrapped call; clocks are ``time.perf_counter()`` seconds."""

    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; wrappers push onto a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable, on_result: Callable | None = None):
        """``function`` wrapped to record a span named ``name`` per call.

        A call made while the innermost open span already has ``name`` (a
        recursive method) is passed straight through, so a recursion is one
        span.  ``on_result(result, args, kwargs)`` sees every return value.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)  # reserve the slot: parents precede children
            parent = stack[-1][1] if stack else None
            stack.append((name, index))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans[index] = Span(
                    name, start, end, parent, threading.get_ident(), index
                )
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def finished(self) -> list[Span]:
        """Spans whose call has returned (open slots are skipped)."""
        with self._lock:
            return [span for span in self.spans if span is not None]


@dataclasses.dataclass(frozen=True)
class WrapPoint:
    """Where a layer entry point is looked up: ``module`` and a dotted ``attribute``."""

    span: str
    module: str
    attribute: str
    on_result: Callable | None = None


class Installed:
    """Wrappers installed from a list of :class:`WrapPoint`; ``remove()`` restores."""

    def __init__(self, recorder: Recorder, points: Sequence[WrapPoint]):
        self._saved: list[tuple[object, str, object]] = []
        try:
            for point in points:
                owner = importlib.import_module(point.module)
                *path, leaf = point.attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{point.module}.{point.attribute} is not a plain function")
                setattr(owner, leaf, recorder.wrap(point.span, original, point.on_result))
                self._saved.append((owner, leaf, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the summed durations of its direct children."""
    spans = list(spans)
    own = {span.index: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def self_time_by_name(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (total self seconds, calls)`` over ``spans``."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, tuple[float, int]] = {}
    for span in spans:
        seconds, calls = table.get(span.name, (0.0, 0))
        table[span.name] = (seconds + own[span.index], calls + 1)
    return table


def wrapper_cost_seconds(calls: int = 20000) -> float:
    """Measured extra seconds one wrapped call costs over a bare call."""

    def bare(value):
        return value

    recorder = Recorder()
    wrapped = recorder.wrap("calibration", bare)
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for value in range(calls):
            bare(value)
        plain = time.perf_counter() - start
        recorder.spans.clear()
        start = time.perf_counter()
        for value in range(calls):
            wrapped(value)
        traced = time.perf_counter() - start
        samples.append(max(0.0, traced - plain) / calls)
    return sorted(samples)[1]


def chrome_trace_spans(spans: Iterable[Span]) -> list[dict]:
    """The spans in the record shape :func:`repro.obs.trace.write_chrome_trace` reads."""
    pid = os.getpid()
    return [
        {
            "name": span.name,
            "category": span.name.split(".", 1)[0],
            "start": span.start,
            "duration": span.duration,
            "pid": pid,
            "tid": span.tid,
            "span_id": span.index + 1,
            "parent_id": span.parent + 1 if span.parent is not None else None,
        }
        for span in spans
    ]
