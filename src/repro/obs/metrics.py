"""A process-wide metric registry: counters, gauges, fixed-bucket histograms.

One API behind every counter the pipeline used to keep ad hoc (outcome-store
hits and evictions, SDP solve workload, engine batch shapes, HTTP
latencies):

* metrics are identified by **name + sorted label pairs** and live in a
  :class:`MetricsRegistry`; the module-level helpers (:func:`counter`,
  :func:`gauge`, :func:`histogram`) resolve through the *current* registry,
  so a worker process can swap in a scoped registry and capture exactly its
  own increments;
* snapshots are plain JSON-safe dicts and **mergeable**:
  ``registry.merge(snapshot)`` adds counter/histogram deltas and takes the
  latest gauge value — the engine merges every pool worker's per-job
  snapshot back into the parent registry, so ``/v1/metrics`` covers the
  whole process tree;
* :meth:`MetricsRegistry.render_prometheus` emits the text exposition
  format (``text/plain; version=0.0.4``) served by ``GET /v1/metrics``.

Metrics never feed back into the computation: observing a value cannot
change a bound, so instrumented runs stay bit-identical to bare ones.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "scoped",
    "set_registry",
]

#: Default histogram buckets (seconds): latency-shaped, 100 µs .. 60 s.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    15.0,
    60.0,
)


def _label_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (in-flight requests, queue depth)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative counts rendered Prometheus-style)."""

    kind = "histogram"

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        # counts[i] = observations <= buckets[i]; the +Inf bucket is `count`.
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        index = bisect.bisect_left(self.buckets, value)
        for i in range(index, len(self.counts)):
            self.counts[i] += 1


class MetricsRegistry:
    """Thread-safe home of every metric in a process (or a scoped capture)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> {"kind", "help", "buckets"?, "series": {label_key: metric}}
        self._families: dict[str, dict] = {}

    # -- registration --------------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str, buckets=None) -> dict:
        family = self._families.get(name)
        if family is None:
            family = {
                "kind": kind,
                "help": help_text,
                "series": {},
            }
            if buckets is not None:
                family["buckets"] = tuple(float(b) for b in buckets)
            self._families[name] = family
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} is a {family['kind']}, requested as {kind}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labels: dict | None = None) -> Counter:
        with self._lock:
            family = self._family(name, "counter", help_text)
            return family["series"].setdefault(_label_key(labels), Counter())

    def gauge(self, name: str, help_text: str = "", labels: dict | None = None) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge", help_text)
            return family["series"].setdefault(_label_key(labels), Gauge())

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: dict | None = None,
        buckets=DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram", help_text, buckets=buckets)
            return family["series"].setdefault(
                _label_key(labels), Histogram(family.get("buckets", buckets))
            )

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe, mergeable copy of every metric in this registry."""
        with self._lock:
            families = {}
            for name, family in self._families.items():
                series = {}
                for key, metric in family["series"].items():
                    if family["kind"] == "histogram":
                        series[key] = {
                            "counts": list(metric.counts),
                            "sum": metric.sum,
                            "count": metric.count,
                        }
                    else:
                        series[key] = metric.value
                entry = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "series": series,
                }
                if "buckets" in family:
                    entry["buckets"] = list(family["buckets"])
                families[name] = entry
            return families

    @staticmethod
    def _wire_snapshot(snapshot: dict) -> dict:
        """Snapshot with tuple label keys flattened for JSON transport."""
        wire = {}
        for name, family in snapshot.items():
            entry = dict(family)
            entry["series"] = [
                {"labels": [list(pair) for pair in key], "value": value}
                for key, value in family["series"].items()
            ]
            wire[name] = entry
        return wire

    def wire_snapshot(self) -> dict:
        """Snapshot in the list-of-series shape used on process boundaries."""
        return self._wire_snapshot(self.snapshot())

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (dict or wire shape) into this registry.

        Counters and histograms add; gauges take the merged value (last
        writer wins — worker gauges are rare and advisory).  Unknown
        families are created with the snapshot's metadata.
        """
        if not snapshot:
            return
        for name, family in snapshot.items():
            series = family["series"]
            if isinstance(series, list):  # wire shape
                items = [
                    (tuple(tuple(pair) for pair in entry["labels"]), entry["value"])
                    for entry in series
                ]
            else:
                items = list(series.items())
            kind = family["kind"]
            for key, value in items:
                labels = dict(key) if key else None
                if kind == "counter":
                    self.counter(name, family.get("help", ""), labels).inc(float(value))
                elif kind == "gauge":
                    self.gauge(name, family.get("help", ""), labels).set(float(value))
                elif kind == "histogram":
                    metric = self.histogram(
                        name,
                        family.get("help", ""),
                        labels,
                        buckets=family.get("buckets", DEFAULT_BUCKETS),
                    )
                    with self._lock:
                        counts = value["counts"]
                        if len(counts) != len(metric.counts):
                            raise ValueError(
                                f"histogram {name!r} bucket mismatch in merge"
                            )
                        for i, c in enumerate(counts):
                            metric.counts[i] += int(c)
                        metric.sum += float(value["sum"])
                        metric.count += int(value["count"])
                else:
                    raise ValueError(f"unknown metric kind {kind!r}")

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # -- exposition ----------------------------------------------------------
    @staticmethod
    def _format_value(value: float) -> str:
        if value != value:  # NaN
            return "NaN"
        if value in (math.inf, -math.inf):
            return "+Inf" if value > 0 else "-Inf"
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))

    @staticmethod
    def _format_labels(key: tuple, extra: list | None = None) -> str:
        pairs = list(key) + (extra or [])
        if not pairs:
            return ""
        inner = ",".join(
            '{}="{}"'.format(
                k, str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            )
            for k, v in pairs
        )
        return "{" + inner + "}"

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            family = snapshot[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for key in sorted(family["series"]):
                value = family["series"][key]
                if family["kind"] == "histogram":
                    buckets = family.get("buckets", list(DEFAULT_BUCKETS))
                    for upper, count in zip(buckets, value["counts"]):
                        labels = self._format_labels(
                            key, [("le", self._format_value(upper))]
                        )
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = self._format_labels(key, [("le", "+Inf")])
                    lines.append(f"{name}_bucket{labels} {value['count']}")
                    lines.append(
                        f"{name}_sum{self._format_labels(key)} "
                        f"{self._format_value(value['sum'])}"
                    )
                    lines.append(f"{name}_count{self._format_labels(key)} {value['count']}")
                else:
                    lines.append(
                        f"{name}{self._format_labels(key)} "
                        f"{self._format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


#: The process-wide default registry.
_DEFAULT = MetricsRegistry()
_CURRENT = _DEFAULT
_CURRENT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The registry instrumentation points currently write to."""
    return _CURRENT


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the current registry (None restores the process default)."""
    global _CURRENT
    with _CURRENT_LOCK:
        previous = _CURRENT
        _CURRENT = registry if registry is not None else _DEFAULT
    return previous


class scoped:
    """Capture instrumentation into a fresh registry for the block's duration.

    Used by pool workers: each job runs under its own scoped registry, whose
    snapshot travels back to the engine and is merged into the parent's
    registry — per-job deltas, no double counting across jobs that reuse a
    pooled worker process.
    """

    def __enter__(self) -> MetricsRegistry:
        self._registry = MetricsRegistry()
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, *exc_info) -> None:
        set_registry(self._previous)


def counter(name: str, help_text: str = "", labels: dict | None = None) -> Counter:
    """A counter in the current registry (created on first use)."""
    return _CURRENT.counter(name, help_text, labels)


def gauge(name: str, help_text: str = "", labels: dict | None = None) -> Gauge:
    """A gauge in the current registry (created on first use)."""
    return _CURRENT.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str = "",
    labels: dict | None = None,
    buckets=DEFAULT_BUCKETS,
) -> Histogram:
    """A histogram in the current registry (created on first use)."""
    return _CURRENT.histogram(name, help_text, labels, buckets=buckets)
