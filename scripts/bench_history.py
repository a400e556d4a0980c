"""Track the nightly benchmark results as a scalability curve over time.

The nightly CI job measures the full suites (``run_bench.py`` and
``run_bench.py --engine``), then:

    python scripts/bench_history.py append --history bench-history.jsonl
    python scripts/bench_history.py check  --history bench-history.jsonl

``append`` distils the freshly written ``BENCH_perf.json`` /
``BENCH_engine.json`` into one compact JSONL record and appends it to the
history file (carried across nightly runs by an ``actions/cache`` entry and
re-uploaded with the night's artifacts, so the curve survives the 90-day
artifact expiry).  ``check`` compares the newest record against the median
of the previous ones and exits non-zero on a >2x drift in either direction
of "worse": timings are **calibration-normalised** before comparison (each
night's absolute seconds are divided by that night's single-job calibration
measurement), so a slower or faster runner does not read as a regression —
only a change in the *shape* of the curve does.

Records are self-describing::

    {"timestamp": "...", "run_id": "...", "python": "3.12.x",
     "metrics": {"engine_trace_calibrated": 12.3, "outcome_warm_speedup": 90.0, ...}}
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fail ``check`` when the newest entry is worse than the median of the
#: previous entries by more than this factor.
DRIFT_FACTOR = 2.0

#: metric name -> direction ("lower" = lower is better, "higher" = higher is
#: better).  Only metrics present in both the history and tonight's record
#: are compared, so adding a metric never breaks an existing history file,
#: and keys of retired metrics in older lines are ignored.
METRIC_DIRECTIONS = {
    # engine serving trace, in calibration units (seconds / calibration job
    # seconds — machine-independent).
    "engine_trace_calibrated": "lower",
    "sequential_baseline_calibrated": "lower",
    # scheduled analysis relative to the sequential analyzer (bench_perf).
    "scheduled_vs_sequential_ratio": "lower",
    # live ratios — already machine-independent.
    "outcome_warm_speedup": "higher",
    "engine_speedup_4_workers": "higher",
}


def _get(payload: dict, *path):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def build_record() -> dict:
    """Distil the committed BENCH_*.json files into one history record."""
    metrics: dict[str, float] = {}

    engine_path = REPO_ROOT / "BENCH_engine.json"
    if engine_path.exists():
        engine = json.loads(engine_path.read_text())
        calibration = _get(engine, "calibration", "seconds")
        trace = _get(engine, "engine", "workers_2", "seconds")
        if calibration and trace:
            metrics["engine_trace_calibrated"] = trace / calibration
        sequential = _get(engine, "sequential_baseline", "seconds")
        if calibration and sequential:
            metrics["sequential_baseline_calibrated"] = sequential / calibration
        for name, path in (
            ("outcome_warm_speedup", ("outcome_store_warm_path", "speedup_warm_vs_cold")),
            ("engine_speedup_4_workers", ("speedup_at_4_workers_vs_sequential",)),
        ):
            value = _get(engine, *path)
            if value:
                metrics[name] = float(value)

    perf_path = REPO_ROOT / "BENCH_perf.json"
    if perf_path.exists():
        perf = json.loads(perf_path.read_text())
        scheduled = _get(perf, "phases", "analyze_scheduled", "seconds")
        sequential = _get(perf, "phases", "analyze_sequential", "seconds")
        if scheduled and sequential:
            metrics["scheduled_vs_sequential_ratio"] = scheduled / sequential

    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "run_id": os.environ.get("GITHUB_RUN_ID", ""),
        "python": platform.python_version(),
        "metrics": metrics,
    }


def load_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn write must not wedge every future nightly
        if isinstance(entry, dict) and isinstance(entry.get("metrics"), dict):
            entries.append(entry)
    return entries


def append(path: Path) -> int:
    record = build_record()
    if not record["metrics"]:
        print("no BENCH_*.json measurements found; nothing to append", file=sys.stderr)
        return 1
    with path.open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"appended {len(record['metrics'])} metrics to {path} "
          f"({len(load_history(path))} entries total)")
    return 0


def check(path: Path) -> int:
    """Exit non-zero when the newest entry drifted >2x worse vs the median."""
    history = load_history(path)
    if len(history) < 2:
        print(f"{len(history)} history entries; need 2+ to compare — skipping")
        return 0
    latest = history[-1]["metrics"]
    failures = []
    for name, direction in METRIC_DIRECTIONS.items():
        value = latest.get(name)
        previous = [
            entry["metrics"][name]
            for entry in history[:-1]
            if isinstance(entry["metrics"].get(name), (int, float))
        ]
        if value is None or not previous:
            continue
        median = statistics.median(previous)
        if median <= 0 or value <= 0:
            continue
        if direction == "lower":
            drifted = value > DRIFT_FACTOR * median
            arrow = f"{median:.3g} -> {value:.3g}"
        else:
            drifted = value < median / DRIFT_FACTOR
            arrow = f"{median:.3g} -> {value:.3g}"
        status = "DRIFT" if drifted else "ok"
        print(f"  {name}: {arrow} (median of {len(previous)} prior runs) [{status}]")
        if drifted:
            failures.append(name)
    if failures:
        print(
            f"DRIFT: {', '.join(failures)} moved >{DRIFT_FACTOR:g}x worse than "
            f"the nightly median",
            file=sys.stderr,
        )
        return 1
    print(f"no >{DRIFT_FACTOR:g}x drift across {len(history)} nightly entries")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_history.py",
        description="Append nightly benchmark results to a tracked history and "
        "fail on >2x drift.",
    )
    parser.add_argument("command", choices=["append", "check"])
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "bench-history.jsonl",
        help="history JSONL path (default: bench-history.jsonl at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.history)
    return check(args.history)


if __name__ == "__main__":
    raise SystemExit(main())
