"""Gleipnir benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload reference-cold --seed 7 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``repro`` from its
``src/``.  One run sets the workload up ``SETUP_REPEATS`` times (reporting
the median as ``setup_s``), measures a fixed amount of work sized from
``--seconds`` (see each workload), checks every output, and prints a metric
table followed by one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``failed_ratio`` is printed in the table; the JSON line
carries it as ``failed`` / ``attempted``.

``--trace 0`` reports the end-to-end metrics and installs no wrapper.  Its
times are probe-normalised seconds (see ``speed.py``); the raw seconds are
printed and kept in the run record.  ``--trace 1`` wraps each layer's entry
points (see ``layers.py``) for the timed phase, prints a per-layer
self-time table, writes the spans as a Chrome trace, and reports the
per-layer metrics in raw seconds, the share of busy time the spans cover
and the estimated tracing overhead.  Every run writes its full record, with
the environment it ran in, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Speed probes taken in each pause of a timed phase that is not sampled.
PROBES_PER_PAUSE = 3

#: End-to-end metric name -> unit, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "bound_sum": "trace-distance",
    "peak_rss_mb": "MiB",
}


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ``beyond`` samples above it.

    That is the ``beyond + 1``-th largest sample.  With ``2 * beyond``
    samples or fewer no percentile above the median qualifies, and the median
    is returned as the tail.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    if count <= 2 * beyond:
        return 50.0, statistics.median(ordered)
    return 100.0 * (count - beyond) / count, ordered[count - beyond - 1]


def _src_path() -> Path:
    """The checkout's ``src/``; raises when this is not a source checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}: run from a source checkout")
    if not (ROOT / "tests" / "helpers.py").is_file():
        raise FileNotFoundError(f"no tests/helpers.py under {ROOT}")
    return src


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("reference-cold", "table2-paper", "serve-repeat")
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every input so a run takes seconds (for tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        src = _src_path()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    import envinfo
    import layers
    import spans
    import speed
    from repro.obs.trace import write_chrome_trace
    from workloads import WORKLOADS

    # A terminated run still unwinds, so the workload stops its server.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    environment = envinfo.environment()
    workload = WORKLOADS[args.workload](ROOT, args.seed, smoke=args.scale == "smoke")
    counts = layers.LayerCounts()
    recorder = spans.Recorder()
    # The traced run reports per-layer self times; probes firing inside
    # spans would land in them, so only the end-to-end run samples speed.
    sampler = speed.SpeedSampler()
    try:
        if not args.trace:
            sampler.start()
        setups = workload.set_up(1 if args.scale == "smoke" else SETUP_REPEATS)
        if args.trace:
            with spans.Installed(recorder, layers.wrap_points(counts)):
                measurement = workload.run(args.seconds)
            extra = workload.layer_extra(measurement)
        elif workload.sampled_run:
            measurement = workload.run(args.seconds)
        else:
            sampler.stop()
            measurement = workload.run(
                args.seconds, pause=lambda: sampler.sample_now(PROBES_PER_PAUSE)
            )
        sampler.stop()
        checks, check_failures = workload.check()
        bound_sum = workload.bound_sum()
        peak_rss = workload.peak_rss_mb()
        details = workload.details()
    finally:
        sampler.stop()
        workload.close()

    def measured(start: float, end: float) -> float:
        """``end - start``, probe-normalised unless this is the traced run."""
        raw = end - start
        return raw if args.trace else sampler.normalise(raw, start, end)

    attempted = measurement.attempted + checks
    failures = measurement.failures + check_failures
    latencies = [measured(start, end) for start, end in measurement.intervals]
    percentile, tail = tail_percentile(latencies)
    wall = sum(measured(start, end) for start, end in measurement.windows)
    end_to_end = {
        "setup_s": statistics.median(
            sum(measured(start, end) for start, end in parts) for parts in setups
        ),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "wall_s": wall / measurement.passes,
        "throughput_per_s": measurement.completed / wall,
        "bound_sum": bound_sum,
        "peak_rss_mb": peak_rss,
    }
    raw_latencies = [end - start for start, end in measurement.intervals]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment,
        "end_to_end": end_to_end,
        "time_basis": "raw seconds" if args.trace else "probe-normalised seconds",
        "raw": {
            "setup_s": statistics.median(
                sum(end - start for start, end in parts) for parts in setups
            ),
            "latency_p50_s": statistics.median(raw_latencies),
            "latency_tail_s": tail_percentile(raw_latencies)[1],
            "wall_s": measurement.wall / measurement.passes,
            "throughput_per_s": measurement.completed / measurement.wall,
        },
        "speed_probe": {
            "nominal_s": speed.NOMINAL_PROBE_S,
            "samples": len(sampler.samples),
            "median_s": (
                statistics.median(seconds for _middle, seconds in sampler.samples)
                if sampler.samples
                else None
            ),
        },
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "latency_samples": len(latencies),
        "latency_tail_percentile": percentile,
        "setup_samples": len(setups),
        "passes": measurement.passes,
        "details": details,
    }
    print(f"# environment: {json.dumps(environment, sort_keys=True)}")
    print(f"# times in {record['time_basis']}; raw: {json.dumps(record['raw'])}")
    print(f"# details: {json.dumps(details)}")
    for name, value in end_to_end.items():
        print(f"{name:<22}{value:>16.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_ratio':<22}{record['failed_ratio']:>16.6g} ratio")
    print(
        f"# {len(latencies)} latency samples, tail = p{percentile:.2f}, "
        f"{measurement.passes:g} passes in {measurement.wall:.2f} s"
    )
    for message in failures[:20]:
        print(f"FAILED: {message}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        finished = recorder.finished()
        table = layers.self_time_table(finished)
        attributed = sum(seconds for seconds, _calls in table.values())
        overhead = len(finished) * spans.wrapper_cost_seconds()
        extra["trace.coverage"] = attributed / measurement.busy
        extra["trace.overhead_share"] = overhead / measurement.busy
        metrics = layers.per_layer_metrics(table, counts, measurement.operations, extra=extra)
        units = layers.PER_LAYER_UNITS
        trace_path = write_chrome_trace(
            str(OUT_DIR / f"{stem}.trace.json"),
            spans.chrome_trace_spans(finished),
            label=args.workload,
        )
        print(f"# per-layer self time over {measurement.busy:.3f} busy s ({len(finished)} spans)")
        for line in layers.layer_table_lines(table, measurement.busy):
            print(line)
        print(
            f"# attributed {extra['trace.coverage']:.1%} of busy time to layer spans; "
            f"tracing overhead ~{extra['trace.overhead_share']:.2%}; trace: {trace_path}"
        )
        for name, value in metrics.items():
            print(f"{name:<30}{value:>16.6g} {units[name]}")
        record["per_layer"] = metrics
        record["self_time"] = {name: list(value) for name, value in table.items()}
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
