"""Run the benchmark suites and write BENCH_perf.json / BENCH_engine.json.

Usage:
    python scripts/run_bench.py            # measure and overwrite BENCH_perf.json
    python scripts/run_bench.py --check    # measure, compare against the file,
                                           # exit non-zero on a >2x regression
    python scripts/run_bench.py --engine   # measure the analysis engine and
                                           # overwrite BENCH_engine.json
    python scripts/run_bench.py --check --engine
                                           # machine-calibrated engine check:
                                           # re-run the serving trace and exit
                                           # non-zero on a >2x regression vs
                                           # the committed BENCH_engine.json,
                                           # or if the whole-outcome warm path
                                           # re-executes anything, diverges
                                           # from cold, or drops below its
                                           # 50x speedup floor
    python scripts/run_bench.py --warm     # warm-cache mode: pre-populate the
                                           # persistent bound cache via the
                                           # engine and report cold vs warm
                                           # timings for the Table 2 reduced
                                           # suite (refreshes the warm_cache
                                           # section of BENCH_engine.json)
    python scripts/run_bench.py --serve    # client-vs-server smoke: start a
                                           # real gleipnir-serve, drive it with
                                           # repro.api.Client, and assert its
                                           # bounds are bit-identical to the
                                           # in-process repro.api facade

The engine measurements run through the public :mod:`repro.api` session
facade (see ``benchmarks/bench_engine.py``), so the numbers cover the same
surface users call.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_engine  # noqa: E402
import bench_perf  # noqa: E402


def run_perf(check_only: bool) -> int:
    payload = bench_perf.collect_all()
    scheduled = payload["phases"]["analyze_scheduled"]
    print(
        f"reference workload: {scheduled['seconds']:.2f}s scheduled "
        f"({payload['phases']['analyze_sequential']['seconds']:.2f}s sequential, "
        f"seed baseline {payload['workload']['seed_baseline_seconds']:.2f}s, "
        f"speedup {payload['speedup_vs_seed_baseline']:.1f}x)"
    )
    print(
        f"kernel microbench: {payload['kernel_microbench']['kernel_speedup']:.1f}x "
        "batched vs per-block loop"
    )
    certification = payload["batch_certification_microbench"]
    print(
        f"batch certification: {certification['batch_speedup']:.1f}x fused vs "
        f"per-gate over {certification['unique_classes']} classes "
        f"(bit-identical: {certification['bit_identical']})"
    )
    reductions = payload["batched_reduction_microbench"]
    print(
        f"batched reductions: {reductions['reduction_speedup']:.1f}x stacked vs "
        f"per-instance over {reductions['unique_classes']} classes "
        f"(bit-identical: {reductions['bit_identical']})"
    )
    print(
        f"single pass: {scheduled['mps_walks']} MPS walk(s), scheduled == "
        f"sequential bounds: "
        f"{payload['single_pass']['bounds_bit_identical_scheduled_vs_sequential']}"
    )
    tracing = payload["tracing_overhead_microbench"]
    print(
        f"tracing overhead: {(tracing['overhead_ratio'] - 1.0) * 100:+.1f}% "
        f"({tracing['seconds_off']:.2f}s off -> {tracing['seconds_on']:.2f}s on, "
        f"{tracing['spans_recorded']} spans, "
        f"bit-identical: {tracing['bit_identical']})"
    )

    if check_only:
        # The perf gate covers the batched-reduction path: the front door of
        # the scheduled workload must stay bit-identical to the per-instance
        # reductions, not just fast.
        if not reductions["bit_identical"]:
            print(
                "REGRESSION: batched structural reductions are no longer "
                "bit-identical to the per-instance path",
                file=sys.stderr,
            )
            return 1
        if not certification["bit_identical"]:
            print(
                "REGRESSION: batched certification is no longer bit-identical "
                "to the per-gate path",
                file=sys.stderr,
            )
            return 1
        if not tracing["bit_identical"]:
            print(
                "REGRESSION: bounds differ with tracing/metrics enabled — "
                "observability must be read-only",
                file=sys.stderr,
            )
            return 1
        if tracing["overhead_ratio"] > 1.0 + bench_perf.TRACING_OVERHEAD_BUDGET:
            print(
                f"REGRESSION: tracing overhead "
                f"{(tracing['overhead_ratio'] - 1.0) * 100:.1f}% exceeds the "
                f"{bench_perf.TRACING_OVERHEAD_BUDGET * 100:.0f}% budget",
                file=sys.stderr,
            )
            return 1
        baseline = bench_perf.load_baseline()
        if baseline is None:
            print("no committed BENCH_perf.json; nothing to compare against")
            return 0
        current = scheduled["seconds"]
        budget = bench_perf.regression_budget_seconds(
            baseline, payload["phases"]["analyze_sequential"]["seconds"]
        )
        if current > budget:
            print(
                f"REGRESSION: {current:.2f}s over the machine-calibrated "
                f"2x budget of {budget:.2f}s",
                file=sys.stderr,
            )
            return 1
        print(f"within budget: {current:.2f}s vs calibrated budget {budget:.2f}s")
        return 0

    bench_perf.BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {bench_perf.BASELINE_PATH}")
    return 0


def run_engine() -> int:
    payload = bench_engine.collect_all()
    sequential = payload["sequential_baseline"]
    print(
        f"serving trace ({payload['workload']['submissions']} submissions, "
        f"{payload['workload']['unique_programs']} unique): "
        f"sequential baseline {sequential['seconds']:.2f}s "
        f"({sequential['jobs_per_minute']:.1f} jobs/min)"
    )
    for key, run in payload["engine"].items():
        print(
            f"  engine {key}: {run['seconds']:.2f}s "
            f"({run['jobs_per_minute']:.1f} jobs/min, "
            f"{run['analyses_executed']} analyses for "
            f"{run['deduplicated_submissions']} deduped submissions)"
        )
    print(
        f"speedup at 4 workers vs sequential: "
        f"{payload['speedup_at_4_workers_vs_sequential']:.2f}x "
        f"(bit-identical bounds: {payload['bounds_bit_identical_at_4_workers']})"
    )
    warm = payload["warm_cache_table2_reduced"]
    print(
        f"warm cache (table2 reduced): cold {warm['cold_seconds']:.2f}s -> "
        f"warm {warm['warm_seconds']:.2f}s ({warm['speedup_warm_vs_cold']:.2f}x, "
        f"{warm['sdp_solves_warm']} warm solves)"
    )
    outcome = payload["outcome_store_warm_path"]
    print(
        f"outcome store (serving trace): cold {outcome['cold_seconds']:.2f}s -> "
        f"warm {outcome['warm_seconds']:.2f}s "
        f"({outcome['speedup_warm_vs_cold']:.1f}x, "
        f"{outcome['warm_jobs_per_minute']:.0f} warm jobs/min, "
        f"{outcome['executed_warm']} warm executions, "
        f"bit-identical: {outcome['bit_identical']}, "
        f"certificates re-verified: {outcome['certificates_reverified']})"
    )
    registry = payload["metric_registry"]
    print(
        f"metric registry dispatch: "
        f"{registry['dispatch_overhead_ratio'] * 100:+.1f}% vs direct call "
        f"({registry['pairs']} pairs x {registry['repeats']} rounds, "
        f"bit-identical: {registry['bit_identical']})"
    )
    bench_engine.BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {bench_engine.BASELINE_PATH}")
    return 0


def run_engine_check() -> int:
    """Machine-calibrated engine regression gate (used by the CI smoke job)."""
    baseline = bench_engine.load_baseline()
    if baseline is None or "calibration" not in baseline or "engine" not in baseline:
        print("no committed BENCH_engine.json with calibration; nothing to compare")
        return 0
    current = bench_engine.measure_check()
    budget = bench_engine.regression_budget_seconds(
        baseline, current["calibration_seconds"]
    )
    print(
        f"engine trace ({current['submissions']} submissions, "
        f"{current['workers']} workers): {current['seconds']:.2f}s, "
        f"calibration job {current['calibration_seconds']:.2f}s"
    )
    if current["seconds"] > budget:
        print(
            f"REGRESSION: {current['seconds']:.2f}s over the machine-calibrated "
            f"2x budget of {budget:.2f}s",
            file=sys.stderr,
        )
        return 1
    print(f"within budget: {current['seconds']:.2f}s vs calibrated budget {budget:.2f}s")

    # Whole-outcome warm-path gate (live, machine-independent — a ratio):
    # warm traffic must execute nothing, stay bit-identical, and clear the
    # 50x speedup floor.  Measured on the smoke subset to keep CI cheap.
    outcome = bench_engine.measure_outcome_warm_path(
        bench_engine.unique_jobs(benchmarks=bench_engine.SMOKE_BENCHMARKS)
    )
    print(
        f"outcome store warm path: {outcome['speedup_warm_vs_cold']:.1f}x "
        f"(floor {bench_engine.OUTCOME_WARM_SPEEDUP_FLOOR:.0f}x), "
        f"{outcome['executed_warm']} warm executions, "
        f"bit-identical: {outcome['bit_identical']}"
    )
    if outcome["executed_warm"] != 0:
        print("REGRESSION: warm outcome-store traffic re-executed analyses", file=sys.stderr)
        return 1
    if not outcome["bit_identical"]:
        print("REGRESSION: warm outcome-store results diverge from cold", file=sys.stderr)
        return 1
    if not outcome["certificates_reverified"]:
        print("REGRESSION: stored dual certificates no longer verify", file=sys.stderr)
        return 1
    if outcome["speedup_warm_vs_cold"] < bench_engine.OUTCOME_WARM_SPEEDUP_FLOOR:
        print(
            f"REGRESSION: warm outcome path only "
            f"{outcome['speedup_warm_vs_cold']:.1f}x faster than cold "
            f"(floor {bench_engine.OUTCOME_WARM_SPEEDUP_FLOOR:.0f}x)",
            file=sys.stderr,
        )
        return 1

    # Metric-registry dispatch gate (live, machine-independent — a ratio):
    # routing the diamond norm through the string-keyed registry must stay
    # bit-identical to the direct call and within the 5% dispatch budget.
    registry = bench_engine.measure_metric_registry()
    print(
        f"metric registry dispatch: "
        f"{registry['dispatch_overhead_ratio'] * 100:+.1f}% vs direct call "
        f"(budget {bench_engine.REGISTRY_OVERHEAD_BUDGET * 100:.0f}%, "
        f"bit-identical: {registry['bit_identical']})"
    )
    if not registry["bit_identical"]:
        print(
            "REGRESSION: registry-routed diamond norm diverges from the "
            "direct diamond_distance call",
            file=sys.stderr,
        )
        return 1
    if registry["dispatch_overhead_ratio"] > bench_engine.REGISTRY_OVERHEAD_BUDGET:
        print(
            f"REGRESSION: metric registry dispatch overhead "
            f"{registry['dispatch_overhead_ratio'] * 100:.1f}% exceeds the "
            f"{bench_engine.REGISTRY_OVERHEAD_BUDGET * 100:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


def run_warm() -> int:
    warm = bench_engine.collect_warm_only()
    print(
        f"warm cache (table2 reduced): cold {warm['cold_seconds']:.2f}s -> "
        f"warm {warm['warm_seconds']:.2f}s ({warm['speedup_warm_vs_cold']:.2f}x)"
    )
    print(
        f"bit-identical bounds: {warm['bit_identical']}; "
        f"SDP solves cold={warm['sdp_solves_cold']} warm={warm['sdp_solves_warm']}"
    )
    if not warm["bit_identical"]:
        print("WARM CACHE CHANGED BOUNDS — this is a bug", file=sys.stderr)
        return 1
    baseline = bench_engine.load_baseline() or {}
    baseline["warm_cache_table2_reduced"] = warm
    bench_engine.BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"updated warm_cache_table2_reduced in {bench_engine.BASELINE_PATH}")
    return 0


def main() -> int:
    if "--serve" in sys.argv:
        import api_smoke  # the client-vs-server smoke (scripts/api_smoke.py)

        return api_smoke.main()
    if "--engine" in sys.argv:
        if "--check" in sys.argv:
            return run_engine_check()
        return run_engine()
    if "--warm" in sys.argv:
        return run_warm()
    return run_perf("--check" in sys.argv)


if __name__ == "__main__":
    raise SystemExit(main())
