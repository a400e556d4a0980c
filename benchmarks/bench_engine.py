"""Performance benchmark for the analysis engine (ISSUE 2 reference workload).

The **reference multi-program workload** is a serving trace over the reduced
Table 2 suite: every benchmark program is submitted ``DUPLICATES_FACTOR``
times, the way repeated user traffic re-requests the same analyses.  The
engine is measured on three axes:

* **throughput** — jobs/minute at 1, 2, and 4 workers (content-addressed
  dedupe means each unique analysis is paid for once per batch);
* **vs the pre-engine baseline** — the same trace analysed one submission at
  a time with no dedupe, the way ``run_table2`` worked before the engine;
* **whole-outcome warm path** — the serving trace cold versus re-run against
  the content-addressed :class:`~repro.engine.outcomes.OutcomeStore`, where a
  warm submission must execute nothing at all (zero MPS walks, zero SDP
  solves), stay bit-identical, and keep its stored dual certificates
  re-verifiable (``--check --engine`` fails below a 50x warm speedup).

``scripts/run_bench.py --engine`` writes the result to ``BENCH_engine.json``
at the repository root (``--check --engine`` re-runs the trace and fails on a
>2x regression against the committed file, scaled by the single-job
``calibration`` measurement so machines of different speeds compare fairly).
Throughput scaling across workers is hardware-bound: on a single-core
container the 1/2/4-worker rows measure dispatch overhead, not parallelism,
which is why ``environment.cpu_count`` is part of the payload.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.api import AnalysisSession  # noqa: E402
from repro.config import AnalysisConfig, DEFAULT_BIT_FLIP_PROBABILITY  # noqa: E402
from repro.engine.outcomes import OutcomeStore  # noqa: E402
from repro.engine.pool import AnalysisEngine, execute_job  # noqa: E402
from repro.engine.spec import AnalysisJob  # noqa: E402
from repro.noise import NoiseModel  # noqa: E402
from repro.programs.library import table2_benchmarks  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_engine.json"

#: How often each unique program appears in the serving trace.
DUPLICATES_FACTOR = 3
#: MPS width of the workload (matches the reduced Table 2 default).
WORKLOAD_MPS_WIDTH = 16
WORKER_COUNTS = (1, 2, 4)
#: Single program used to calibrate machine speed for the CI regression gate.
CALIBRATION_BENCHMARK = "Isingmodel10"
#: Worker count whose committed timing the regression gate compares against.
CHECK_WORKERS = 2


def unique_jobs(*, benchmarks: list[str] | None = None) -> list[AnalysisJob]:
    """One job per reduced Table 2 benchmark (optionally a named subset)."""
    model = NoiseModel.uniform_bit_flip(DEFAULT_BIT_FLIP_PROBABILITY)
    config = AnalysisConfig(mps_width=WORKLOAD_MPS_WIDTH)
    specs = table2_benchmarks("reduced")
    if benchmarks is not None:
        specs = [spec for spec in specs if spec.name in set(benchmarks)]
    return [
        AnalysisJob.from_circuit(spec.build(), model, config=config, name=spec.name)
        for spec in specs
    ]


def reference_trace(jobs: list[AnalysisJob]) -> list[AnalysisJob]:
    """The serving trace: every job submitted ``DUPLICATES_FACTOR`` times."""
    return jobs * DUPLICATES_FACTOR


def measure_sequential_baseline(trace: list[AnalysisJob]) -> dict:
    """The pre-engine path: analyse every submission, no dedupe, no sharing."""
    start = time.perf_counter()
    results = [execute_job(job) for job in trace]
    seconds = time.perf_counter() - start
    assert all(result.ok for result in results)
    return {
        "seconds": seconds,
        "jobs_per_minute": 60.0 * len(trace) / seconds,
        "analyses_executed": len(trace),
    }


def measure_engine(trace: list[AnalysisJob], *, workers: int) -> dict:
    """One facade batch over the trace (fresh session, no store, no disk cache)."""
    with AnalysisSession(workers=workers) as session:
        start = time.perf_counter()
        outcomes = session.analyze_batch(trace)
        seconds = time.perf_counter() - start
        assert all(outcome.ok for outcome in outcomes)
        executed = session.engine.stats()["last_batch_executed"]
    unique = len({outcome.fingerprint for outcome in outcomes})
    return {
        "workers": workers,
        "seconds": seconds,
        "jobs_per_minute": 60.0 * len(trace) / seconds,
        "analyses_executed": unique if executed is None else executed,
        "deduplicated_submissions": len(trace) - unique,
        "bounds": [outcome.bound for outcome in outcomes],
    }


#: Warm traffic must be at least this much faster than cold (the whole point
#: of the outcome store: a warm hit is one dict lookup, not an MPS walk plus
#: a derivation replay).  ``--check --engine`` fails below it.
OUTCOME_WARM_SPEEDUP_FLOOR = 50.0


def measure_outcome_warm_path(jobs: list[AnalysisJob], *, duplicates: int = DUPLICATES_FACTOR) -> dict:
    """Cold vs warm serving trace against the whole-outcome store.

    The cold engine executes every unique analysis once and writes the full
    :class:`~repro.engine.spec.JobResult` plus dual certificates to the
    store; a **fresh** engine over the same file then replays the trace and
    must answer every submission without a single execution (zero MPS walks,
    zero SDP solves), bit-identical to the cold results, with every stored
    certificate still re-verifiable on demand.
    """
    trace = reference_trace(jobs) if duplicates == DUPLICATES_FACTOR else jobs * duplicates
    with tempfile.TemporaryDirectory(prefix="bench-engine-outcomes-") as tmp:
        path = os.path.join(tmp, "outcomes.jsonl")
        start = time.perf_counter()
        cold = AnalysisEngine(workers=1, outcomes=path).run(trace)
        cold_seconds = time.perf_counter() - start
        assert cold.ok

        # A fresh engine + store over the same file: the cross-process warm hit.
        warm_engine = AnalysisEngine(workers=1, outcomes=path)
        start = time.perf_counter()
        warm = warm_engine.run(trace)
        warm_seconds = time.perf_counter() - start
        assert warm.ok

        store = OutcomeStore(path)
        certificates_reverified = all(
            store.get(job.fingerprint(), verify=True) is not None for job in jobs
        )
        stats = warm_engine.stats()["outcomes"]
    return {
        "workers": 1,
        "submissions": len(trace),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_warm_vs_cold": cold_seconds / warm_seconds,
        "warm_jobs_per_minute": 60.0 * len(trace) / warm_seconds,
        "executed_cold": cold.executed,
        # Zero == the warm trace performed no MPS walk and no SDP solve.
        "executed_warm": warm.executed,
        "outcome_hits_warm": warm.outcome_hits,
        "bit_identical": warm.results == cold.results,
        "certificates_reverified": certificates_reverified,
        "store_stats": stats,
    }


def measure_calibration() -> dict:
    """One inline analysis of the calibration benchmark (machine-speed probe).

    CI runners and developer laptops differ in raw speed, so committed
    absolute engine timings cannot be compared directly; this single-job
    measurement, taken both when the baseline was committed and at check
    time, supplies the scaling factor (see :func:`regression_budget_seconds`).
    """
    (job,) = unique_jobs(benchmarks=[CALIBRATION_BENCHMARK])
    start = time.perf_counter()
    result = execute_job(job)
    seconds = time.perf_counter() - start
    assert result.ok
    return {"benchmark": CALIBRATION_BENCHMARK, "seconds": seconds}


def regression_budget_seconds(baseline: dict, calibration_seconds: float) -> float:
    """The 2x-regression budget for the engine trace, machine-calibrated.

    The budget is 2x the committed ``workers_2`` trace time, scaled by how
    much slower (or faster) this machine ran the calibration job than the
    baseline machine did.
    """
    committed = baseline["engine"][f"workers_{CHECK_WORKERS}"]["seconds"]
    committed_calibration = baseline["calibration"]["seconds"]
    machine_factor = calibration_seconds / max(committed_calibration, 1e-9)
    return 2.0 * max(committed, 0.5) * max(machine_factor, 0.1)


def measure_check() -> dict:
    """The measurements the CI regression gate needs: calibration + one run."""
    jobs = unique_jobs()
    trace = reference_trace(jobs)
    calibration = measure_calibration()
    run = measure_engine(trace, workers=CHECK_WORKERS)
    return {
        "calibration_seconds": calibration["seconds"],
        "seconds": run["seconds"],
        "workers": CHECK_WORKERS,
        "submissions": len(trace),
    }


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def collect_all() -> dict:
    """The full BENCH_engine.json payload."""
    jobs = unique_jobs()
    trace = reference_trace(jobs)
    sequential = measure_sequential_baseline(trace)
    engine_runs = {f"workers_{n}": measure_engine(trace, workers=n) for n in WORKER_COUNTS}

    sequential_unique_bounds = None
    four = engine_runs.get("workers_4")
    if four is not None:
        # bit-identity check: the engine's bounds vs the no-engine baseline
        direct = [execute_job(job) for job in jobs]
        sequential_unique_bounds = [result.error_bound for result in direct]
        assert four["bounds"] == sequential_unique_bounds * DUPLICATES_FACTOR

    payload = {
        "workload": {
            "description": (
                "serving trace over the reduced Table 2 suite: "
                f"{len(jobs)} unique programs x {DUPLICATES_FACTOR} submissions, "
                f"uniform bit-flip {DEFAULT_BIT_FLIP_PROBABILITY:g}, "
                f"MPS width {WORKLOAD_MPS_WIDTH}, certified SDP mode"
            ),
            "unique_programs": len(jobs),
            "duplicates_factor": DUPLICATES_FACTOR,
            "submissions": len(trace),
            "mps_width": WORKLOAD_MPS_WIDTH,
        },
        "environment": _environment(),
        "calibration": measure_calibration(),
        "sequential_baseline": sequential,
        "engine": {
            key: {k: v for k, v in run.items() if k != "bounds"}
            for key, run in engine_runs.items()
        },
        "speedup_at_4_workers_vs_sequential": (
            sequential["seconds"] / engine_runs["workers_4"]["seconds"]
        ),
        "bounds_bit_identical_at_4_workers": four["bounds"][: len(jobs)]
        == sequential_unique_bounds,
        "outcome_store_warm_path": measure_outcome_warm_path(jobs),
    }
    return payload


def load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    try:
        payload = json.loads(BASELINE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload or None


# ---------------------------------------------------------------------------
# pytest entry points (smoke-sized; used by CI)
# ---------------------------------------------------------------------------

SMOKE_BENCHMARKS = ["QAOA_line_10", "Isingmodel10", "QAOARandom20"]


def test_engine_sweep_smoke():
    """A 2-worker facade sweep of three small programs matches the inline one."""
    jobs = unique_jobs(benchmarks=SMOKE_BENCHMARKS)
    assert len(jobs) == 3
    trace = jobs * 2
    with AnalysisSession(workers=1) as session:
        inline = session.analyze_batch(trace)
    with AnalysisSession(workers=2) as session:
        sharded = session.analyze_batch(trace)
        executed = session.engine.stats()["last_batch_executed"]
    assert all(o.ok for o in inline) and all(o.ok for o in sharded)
    assert executed == 3  # dedupe: 6 submissions, 3 executions
    assert [o.bound for o in sharded] == [o.bound for o in inline]


def test_outcome_warm_path_smoke():
    """A warm outcome-store trace executes nothing and stays bit-identical."""
    jobs = unique_jobs(benchmarks=SMOKE_BENCHMARKS[:1])
    outcome = measure_outcome_warm_path(jobs, duplicates=2)
    assert outcome["executed_warm"] == 0
    assert outcome["outcome_hits_warm"] == 1
    assert outcome["bit_identical"]
    assert outcome["certificates_reverified"]


if __name__ == "__main__":
    print(json.dumps(collect_all(), indent=2))
