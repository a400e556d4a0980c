"""Measure what the service adds to one cold job: submit-to-done minus execution.

Submits cold single jobs one at a time to an in-process
:class:`~repro.engine.service.AnalysisService` (inline engine, no outcome
store, so every job executes) and reports, per job, the wall clock from
``submit_job`` to the ``done`` entry minus the job's own
``elapsed_seconds``: the queueing and publishing overhead alone.

    python scripts/service_overhead.py            # median of 15 jobs
    python scripts/service_overhead.py --jobs 30
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits import Circuit  # noqa: E402
from repro.config import AnalysisConfig, SDPConfig  # noqa: E402
from repro.engine.pool import AnalysisEngine  # noqa: E402
from repro.engine.service import AnalysisService  # noqa: E402
from repro.engine.spec import AnalysisJob  # noqa: E402
from repro.noise import NoiseModel  # noqa: E402

CONFIG = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _job(index: int) -> AnalysisJob:
    """A small job with its own fingerprint (the rotation angle differs)."""
    circuit = Circuit(2, name=f"cold{index}").h(0).rx(0.01 * (index + 1), 1).cx(0, 1)
    return AnalysisJob.from_circuit(circuit, MODEL, config=CONFIG)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=15, help="cold submissions to time")
    args = parser.parse_args(argv)

    service = AnalysisService(AnalysisEngine(workers=1))
    service.start()
    overheads = []
    try:
        service.wait(service.submit_job(_job(-1))["fingerprint"], timeout=120)  # warm-up
        for index in range(args.jobs):
            job = _job(index)
            start = time.perf_counter()
            fingerprint = service.submit_job(job)["fingerprint"]
            entry = service.wait(fingerprint, timeout=120)
            total = time.perf_counter() - start
            overheads.append(total - entry["result"]["elapsed_seconds"])
    finally:
        service.stop()
    print(
        f"{len(overheads)} cold jobs: submit-to-done minus execution "
        f"median {1e3 * statistics.median(overheads):.1f} ms, "
        f"max {1e3 * max(overheads):.1f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
