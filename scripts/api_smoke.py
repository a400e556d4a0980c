"""Client-vs-server smoke: drive a live ``gleipnir-serve`` via ``repro.api``.

Used by the CI engine-smoke job (and handy locally)::

    PYTHONPATH=src python scripts/api_smoke.py

The script

1. launches ``gleipnir-serve`` as a real subprocess on an ephemeral port,
2. discovers it via ``GET /v1/capabilities``,
3. submits a small batch (with a duplicate) through
   :class:`repro.api.Client` / a remote :class:`repro.api.AnalysisSession`,
   collecting results via the long-poll push path,
4. runs the identical jobs through an in-process local session, and
5. asserts the two surfaces return **bit-identical** certified bounds, that
   the server's fingerprint for every job (fixed gates, parametric gates, a
   custom unitary) equals the client's ``job.fingerprint()``, that a
   completed long-poll costs exactly one request, and that re-sending the
   finished batch twice gets the same answer byte for byte, and
6. submits one job under a 1 ms ``guard.max_seconds`` and asserts that the
   server's inline engine thread ends it ``failed`` with a ``timeout`` result.

Exit code 0 means the whole HTTP path (serialization, batching, condition-
variable result push, error envelopes) agrees with the in-process facade.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import AnalysisConfig, Circuit, NoiseModel, ResourceGuard  # noqa: E402
from repro.api import AnalysisSession, Client  # noqa: E402
from repro.engine.spec import canonical_json  # noqa: E402
from repro.errors import JobNotFoundError  # noqa: E402

METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? ([0-9.eE+-]+|NaN|[+-]Inf)$"
)


def check_observability(base_url: str) -> None:
    """Validate ``/v1/healthz`` and the ``/v1/metrics`` Prometheus exposition."""
    import json
    import urllib.request

    with urllib.request.urlopen(f"{base_url}/v1/healthz", timeout=10) as response:
        health = json.loads(response.read())
    assert health["status"] == "ok", health
    for key in ("version", "uptime_seconds", "queue_depth", "workers"):
        assert key in health, f"/v1/healthz missing {key}: {health}"

    with urllib.request.urlopen(f"{base_url}/v1/metrics", timeout=10) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    assert content_type.startswith("text/plain"), content_type
    families: set[str] = set()
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        assert METRIC_LINE.match(line), f"malformed exposition line: {line!r}"
    for family in (
        "repro_http_request_seconds",
        "repro_engine_jobs_total",
        "repro_service_queue_depth",
    ):
        assert family in families, f"/v1/metrics missing {family}; got {sorted(families)}"
    # The batch we just ran must have moved the request-latency histogram.
    samples = [
        line
        for line in body.splitlines()
        if line.startswith("repro_http_request_seconds_count")
    ]
    assert samples, body
    assert any(float(line.rsplit(" ", 1)[1]) > 0 for line in samples), samples

FAST = AnalysisConfig(mps_width=4)
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def smoke_jobs(session: AnalysisSession) -> list:
    ghz2 = Circuit(2, name="ghz2").h(0).cx(0, 1)
    ghz3 = Circuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)
    rotations = Circuit(2, name="rotations").rx(0.3, 0).rzz(-0.7, 0, 1).rz(3, 1)
    custom = Circuit(2, name="custom").h(0).unitary(np.diag([1, 1j]), 1, name="mygate")
    return [
        session.job(ghz2, MODEL, config=FAST),
        session.job(ghz3, MODEL, config=FAST),
        session.job(ghz2, MODEL, config=FAST),  # duplicate: dedupe on the wire
        session.job(rotations, MODEL, config=FAST),
        session.job(custom, MODEL, config=FAST),
    ]


def budgeted_job(session: AnalysisSession):
    """A job that runs far longer than its 1 ms budget.

    Budgets are not part of the fingerprint, so its circuit differs from
    every job in :func:`smoke_jobs`.
    """
    circuit = Circuit(4, name="budgeted")
    for layer in range(10):
        for qubit in range(4):
            circuit.rx(0.1 * (layer + 1) + 0.01 * qubit, qubit)
        for qubit in range(3):
            circuit.cx(qubit, qubit + 1)
    config = FAST.replace(guard=ResourceGuard(max_seconds=0.001))
    return session.job(circuit, MODEL, config=config)


def start_server() -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from repro.engine.service import main; "
            "raise SystemExit(main(['--port', '0', '--workers', '1']))",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert process.stdout is not None
    for _ in range(10):  # skip interpreter warnings until the banner line
        line = process.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return process, match.group(1)
    process.terminate()
    raise RuntimeError("could not parse the gleipnir-serve banner")


def main() -> int:
    process, base_url = start_server()
    try:
        client = Client(base_url)
        for _ in range(50):  # the server socket is up; wait for the batcher
            try:
                capabilities = client.capabilities()
                break
            except Exception:
                time.sleep(0.1)
        else:
            raise RuntimeError("server never answered /v1/capabilities")
        assert capabilities["api"]["version"] == "v1", capabilities

        with AnalysisSession(client=client, config=FAST) as remote:
            jobs = smoke_jobs(remote)
            entries = client.submit(jobs)
            assert entries[0]["fingerprint"] == entries[2]["fingerprint"], "dedupe lost"
            for job, entry in zip(jobs, entries):
                assert entry["fingerprint"] == job.fingerprint(), (
                    f"{job.name}: server fingerprint {entry['fingerprint']} "
                    f"!= client fingerprint {job.fingerprint()}"
                )
            before = client.requests_sent
            pushed = client.wait(entries[0]["fingerprint"], timeout=120)
            assert pushed["status"] == "done", pushed
            assert client.requests_sent - before == 1, "long poll needed >1 request"
            remote_outcomes = remote.analyze_batch(jobs)
            # Every job is done: re-sending the batch twice must give the same
            # answer byte for byte (the repeat skips decoding on the server).
            resent = client.submit(jobs)
            repeated = client.submit(jobs)
            assert canonical_json({"jobs": repeated}) == canonical_json({"jobs": resent}), (
                "a repeated batch answered differently"
            )
            for job, entry in zip(jobs, repeated):
                assert entry["status"] == "done", entry
                assert entry["fingerprint"] == job.fingerprint(), (
                    f"{job.name}: repeat fingerprint {entry['fingerprint']} "
                    f"!= client fingerprint {job.fingerprint()}"
                )

            # The budget holds on the server's engine thread too.
            budgeted = client.submit([budgeted_job(remote)])[0]
            budgeted = client.wait(budgeted["fingerprint"], timeout=120)
            assert budgeted["status"] == "failed", budgeted
            assert budgeted["result"]["status"] == "timeout", budgeted

        with AnalysisSession(config=FAST) as local:
            local_outcomes = local.analyze_batch(smoke_jobs(local))

        remote_bounds = [outcome.bound for outcome in remote_outcomes]
        local_bounds = [outcome.bound for outcome in local_outcomes]
        assert remote_bounds == local_bounds, (
            f"client-vs-server bounds differ: {remote_bounds} != {local_bounds}"
        )

        try:  # structured 404 envelope on the wire
            client.status("deadbeef")
        except JobNotFoundError:
            pass
        else:
            raise AssertionError("unknown fingerprint did not raise JobNotFoundError")

        check_observability(base_url)

        print(
            f"api smoke OK: {len(jobs)} submissions, fingerprints and bounds bit-identical "
            f"({remote_bounds}), long-poll push in 1 request, repeat batch identical, "
            "1 ms budget ends timeout, /v1/healthz + /v1/metrics exposition valid"
        )
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    raise SystemExit(main())
