"""Remote A/B comparison smoke: drive a live ``gleipnir-serve`` with
:class:`~repro.engine.spec.ComparisonJob` submissions.

Used by the CI engine-smoke job (and handy locally)::

    PYTHONPATH=src python scripts/metric_smoke.py

The script

1. launches ``gleipnir-serve`` as a real subprocess on an ephemeral port,
2. discovers the metric registry via ``GET /v1/capabilities`` and asserts
   the comparison job kind plus the program-level ``bound_drift`` metric are
   advertised,
3. submits a noise-model A/B comparison and a channel-pair diamond-norm
   comparison through :class:`repro.api.Client` / a remote
   :class:`repro.api.AnalysisSession`,
4. runs the identical comparisons through an in-process local session, and
5. asserts the two surfaces return **bit-identical** drift values and side
   bounds, and that the ``repro_metric_jobs_total`` counter moved on the
   server.

Exit code 0 means comparison jobs travel the ``/v1`` wire (serialization,
fingerprinting, worker sharding, result push) without perturbing a single bit
of the arithmetic.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import AnalysisConfig, Circuit, NoiseModel  # noqa: E402
from repro.api import AnalysisSession, Client  # noqa: E402
from repro.noise.channels import bit_flip  # noqa: E402

FAST = AnalysisConfig(mps_width=4)


def smoke_comparisons(session: AnalysisSession) -> list:
    ghz2 = Circuit(2, name="ghz2").h(0).cx(0, 1)
    return [
        session.comparison_job(
            ghz2,
            NoiseModel.uniform_bit_flip(1e-3),
            NoiseModel.uniform_bit_flip(2e-3),
            metric="bound_drift",
            config=FAST,
        ),
        session.comparison_job(bit_flip(1e-3), bit_flip(2e-3), metric="diamond_norm"),
    ]


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


def check_capabilities(capabilities: dict) -> None:
    """Capability discovery: job kinds, the metric registry, storage schemes."""
    assert "comparison_job" in capabilities["job_kinds"], capabilities
    metrics = {entry["name"]: entry for entry in capabilities["metrics"]}
    assert len(metrics) >= 3, f"capabilities lists {len(metrics)} metrics"
    assert "bound_drift" in metrics, sorted(metrics)
    assert metrics["diamond_norm"]["tier"] == "certified", metrics["diamond_norm"]
    assert metrics["bound_drift"]["kind"] == "program", metrics["bound_drift"]
    assert "jsonl" in capabilities["storage_schemes"], capabilities


def check_metric_counter(base_url: str) -> None:
    """The A/B batch must have moved ``repro_metric_jobs_total``."""
    import urllib.request

    with urllib.request.urlopen(f"{base_url}/v1/metrics", timeout=10) as response:
        body = response.read().decode("utf-8")
    samples = [
        line
        for line in body.splitlines()
        if line.startswith("repro_metric_jobs_total{")
    ]
    assert samples, "no repro_metric_jobs_total samples in /v1/metrics"
    assert any('metric="bound_drift"' in line for line in samples), samples
    assert any(float(line.rsplit(" ", 1)[1]) > 0 for line in samples), samples


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
        check_capabilities(capabilities)

        with AnalysisSession(client=client, config=FAST) as remote:
            remote_outcomes = remote.compare_batch(smoke_comparisons(remote))
        with AnalysisSession(config=FAST) as local:
            local_outcomes = local.compare_batch(smoke_comparisons(local))

        for outcome in remote_outcomes + local_outcomes:
            outcome.raise_for_status()
        remote_values = [
            (o.metric, o.bound, o.value_a, o.value_b) for o in remote_outcomes
        ]
        local_values = [
            (o.metric, o.bound, o.value_a, o.value_b) for o in local_outcomes
        ]
        assert remote_values == local_values, (
            f"client-vs-server comparisons differ: {remote_values} != {local_values}"
        )
        assert remote_outcomes[0].metric_tier == "heuristic", remote_outcomes[0]
        assert remote_outcomes[1].metric_tier == "certified", remote_outcomes[1]

        check_metric_counter(base_url)

        print(
            f"metric smoke OK: {len(remote_outcomes)} comparisons, values "
            f"bit-identical ({[v[1] for v in remote_values]}), "
            f"{len(capabilities['metrics'])} metrics advertised, "
            "repro_metric_jobs_total moved"
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
