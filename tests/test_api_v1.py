"""Client ↔ service round trips over a live HTTP server (the /v1 surface).

Covers the versioned wire format end to end: batch submit, long-poll result
push (asserting a completed result costs **one** request — no client-side
polling), capability discovery, structured error envelopes (unknown
fingerprint, malformed payload, oversized batch), the remote
:class:`~repro.api.AnalysisSession` transport, and the unversioned paths
answering the same 404 envelope as any unknown path.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from helpers import RETIRED_CONFIG_KEY, RETIRED_SDP_CONFIG_KEY, RETIRED_TAPE_MEMO_KEY

from repro.api import AnalysisSession, Client
from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.engine.pool import AnalysisEngine
from repro.engine.service import AnalysisService, make_server
from repro.engine.spec import AnalysisJob
from repro.errors import BatchLimitExceeded, EngineError, JobNotFoundError
from repro.noise import NoiseModel

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _job(name: str = "ghz2", *, num_qubits: int = 2) -> AnalysisJob:
    circuit = Circuit(num_qubits, name=name).h(0).cx(0, 1)
    for q in range(2, num_qubits):
        circuit.cx(q - 1, q)
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST)


@pytest.fixture
def server(tmp_path):
    engine = AnalysisEngine(workers=1, store=str(tmp_path / "results.jsonl"))
    service = AnalysisService(engine, batch_window=0.02, max_batch=8, max_submit=4)
    service.start()
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


@pytest.fixture
def client(server):
    base, _service = server
    return Client(base, timeout=30.0)


class TestCapabilities:
    def test_discovery(self, client):
        capabilities = client.capabilities()
        assert capabilities["api"]["version"] == "v1"
        assert capabilities["job_schema_version"] == 1
        assert capabilities["limits"]["max_batch_jobs"] == 4
        assert capabilities["limits"]["max_wait_seconds"] > 0
        assert "submit" in capabilities["endpoints"]
        assert capabilities["engine"]["workers"] == 1


class TestBatchSubmitAndLongPoll:
    def test_submit_then_long_poll_single_request(self, client):
        entries = client.submit([_job(), _job()])
        assert len(entries) == 2
        fingerprint = entries[0]["fingerprint"]
        assert entries[1]["fingerprint"] == fingerprint  # wire-level dedupe

        before = client.requests_sent
        entry = client.wait(fingerprint, timeout=120)
        # Result push: the long poll parks server-side; no client polling.
        assert client.requests_sent - before == 1
        assert entry["status"] == "done"
        assert entry["result"]["error_bound"] > 0

    def test_plain_status_after_completion(self, client):
        fingerprint = client.submit([_job()])[0]["fingerprint"]
        client.wait(fingerprint, timeout=120)
        entry = client.status(fingerprint)
        assert entry["status"] == "done"

    def test_wait_times_out_cleanly(self, client):
        with pytest.raises(JobNotFoundError):
            client.status("0" * 64, wait=0.05)


class TestRemoteSession:
    def test_remote_bit_identical_to_local(self, server):
        base, _service = server
        jobs = [_job(), _job("ghz3", num_qubits=3), _job()]
        with AnalysisSession(remote=base, config=FAST) as remote:
            remote_outcomes = remote.analyze_batch(jobs)
        with AnalysisSession(config=FAST) as local:
            local_outcomes = local.analyze_batch(jobs)
        assert [o.bound for o in remote_outcomes] == [o.bound for o in local_outcomes]
        assert [o.fingerprint for o in remote_outcomes] == [
            o.fingerprint for o in local_outcomes
        ]

    def test_remote_as_completed_streams(self, server):
        base, _service = server
        jobs = [_job(), _job("ghz3", num_qubits=3)]
        with AnalysisSession(remote=base, config=FAST) as remote:
            streamed = dict(remote.as_completed(jobs, timeout=120))
        assert sorted(streamed) == [0, 1]
        assert all(outcome.certified for outcome in streamed.values())

    def test_remote_capabilities_and_derivation_refusal(self, server):
        base, _service = server
        with AnalysisSession(remote=base, config=FAST) as remote:
            assert remote.capabilities()["transport"] == "http"
            with pytest.raises(EngineError):
                remote.analyze(
                    Circuit(2, name="x").h(0), MODEL, derivation=True
                )


class TestErrorEnvelopes:
    def test_unknown_fingerprint_maps_to_job_not_found(self, client):
        with pytest.raises(JobNotFoundError):
            client.status("deadbeef")

    def test_malformed_payload_maps_to_engine_error(self, client):
        with pytest.raises(EngineError) as excinfo:
            client.submit([{"kind": "not_a_job"}])
        assert not isinstance(excinfo.value, JobNotFoundError)

    def test_oversized_batch_maps_to_batch_limit(self, client):
        with pytest.raises(BatchLimitExceeded):
            client.submit([_job()] * 5)  # max_submit fixture limit is 4

    def test_rejected_batch_executes_nothing(self, server, client):
        _base, service = server
        with pytest.raises(EngineError):
            client.submit([_job("victim"), {"kind": "not_a_job"}])
        assert service.stats()["jobs"] == {}

    def test_envelope_shape_on_the_wire(self, server):
        base, _service = server
        request = urllib.request.Request(
            base + "/v1/batches",
            data=json.dumps({"jobs": "nope"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "EngineError"
        assert body["error"]["status"] == 400
        assert body["error"]["repro_error"] is True

    @pytest.mark.parametrize(
        "key, value",
        [(RETIRED_CONFIG_KEY, 2), (RETIRED_TAPE_MEMO_KEY, True)],
        ids=["thread-split", "prefix-memo"],
    )
    def test_retired_config_key_is_a_structured_400(self, server, key, value):
        """A job config carrying a retired top-level knob."""
        base, service = server
        payload = _job().to_json_dict()
        payload["config"][key] = value
        request = urllib.request.Request(
            base + "/v1/batches",
            data=json.dumps({"jobs": [payload]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "EngineError"
        assert "malformed config payload" in error["message"]
        assert service.stats()["jobs"] == {}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mode", "auto", "invalid config payload"),
            ("max_iterations", -5, "invalid config payload"),
            (RETIRED_SDP_CONFIG_KEY, 16, "malformed config payload"),
        ],
    )
    def test_bad_sdp_config_is_a_structured_400(self, server, field, value, message):
        """Out-of-range and retired SDP fields are refused at submit."""
        base, service = server
        payload = _job().to_json_dict()
        payload["config"]["sdp"][field] = value
        request = urllib.request.Request(
            base + "/v1/batches",
            data=json.dumps({"jobs": [payload]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "EngineError"
        assert error["repro_error"] is True
        assert message in error["message"]
        assert service.stats()["jobs"] == {}

    def test_unreachable_server_fails_fast(self):
        client = Client("http://127.0.0.1:9")  # port 9: nothing listens
        with pytest.raises(EngineError, match="cannot reach"):
            client.capabilities()
        assert client.requests_sent == 1

    def test_invalid_wait_parameter(self, server):
        base, _service = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/v1/jobs/abc?wait=banana")
        assert excinfo.value.code == 400


class TestRetiredSurface:
    """The unversioned endpoints are gone: they answer the 404 envelope."""

    @pytest.mark.parametrize(
        "method, path",
        [
            ("POST", "/jobs"),
            ("GET", "/jobs/" + "a" * 64),
            ("GET", "/healthz"),
        ],
    )
    def test_unversioned_endpoints_are_gone(self, server, method, path):
        base, _service = server
        request = urllib.request.Request(
            base + path,
            data=json.dumps(_job().to_json_dict()).encode() if method == "POST" else None,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        response = excinfo.value
        assert response.code == 404
        envelope = json.loads(response.read())["error"]
        assert envelope["type"] == "EngineError"
        assert envelope["status"] == 404


class TestServiceWait:
    def test_wait_uses_condition_not_polling(self, server):
        """wait_for parks on the condition variable and is woken by results."""
        _base, service = server
        entry = service.submit_payload(_job().to_json_dict())
        woken = service.wait_for(entry["fingerprint"], timeout=120)
        assert woken is not None and woken["status"] == "done"
        # Unknown fingerprints return None instead of spinning.
        assert service.wait_for("f" * 64, timeout=0.05) is None

    def test_wait_any(self, server):
        _base, service = server
        first = service.submit_payload(_job().to_json_dict())
        second = service.submit_payload(_job("ghz3", num_qubits=3).to_json_dict())
        pending = {first["fingerprint"], second["fingerprint"]}
        seen = set()
        while pending:
            fingerprint = service.wait_any(pending, timeout=120)
            assert fingerprint in pending
            pending.discard(fingerprint)
            seen.add(fingerprint)
        assert seen == {first["fingerprint"], second["fingerprint"]}


class TestReviewRegressions:
    def test_non_finite_wait_is_rejected(self, server):
        base, _service = server
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + f"/v1/jobs/abc?wait={bad}")
            assert excinfo.value.code == 400

    def test_stop_releases_long_poll_waiters(self, tmp_path):
        import threading as _threading
        import time as _time

        engine = AnalysisEngine(workers=1)
        service = AnalysisService(engine, batch_window=0.02)
        # Deliberately NOT started: the job can never finish, so a waiter
        # parks until stop() releases it.
        entry = service.submit_payload(
            AnalysisJob.from_circuit(
                Circuit(2, name="parked").h(0).cx(0, 1), MODEL, config=FAST
            ).to_json_dict()
        )
        released = []
        waiter = _threading.Thread(
            target=lambda: released.append(
                service.wait_for(entry["fingerprint"], timeout=30.0)
            )
        )
        start = _time.monotonic()
        waiter.start()
        _time.sleep(0.1)
        service.stop()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert _time.monotonic() - start < 10.0  # released well before timeout
        assert released and released[0]["status"] == "queued"
