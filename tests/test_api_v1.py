"""Client ↔ service round trips over a live HTTP server (the /v1 surface).

Covers the versioned wire format end to end: batch submit, long-poll result
push (asserting a completed result costs **one** request — no client-side
polling), capability discovery, structured error envelopes (unknown
fingerprint, malformed payload, oversized batch), the remote
:class:`~repro.api.AnalysisSession` transport, the unversioned paths
answering the same 404 envelope as any unknown path, and content-addressed
repeats: the canonical wire body and the server's memo of accepted bodies.
"""

import contextlib
import json
from hashlib import sha256
import threading
import urllib.error
import urllib.request

import pytest

from helpers import (
    MALFORMED_JOB_FIELDS,
    RETIRED_CACHE_SWITCH_KEY,
    RETIRED_CONFIG_KEY,
    RETIRED_DISK_CACHE_KEY,
    RETIRED_DOMINANCE_KEY,
    RETIRED_JOB_KIND,
    RETIRED_SDP_CONFIG_KEY,
    RETIRED_TAPE_MEMO_KEY,
)

from repro.api import AnalysisSession, Client
from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.engine import service as service_module
from repro.engine.pool import AnalysisEngine
from repro.engine.service import AnalysisService, make_server
from repro.engine.spec import AnalysisJob, canonical_json
from repro.errors import BatchLimitExceeded, EngineError, JobNotFoundError
from repro.noise import NoiseModel, bit_flip

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _job(name: str = "ghz2", *, num_qubits: int = 2) -> AnalysisJob:
    circuit = Circuit(num_qubits, name=name).h(0).cx(0, 1)
    for q in range(2, num_qubits):
        circuit.cx(q - 1, q)
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST)


def _post_batch_error(base: str, payloads: list) -> tuple[int, dict]:
    """POST ``payloads`` as one batch that must fail; its status and envelope."""
    request = urllib.request.Request(
        base + "/v1/batches",
        data=json.dumps({"jobs": payloads}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    return excinfo.value.code, json.loads(excinfo.value.read())["error"]


def _post_batch(base: str, body: bytes) -> tuple[int, dict]:
    """POST raw ``body`` to ``/v1/batches``: the status and the JSON answer."""
    request = urllib.request.Request(
        base + "/v1/batches", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _wire_body(jobs: list) -> bytes:
    return canonical_json({"jobs": [job.to_json_dict() for job in jobs]}).encode()


@contextlib.contextmanager
def _serving(service: AnalysisService):
    """Serve a started ``service`` on an ephemeral port: (base URL, server)."""
    service.start()
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.stop()


@pytest.fixture
def server(tmp_path):
    engine = AnalysisEngine(workers=1, outcomes=str(tmp_path / "outcomes.jsonl"))
    service = AnalysisService(engine, max_submit=4)
    with _serving(service) as (base, _httpd):
        yield base, service


@pytest.fixture
def decodes(monkeypatch) -> list:
    """Every job payload the service decodes, in order."""
    calls = []
    real = service_module.job_from_json_dict

    def spy(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(service_module, "job_from_json_dict", spy)
    return calls


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
            ("mode", "fast", "invalid config payload"),
            ("cache_decimals", 4, "invalid config payload"),
            ("max_iterations", -5, "invalid config payload"),
            (RETIRED_SDP_CONFIG_KEY, 16, "malformed config payload"),
            (RETIRED_DOMINANCE_KEY, True, "malformed config payload"),
            (RETIRED_CACHE_SWITCH_KEY, False, "malformed config payload"),
            (RETIRED_DISK_CACHE_KEY, ".bounds", "malformed config payload"),
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

    def test_disagreeing_noise_ordering_is_a_structured_400(self, server):
        """A config whose retired ``noise_after_gate`` contradicts the job's
        noise model is refused."""
        base, service = server
        payload = _job().to_json_dict()
        payload["config"]["noise_after_gate"] = not MODEL.noise_after_gate
        status, error = _post_batch_error(base, [payload])
        assert status == 400
        assert error["type"] == "EngineError"
        assert "invalid config payload: noise_after_gate" in error["message"]
        assert service.stats()["jobs"] == {}

    @pytest.mark.parametrize("field, value", MALFORMED_JOB_FIELDS)
    def test_malformed_job_field_is_a_structured_400(self, server, field, value):
        """A bad field next to a valid job: 400, and neither job is enqueued."""
        base, service = server
        bad = {**_job("victim").to_json_dict(), field: value}
        status, error = _post_batch_error(base, [_job().to_json_dict(), bad])
        assert status == 400
        assert error["type"] == "EngineError"
        assert error["repro_error"] is True
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


    def test_comparison_job_kind_is_a_structured_400(self, server):
        """The removed comparison kind is refused, and nothing runs."""
        base, service = server
        payload = {
            "version": 1,
            "kind": RETIRED_JOB_KIND,
            "name": "diamond_norm(bit_flip)",
            "metric": "diamond_norm",
            "mode": "channels",
            "config": _job().to_json_dict()["config"],
            "channel_a": bit_flip(1e-3).to_json_dict(),
            "channel_b": bit_flip(2e-3).to_json_dict(),
            "initial_bits": None,
            "num_qubits": None,
        }
        status, error = _post_batch_error(base, [payload])
        assert status == 400
        assert error["type"] == "EngineError"
        assert "unknown job kind" in error["message"]
        assert service.stats()["jobs"] == {}
        assert service.stats()["batches_run"] == 0


class TestServiceWait:
    def test_wait_uses_condition_not_polling(self, server):
        """wait_for parks on the condition variable and is woken by results."""
        _base, service = server
        entry = service.submit_payload(_job().to_json_dict())
        woken = service.wait_for(entry["fingerprint"], timeout=120)
        assert woken is not None and woken["status"] == "done"
        # Unknown fingerprints return None instead of spinning.
        assert service.wait_for("f" * 64, timeout=0.05) is None


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
        service = AnalysisService(engine)
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


class TestWireEncoding:
    @pytest.fixture
    def bodies(self, monkeypatch) -> list:
        """The request bodies every :class:`Client` sends."""
        sent = []
        real = Client._request

        def spy(self, method, path, body=None, **kwargs):
            sent.append(body)
            return real(self, method, path, body, **kwargs)

        monkeypatch.setattr(Client, "_request", spy)
        return sent

    def test_submit_sends_each_job_canonical_text(self, client, bodies):
        job = _job()
        entry = client.submit([job])[0]
        assert bodies == [b'{"jobs":[' + job.to_json().encode() + b"]}"]
        assert entry["fingerprint"] == job.fingerprint()

    def test_raw_dict_payload_still_works(self, client, bodies):
        job = _job()
        entry = client.submit([job.to_json_dict()])[0]
        assert entry["fingerprint"] == job.fingerprint()
        assert bodies == [_wire_body([job])]


class TestRepeatBodies:
    """A byte-identical body the server accepted before skips decoding."""

    def test_repeat_is_answered_without_decoding(self, server, decodes):
        base, service = server
        job = _job()
        service.wait(service.submit_job(job)["fingerprint"], timeout=120)
        body = _wire_body([job, _job(), job])
        status, first = _post_batch(base, body)
        assert status == 202 and len(decodes) == 3
        assert [entry["status"] for entry in first["jobs"]] == ["done"] * 3
        del decodes[:]
        assert _post_batch(base, body) == (202, first)
        assert decodes == []

    @pytest.mark.parametrize("field, value", MALFORMED_JOB_FIELDS)
    def test_rejected_body_gets_the_same_400_again(self, server, field, value):
        base, service = server
        bad = {**_job("victim").to_json_dict(), field: value}
        body = canonical_json({"jobs": [_job().to_json_dict(), bad]}).encode()
        first = _post_batch(base, body)
        assert first[0] == 400
        assert _post_batch(base, body) == first
        assert service.stats()["jobs"] == {}

    def test_oversized_body_gets_the_same_413_again(self, server):
        base, service = server
        body = _wire_body([_job()] * 5)  # max_submit fixture limit is 4
        first = _post_batch(base, body)
        assert first[0] == 413 and first[1]["error"]["type"] == "BatchLimitExceeded"
        assert _post_batch(base, body) == first
        assert service.stats()["jobs"] == {}

    def test_failed_job_is_decoded_and_enqueued_again(self, server, decodes, monkeypatch):
        base, service = server
        real_stream = service.engine.stream

        def fail_once(jobs, **kwargs):
            monkeypatch.setattr(service.engine, "stream", real_stream)
            raise RuntimeError("injected engine failure")

        monkeypatch.setattr(service.engine, "stream", fail_once)
        body = _wire_body([_job()])
        fingerprint = _post_batch(base, body)[1]["jobs"][0]["fingerprint"]
        assert service.wait(fingerprint, timeout=120)["status"] == "failed"
        del decodes[:]
        status, answer = _post_batch(base, body)
        assert status == 202 and len(decodes) == 1
        assert answer["jobs"][0]["status"] == "queued"
        assert service.wait(fingerprint, timeout=120)["status"] == "done"

    def test_evicted_job_without_a_store_runs_again(self, decodes):
        service = AnalysisService(AnalysisEngine(workers=1), max_tracked=2)
        with _serving(service) as (base, httpd):
            first = _wire_body([_job()])
            fingerprint = _post_batch(base, first)[1]["jobs"][0]["fingerprint"]
            service.wait(fingerprint, timeout=120)
            for job in (_job("ghz3", num_qubits=3), _job("ghz4", num_qubits=4)):
                service.wait(service.submit_job(job)["fingerprint"], timeout=120)
            assert service.stats()["jobs"] == {"done": 2}  # the first job is evicted
            assert list(httpd._bodies) == [sha256(first).digest()]
            batches = service.batches_run
            del decodes[:]
            status, answer = _post_batch(base, first)
            assert status == 202 and len(decodes) == 1
            assert answer["jobs"][0]["status"] == "queued"
            assert service.wait(fingerprint, timeout=120)["status"] == "done"
            assert service.batches_run == batches + 1

    def test_evicted_job_in_the_result_store_needs_no_decoding(self, tmp_path, decodes):
        engine = AnalysisEngine(workers=1, outcomes=str(tmp_path / "outcomes.jsonl"))
        service = AnalysisService(engine, max_tracked=2)
        with _serving(service) as (base, httpd):
            first = _wire_body([_job()])
            fingerprint = _post_batch(base, first)[1]["jobs"][0]["fingerprint"]
            done = service.wait(fingerprint, timeout=120)
            # Submitted in-process, two more jobs evict the first job's
            # status entry but leave the body memo alone.
            for job in (_job("ghz3", num_qubits=3), _job("ghz4", num_qubits=4)):
                service.wait(service.submit_job(job)["fingerprint"], timeout=120)
            assert service.stats()["jobs"] == {"done": 2}  # the first job is evicted
            assert list(httpd._bodies) == [sha256(first).digest()]
            batches = service.batches_run
            del decodes[:]
            status, answer = _post_batch(base, first)
            assert status == 202 and decodes == []
            assert answer["jobs"] == [done]
            assert service.batches_run == batches

    def test_memo_holds_at_most_max_tracked_jobs(self):
        service = AnalysisService(AnalysisEngine(workers=1), max_tracked=2)
        with _serving(service) as (base, httpd):
            jobs = [_job(f"ghz{qubits}", num_qubits=qubits) for qubits in range(2, 6)]
            bodies = [_wire_body([job]) for job in jobs]
            for body in bodies:
                assert _post_batch(base, body)[0] == 202
                assert len(httpd._bodies) <= 2
            assert list(httpd._bodies) == [sha256(body).digest() for body in bodies[2:]]
            pair = _wire_body(jobs[:2])
            assert _post_batch(base, pair)[0] == 202
            assert list(httpd._bodies) == [sha256(pair).digest()]
