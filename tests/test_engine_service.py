"""Tests for the serving front-end: submission, batching, polling, HTTP."""

import asyncio
import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.circuits import Circuit
from repro.config import AnalysisConfig, SDPConfig
from repro.engine import aserve
from repro.engine.pool import AnalysisEngine
from repro.engine.service import AnalysisService, make_server
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def _payload(name: str = "ghz2", *, num_qubits: int = 2) -> dict:
    """A job payload; ``num_qubits`` varies the fingerprint, ``name`` does not."""
    circuit = Circuit(num_qubits, name=name).h(0).cx(0, 1)
    for q in range(2, num_qubits):
        circuit.cx(q - 1, q)
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST).to_json_dict()


@pytest.fixture
def service(tmp_path):
    engine = AnalysisEngine(workers=1, store=str(tmp_path / "results.jsonl"))
    service = AnalysisService(engine, batch_window=0.02, max_batch=8)
    service.start()
    yield service
    service.stop()


@pytest.fixture
def server(service):
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    server.server_close()


def _post(base: str, path: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestAnalysisService:
    def test_submit_execute_poll(self, service):
        entry = service.submit_payload(_payload())
        assert entry["status"] == "queued"
        final = service.wait(entry["fingerprint"], timeout=60)
        assert final["status"] == "done"
        assert final["result"]["error_bound"] > 0

    def test_duplicate_submissions_coalesce(self, service):
        first = service.submit_payload(_payload())
        second = service.submit_payload(_payload())
        assert first["fingerprint"] == second["fingerprint"]
        service.wait(first["fingerprint"], timeout=60)
        assert service.engine.store is not None
        # One execution: the store holds exactly one record for the pair.
        assert len(service.engine.store.results()) == 1

    def test_completed_store_answers_resubmission(self, service):
        entry = service.submit_payload(_payload())
        service.wait(entry["fingerprint"], timeout=60)
        service._status.clear()  # fresh service view, warm store
        answered = service.submit_payload(_payload())
        assert answered["status"] == "done"
        assert answered["result"]["error_bound"] > 0

    def test_malformed_payload_raises(self, service):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            service.submit_payload({"kind": "not_a_job"})

    def test_finished_entries_evicted_but_store_still_answers(self, service):
        service.max_tracked = 1
        first = service.submit_payload(_payload("one", num_qubits=2))
        service.wait(first["fingerprint"], timeout=60)
        second = service.submit_payload(_payload("two", num_qubits=3))
        assert second["fingerprint"] != first["fingerprint"]
        service.wait(second["fingerprint"], timeout=60)
        # The cap evicted the older finished entry from memory…
        assert len(service._status) <= 1
        # …but its status is still answerable via the result store.
        entry = service.status(first["fingerprint"])
        assert entry is not None and entry["status"] == "done"
        assert entry["result"]["error_bound"] > 0


class TestHTTPAPI:
    def test_submit_and_poll_over_http(self, server):
        base, service = server
        status, body = _post(base, "/v1/batches", {"jobs": [_payload(), _payload()]})
        assert status == 202
        assert len(body["jobs"]) == 2
        fingerprint = body["jobs"][0]["fingerprint"]
        assert body["jobs"][1]["fingerprint"] == fingerprint

        service.wait(fingerprint, timeout=60)
        status, entry = _get(base, f"/v1/jobs/{fingerprint}")
        assert status == 200
        assert entry["status"] == "done"
        assert entry["result"]["error_bound"] > 0

    def test_healthz(self, server):
        base, _ = server
        status, body = _get(base, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "workers" in body

    def test_error_paths(self, server):
        base, _ = server
        assert _get(base, "/v1/jobs/deadbeef")[0] == 404
        assert _get(base, "/v1/nope")[0] == 404
        assert _post(base, "/v1/batches", {"kind": "not_a_job"})[0] == 400
        assert _post(base, "/v1/batches", {"jobs": []})[0] == 400
        status, _body = _post(base, "/v1/nope", _payload())
        assert status == 404

    def test_retired_unversioned_surface_is_gone(self, server):
        base, _ = server
        for status, body in (
            _post(base, "/jobs", {"jobs": [_payload()]}),
            _get(base, "/jobs/deadbeef"),
            _get(base, "/healthz"),
        ):
            assert status == 404
            assert body["error"]["type"] == "EngineError"

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"POST /v1/batches HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /v1/batches HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST /v1/batches HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", 413),
        ],
        ids=["content-length-abc", "content-length-negative", "garbage-line", "oversize"],
    )
    def test_malformed_request_gets_structured_error(
        self, server, caplog, request_bytes, status
    ):
        base, _ = server
        port = int(base.rsplit(":", 1)[1])
        caplog.set_level(logging.ERROR, logger="asyncio")
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(request_bytes)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "EngineError"
        assert envelope["status"] == status
        assert not [record for record in caplog.records if record.name == "asyncio"]

    def test_overlong_header_line_is_a_bad_request(self):
        async def read():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * 100 + b"\r\n\r\n")
            reader.feed_eof()
            return await aserve._read_http_request(reader)

        with pytest.raises(aserve._BadRequest) as excinfo:
            asyncio.run(read())
        assert excinfo.value.status == 400

    def test_malformed_matrix_payload_returns_400(self, server):
        base, _ = server
        payload = _payload()
        # Ragged embedded matrix: must be a clean 400, not a handler crash.
        payload["program"]["parts"][0]["gate"] = {
            "name": "broken",
            "params": [],
            "matrix": [[[1, 0], [0, 0]], [[0, 0]]],
        }
        status, body = _post(base, "/v1/batches", {"jobs": [payload]})
        assert status == 400
        assert "error" in body

    def test_rejected_batch_executes_nothing(self, server):
        base, service = server
        status, _body = _post(
            base, "/v1/batches", {"jobs": [_payload("victim"), {"kind": "not_a_job"}]}
        )
        assert status == 400
        # All-or-nothing: the valid leading job must not have been enqueued.
        assert service.stats()["jobs"] == {}
        assert service.stats()["queue_depth"] == 0
