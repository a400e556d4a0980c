"""The asyncio serving surface under load: parked coroutines, WebSocket push.

The headline claim of the async front end is capacity: one process holds
hundreds of concurrently parked ``?wait=`` long polls (each a coroutine, not
a thread) and releases every one of them with the same bit-identical result
when the job lands.  The test makes that deterministic by *not* starting the
service's batcher until a probe on the parked-waiter gauge proves all
waiters are actually parked — no timing assumptions, no sleep-polling.

The WebSocket tests speak raw RFC 6455 (masked client frames, stdlib only)
against ``GET /v1/stream``: handshake digest, subscribe→push, submit→push,
ping/pong, and the unknown-op error envelope.
"""

import base64
import hashlib
import json
import resource
import socket
import threading

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

#: The capacity bar from the acceptance criteria.
WAITERS = 500


def _job(name: str = "ghz2", *, num_qubits: int = 2) -> AnalysisJob:
    circuit = Circuit(num_qubits, name=name).h(0).cx(0, 1)
    for q in range(2, num_qubits):
        circuit.cx(q - 1, q)
    return AnalysisJob.from_circuit(circuit, MODEL, config=FAST)


def _raise_fd_limit(needed: int) -> None:
    """Lift the soft RLIMIT_NOFILE: 500 sockets on each side is > 1024 fds."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))


@pytest.fixture
def cold_server(tmp_path):
    """A server whose batcher is NOT running: submissions stay queued."""
    engine = AnalysisEngine(workers=1, store=str(tmp_path / "results.jsonl"))
    service = AnalysisService(engine, batch_window=0.02, max_batch=8)
    httpd = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1], service
    httpd.shutdown()
    thread.join(timeout=10)
    httpd.server_close()
    service.stop()


class ParkedProbe:
    """Stands in for the parked-waiter gauge and counts parks from zero.

    Every ``inc``/``dec`` is forwarded to the real gauge and notifies a
    condition, so a test blocks until the server has parked N coroutines
    instead of polling a process-global value it would have to baseline.
    """

    def __init__(self, gauge):
        self._gauge = gauge
        self.parked = 0
        self._changed = threading.Condition()

    def inc(self, amount: float = 1.0) -> None:
        self._gauge.inc(amount)
        with self._changed:
            self.parked += 1
            self._changed.notify_all()

    def dec(self, amount: float = 1.0) -> None:
        self._gauge.dec(amount)
        with self._changed:
            self.parked -= 1
            self._changed.notify_all()

    def wait_parked(self, count: int, timeout: float = 120.0) -> bool:
        with self._changed:
            return self._changed.wait_for(lambda: self.parked >= count, timeout)


@pytest.fixture
def parked(monkeypatch):
    """A :class:`ParkedProbe` installed before any request is sent."""
    probe = ParkedProbe(aserve._parked_gauge())
    monkeypatch.setattr(aserve, "_parked_gauge", lambda: probe)
    return probe


@pytest.fixture
def server(cold_server):
    port, service = cold_server
    service.start()
    return port, service


def _http_response(sock: socket.socket) -> tuple[int, dict]:
    """Read one ``Connection: close`` response off a raw socket."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


class TestParkedLongPolls:
    def test_500_concurrent_parked_waiters_one_process(self, cold_server, parked):
        port, service = cold_server
        _raise_fd_limit(4096)
        entry = service.submit_payload(_job().to_json_dict())
        fingerprint = entry["fingerprint"]
        assert entry["status"] == "queued"  # batcher not running yet

        request = (
            f"GET /v1/jobs/{fingerprint}?wait=60 HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\nConnection: close\r\n\r\n"
        ).encode()
        sockets = []
        try:
            for _ in range(WAITERS):
                sock = socket.create_connection(("127.0.0.1", port), timeout=120)
                sock.settimeout(120)
                sock.sendall(request)
                sockets.append(sock)
            # Deterministic barrier: every waiter visibly parked at once.
            assert parked.wait_parked(WAITERS)

            service.start()  # run the job; the batcher wakes all waiters
            answers = [_http_response(sock) for sock in sockets]
        finally:
            for sock in sockets:
                sock.close()
        assert len(answers) == WAITERS
        bounds = set()
        for status, payload in answers:
            assert status == 200
            assert payload["status"] == "done"
            bounds.add(payload["result"]["error_bound"])
        assert len(bounds) == 1  # every waiter saw the same bit-identical result
        assert parked.parked == 0  # everything unparked

    def test_stop_releases_parked_waiters(self, cold_server, parked):
        port, service = cold_server
        entry = service.submit_payload(_job().to_json_dict())
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        sock.settimeout(60)
        sock.sendall(
            (
                f"GET /v1/jobs/{entry['fingerprint']}?wait=60 HTTP/1.1\r\n"
                f"Host: 127.0.0.1\r\nConnection: close\r\n\r\n"
            ).encode()
        )
        assert parked.wait_parked(1)
        service.stop()  # no batcher ran: waiter must still be released now
        status, payload = _http_response(sock)
        sock.close()
        assert status == 200
        assert payload["status"] == "queued"  # current view, not a timeout


# -- WebSocket plumbing ------------------------------------------------------

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class WsClient:
    """A minimal RFC 6455 client: masked frames over a blocking socket."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        key = base64.b64encode(b"0123456789abcdef").decode()
        self.sock.sendall(
            (
                "GET /v1/stream HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        head = b""
        while b"\r\n\r\n" not in head:
            head += self.sock.recv(4096)
        assert b"101" in head.split(b"\r\n", 1)[0]
        expected = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode()).digest()
        ).decode()
        assert f"Sec-WebSocket-Accept: {expected}".encode() in head
        self._buffer = head.split(b"\r\n\r\n", 1)[1]

    def _read_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("WebSocket closed")
            self._buffer += chunk
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def send(self, opcode: int, payload: bytes) -> None:
        mask = b"\xaa\xbb\xcc\xdd"
        header = bytearray([0x80 | opcode])
        if len(payload) < 126:
            header.append(0x80 | len(payload))
        else:
            header.append(0x80 | 126)
            header += len(payload).to_bytes(2, "big")
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        self.sock.sendall(bytes(header) + mask + masked)

    def send_json(self, message: dict) -> None:
        self.send(0x1, json.dumps(message).encode())

    def recv_frame(self) -> tuple[int, bytes]:
        first = self._read_exact(2)
        opcode = first[0] & 0x0F
        length = first[1] & 0x7F
        if length == 126:
            length = int.from_bytes(self._read_exact(2), "big")
        elif length == 127:
            length = int.from_bytes(self._read_exact(8), "big")
        return opcode, self._read_exact(length)

    def recv_json(self) -> dict:
        opcode, payload = self.recv_frame()
        assert opcode == 0x1, f"expected text frame, got opcode {opcode}"
        return json.loads(payload)

    def close(self) -> None:
        self.sock.close()


class TestWebSocketStream:
    def test_submit_pushes_results_for_multi_job_batch(self, server):
        port, _service = server
        ws = WsClient(port)
        try:
            jobs = [_job().to_json_dict(), _job("ghz3", num_qubits=3).to_json_dict()]
            ws.send_json({"op": "submit", "jobs": jobs})
            submitted = ws.recv_json()
            assert submitted["type"] == "submitted"
            fingerprints = {entry["fingerprint"] for entry in submitted["jobs"]}
            assert len(fingerprints) == 2

            seen = {}
            while len(seen) < 2:
                event = ws.recv_json()
                assert event["type"] == "result"
                job = event["job"]
                assert job["status"] == "done"
                assert job["result"]["error_bound"] > 0
                assert job["fingerprint"] not in seen  # at most one push per job
                seen[job["fingerprint"]] = job
            assert set(seen) == fingerprints
        finally:
            ws.close()

    def test_subscribe_before_submit_and_warm_resubmit(self, server):
        port, service = server
        fingerprint = _job().fingerprint()
        ws = WsClient(port)
        try:
            # Subscribing to a never-seen fingerprint is an error envelope...
            ws.send_json({"op": "subscribe", "fingerprints": [fingerprint]})
            event = ws.recv_json()
            assert event["type"] == "error"
            assert event["error"]["error"]["type"] == "JobNotFoundError"

            # ...but once submitted (even out-of-band), subscribe pushes the
            # result — including instantly for already-terminal jobs.
            service.submit_payload(_job().to_json_dict())
            service.wait(fingerprint, timeout=120)
            ws.send_json({"op": "subscribe", "fingerprints": [fingerprint]})
            event = ws.recv_json()
            assert event["type"] == "result"
            assert event["job"]["fingerprint"] == fingerprint
            assert event["job"]["status"] == "done"
        finally:
            ws.close()

    def test_ping_pong_and_unknown_op(self, server):
        port, _service = server
        ws = WsClient(port)
        try:
            ws.send(0x9, b"marco")  # ping
            opcode, payload = ws.recv_frame()
            assert (opcode, payload) == (0xA, b"marco")
            ws.send_json({"op": "frobnicate"})
            event = ws.recv_json()
            assert event["type"] == "error"
            assert "frobnicate" in event["error"]["error"]["message"]
        finally:
            ws.close()

    def test_close_handshake(self, server):
        port, _service = server
        ws = WsClient(port)
        ws.send(0x8, b"")  # close
        opcode, _payload = ws.recv_frame()
        assert opcode == 0x8  # echoed close
        ws.close()
