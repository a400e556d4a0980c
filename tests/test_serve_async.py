"""The asyncio serving surface under load: parked long-poll coroutines.

The headline claim of the async front end is capacity: one process holds
hundreds of concurrently parked ``?wait=`` long polls (each a coroutine, not
a thread) and releases every one of them with the same bit-identical result
when the job lands.  The test makes that deterministic by *not* starting the
service's batcher until a probe on the parked-waiter gauge proves all
waiters are actually parked — no timing assumptions, no sleep-polling.
"""

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

