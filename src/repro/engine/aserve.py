"""The asyncio serving surface: one event loop, thousands of parked waiters.

The threaded ``BaseHTTPRequestHandler`` front end spent one OS thread per
parked long poll, which capped one server at a few hundred concurrent
``?wait=`` requests.  :class:`AsyncAnalysisServer` replaces it with a single
``asyncio.start_server`` loop (stdlib only — no new dependencies): a parked
waiter is a coroutine awaiting a future, so holding 500+ of them costs
kilobytes, not megabytes of stack.

The engine side stays threaded — batches still run under the service's
batcher thread and ``threading.Condition`` — so the bridge is explicit:
the server registers one result listener with
:meth:`~repro.engine.service.AnalysisService.add_result_listener`, and every
terminal transition crosses into the loop via
``loop.call_soon_threadsafe``, which resolves the parked futures for the
finished fingerprints.  No polling on either side.

Surface compatibility: the class exposes ``server_address``,
``serve_forever()``, ``shutdown()`` and ``server_close()`` with the
semantics of ``socketserver`` — ``serve_forever`` runs the loop in the
calling thread, ``shutdown`` stops it from any thread, ``server_close``
releases the socket — so every existing fixture and script drives it
unchanged.

A request the server cannot parse (a garbage request line, a bad or negative
``Content-Length``, an oversize body) gets a 400 or 413 envelope and the
connection is closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
import time
from urllib.parse import parse_qs, urlparse

from ..errors import (
    BatchLimitExceeded,
    EngineError,
    JobNotFoundError,
    ReproError,
    error_envelope,
)
from ..obs import metrics as obs_metrics

__all__ = ["AsyncAnalysisServer"]

#: Reason phrases for the status codes this surface emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Largest request body accepted (a 1024-job batch is well under this).
_MAX_BODY_BYTES = 64 * 1024 * 1024


def _parked_gauge():
    return obs_metrics.gauge(
        "repro_async_parked_waiters",
        "Long polls parked on the asyncio surface awaiting a result.",
    )


def _route_label(path: str, api_version: str) -> str:
    """Low-cardinality endpoint label for the latency histograms."""
    prefix = f"/{api_version}"
    if path.startswith(prefix):
        sub = path[len(prefix):]
        if sub.startswith("/jobs"):
            return f"{prefix}/jobs/{{fingerprint}}"
        return f"{prefix}{sub}" if sub else prefix
    return "other"


class _BadRequest(Exception):
    """A request that cannot be parsed: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream limit
        raise _BadRequest(400, "request line or header too long") from None


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, bytes] | None:
    """One HTTP/1.1 request off a stream: (method, target, headers, body).

    Returns None at EOF (client closed between requests); header names are
    lower-cased.  Raises :class:`_BadRequest` for anything unparseable.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(400, f"malformed request line {line[:200]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 256:
            raise _BadRequest(400, "too many request headers")
    declared = headers.get("content-length", "") or "0"
    try:
        length = int(declared)
    except ValueError:
        raise _BadRequest(400, f"invalid Content-Length {declared[:50]!r}") from None
    if length < 0:
        raise _BadRequest(400, f"negative Content-Length {length}")
    if length > _MAX_BODY_BYTES:
        raise _BadRequest(
            413, f"request body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _send_http_response(
    writer: asyncio.StreamWriter,
    code: int,
    body: bytes,
    content_type: str,
    *,
    keep_alive: bool = True,
) -> None:
    """One HTTP/1.1 response with an explicit Content-Length."""
    lines = [
        f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


class AsyncAnalysisServer:
    """Serve an :class:`~repro.engine.service.AnalysisService` over asyncio.

    Binds synchronously in the constructor (``port 0`` = ephemeral, so
    ``server_address`` is final immediately); ``serve_forever()`` then runs
    the loop in whatever thread calls it.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        from .service import API_VERSION

        self.service = service
        self.api_version = API_VERSION
        self._loop = asyncio.new_event_loop()
        #: fingerprint -> futures parked by HTTP long polls (loop thread only).
        self._parked: dict[str, set[asyncio.Future]] = {}
        self._closed = False
        self._serving = threading.Event()
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle_client, host, port)
        )
        self.server_address = self._server.sockets[0].getsockname()
        service.add_result_listener(self._on_results)

    # -- socketserver-compatible lifecycle ----------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (from any thread)."""
        asyncio.set_event_loop(self._loop)
        self._serving.set()
        try:
            self._loop.run_forever()
        finally:
            self._serving.clear()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread (idempotent)."""
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._loop.stop)

    def server_close(self) -> None:
        """Release the socket and the loop.  Call after :meth:`shutdown`."""
        if self._closed:
            return
        self._closed = True
        self.service.remove_result_listener(self._on_results)
        if self._loop.is_running():  # shutdown not awaited; last resort
            self.shutdown()
            deadline = time.monotonic() + 5.0
            while self._loop.is_running() and time.monotonic() < deadline:
                time.sleep(0.01)
        self._server.close()
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        with contextlib.suppress(RuntimeError):
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self._loop.run_until_complete(self._server.wait_closed())
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    # -- the thread -> loop result bridge ------------------------------------
    def _on_results(self, fingerprints: list[str]) -> None:
        """Service callback (batcher/submitter thread): hop into the loop."""
        with contextlib.suppress(RuntimeError):  # loop already closed
            self._loop.call_soon_threadsafe(self._wake, list(fingerprints))

    def _wake(self, fingerprints: list[str]) -> None:
        """Resolve the futures parked on ``fingerprints`` (loop thread)."""
        if not fingerprints:  # service stop: release everything
            parked = list(self._parked.values())
            self._parked.clear()
        else:
            parked = [self._parked.pop(fingerprint, ()) for fingerprint in fingerprints]
        for futures in parked:
            for future in futures:
                if not future.done():
                    future.set_result(None)

    async def _await_entry(self, fingerprint: str, seconds: float) -> dict | None:
        """The async twin of ``AnalysisService.wait_for``."""
        service = self.service
        deadline = self._loop.time() + max(0.0, seconds)
        terminal = tuple(self.service.terminal_statuses)
        while True:
            future = self._loop.create_future()
            self._parked.setdefault(fingerprint, set()).add(future)
            # Status is read only after the future is registered: a terminal
            # transition in between fires _wake and resolves this future, so
            # the wakeup cannot be lost.
            entry = service.status(fingerprint)
            remaining = deadline - self._loop.time()
            if (
                entry is None
                or entry["status"] in terminal
                or remaining <= 0
                or service.stopped
            ):
                self._unpark(fingerprint, future)
                return entry
            gauge = _parked_gauge()
            gauge.inc()
            try:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(future, remaining)
            finally:
                gauge.dec()
                self._unpark(fingerprint, future)

    def _unpark(self, fingerprint: str, future: asyncio.Future) -> None:
        waiters = self._parked.get(fingerprint)
        if waiters is not None:
            waiters.discard(future)
            if not waiters:
                self._parked.pop(fingerprint, None)

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_http_request(reader)
                except _BadRequest as exc:
                    await self._send_error(
                        writer, EngineError(str(exc)), exc.status, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = await self._dispatch(method, target, headers, body, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send_json(
        self, writer, code: int, payload: dict, *, keep_alive: bool = True
    ) -> None:
        await _send_http_response(
            writer,
            code,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            keep_alive=keep_alive,
        )

    async def _send_error(
        self, writer, exc: BaseException, status: int, *, keep_alive: bool = True
    ) -> None:
        await self._send_json(
            writer, status, error_envelope(exc, status=status), keep_alive=keep_alive
        )

    async def _dispatch(self, method, target, headers, body, writer) -> bool:
        parsed = urlparse(target)
        path = parsed.path.rstrip("/")
        endpoint = _route_label(path, self.api_version)
        in_flight = obs_metrics.gauge(
            "repro_http_in_flight", "HTTP requests currently being handled."
        )
        in_flight.inc()
        started = time.perf_counter()
        try:
            await self._route(method, path, parse_qs(parsed.query), body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # a handler bug must not kill the connection task
            with contextlib.suppress(Exception):
                await self._send_error(writer, exc, 500)
            return False
        finally:
            in_flight.dec()
            obs_metrics.histogram(
                "repro_http_request_seconds",
                "HTTP request latency by endpoint and method.",
                {"endpoint": endpoint, "method": method},
            ).observe(time.perf_counter() - started)
        return headers.get("connection", "").lower() != "close"

    async def _route(self, method, path, query, body, writer) -> None:
        prefix = f"/{self.api_version}"
        if path.startswith(prefix):
            sub = path[len(prefix):]
            if method == "GET":
                await self._v1_get(sub, query, writer)
            elif method == "POST":
                await self._v1_post(sub, body, writer)
            else:
                await self._send_error(
                    writer, EngineError(f"method {method} not allowed"), 405
                )
            return
        await self._send_error(writer, EngineError(f"unknown path {path!r}"), 404)

    async def _v1_get(self, sub: str, query: dict, writer) -> None:
        service = self.service
        if sub == "/capabilities":
            await self._send_json(writer, 200, service.capabilities())
            return
        if sub == "/healthz":
            await self._send_json(writer, 200, service.healthz())
            return
        if sub == "/metrics":
            await _send_http_response(
                writer,
                200,
                service.render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if sub.startswith("/jobs/"):
            fingerprint = sub[len("/jobs/"):]
            wait = query.get("wait")
            if wait is not None:
                try:
                    requested = float(wait[0])
                    if not math.isfinite(requested):
                        # NaN slips through min/max clamps and would park
                        # the coroutine on a nonsense deadline.
                        raise ValueError("wait must be finite")
                    seconds = min(max(requested, 0.0), service.max_wait_seconds)
                except (TypeError, ValueError):
                    await self._send_error(
                        writer, EngineError(f"invalid wait parameter {wait[0]!r}"), 400
                    )
                    return
                entry = await self._await_entry(fingerprint, seconds)
            else:
                entry = service.status(fingerprint)
            if entry is None:
                await self._send_error(
                    writer,
                    JobNotFoundError(f"unknown fingerprint {fingerprint!r}"),
                    404,
                )
            else:
                await self._send_json(writer, 200, entry)
            return
        await self._send_error(writer, EngineError(f"unknown path {sub!r}"), 404)

    async def _v1_post(self, sub: str, body: bytes, writer) -> None:
        service = self.service
        if sub != "/batches":
            await self._send_error(writer, EngineError(f"unknown path {sub!r}"), 404)
            return
        try:
            payload = json.loads(body or b"null")
        except (ValueError, json.JSONDecodeError) as exc:
            await self._send_error(writer, EngineError(f"invalid JSON body: {exc}"), 400)
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("jobs"), list):
            await self._send_error(
                writer, EngineError("body must be {'jobs': [<job payload>, ...]}"), 400
            )
            return
        submissions = payload["jobs"]
        if not submissions:
            await self._send_error(
                writer, EngineError("batch must contain at least one job"), 400
            )
            return
        try:
            entries = service.submit_payloads(submissions)
        except BatchLimitExceeded as exc:
            await self._send_error(writer, exc, 413)
            return
        except ReproError as exc:
            await self._send_error(writer, exc, 400)
            return
        await self._send_json(
            writer, 202, {"jobs": entries, "batch": {"submitted": len(entries)}}
        )
