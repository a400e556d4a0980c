"""Sharded serving: N replica processes behind a fingerprint-routing front.

``gleipnir-serve --replicas N`` turns the single-process server into a tiny
deployment: :class:`ReplicaSet` spawns N ``gleipnir-serve`` child processes
(each a full engine + asyncio surface on an ephemeral port), and
:class:`ShardRouter` fronts them on the requested ``--host``/``--port``.

Sharding is **deterministic content addressing**, the same invariant the
whole pipeline rests on: job fingerprints are hex SHA-256 digests, and a job
lives on replica ``int(fingerprint, 16) % N``.  Every submission of a job —
from any client, through the router or directly — lands on the same replica,
so per-replica result/outcome stores stay disjoint and warm hits shard
perfectly.  :class:`repro.api.Client` computes the same function when handed
the replica URLs directly, which is why the router can stay a thin relay:

* ``POST /v1/batches`` — validates and fingerprints each job, splits the
  batch by shard, forwards the sub-batches concurrently, and splices the
  replicas' entries back into submission order;
* ``GET /v1/jobs/<fp>[?wait=]`` — relayed to the owning shard; a long poll
  parks a router coroutine against a parked replica coroutine;
* ``GET /v1/healthz`` — aggregated: ok iff every replica is ok;
* ``GET /v1/capabilities`` — replica 0's payload plus a ``router`` stanza;
* ``GET /v1/metrics`` — the router process's own registry (per-shard relay
  counters); each replica exposes its own ``/v1/metrics`` with its
  ``repro_replica_shard`` gauge.

Per-replica store isolation: ``--store``/``--outcomes``/``--cache-dir``
locations are resharded with :func:`shard_location` (``results.jsonl`` →
``results.r0.jsonl``, same for ``sqlite:///`` paths), so replicas never
contend on one file.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from urllib.parse import urlparse

from ..errors import EngineError, error_envelope
from ..obs import metrics as obs_metrics
from .aserve import read_http_request, send_http_response
from .backends import parse_storage_url
from .spec import AnalysisJob

__all__ = ["ReplicaSet", "ShardRouter", "shard_index", "shard_location", "serve_replicas"]

#: How the children announce their bound port (matched on their stdout).
_BANNER = re.compile(r"listening on (http://[\d.]+:\d+)")


def shard_index(fingerprint: str, count: int) -> int:
    """The replica owning ``fingerprint``: ``int(fp, 16) % count``."""
    return int(fingerprint, 16) % count


def shard_location(url: str, index: int) -> str:
    """A per-replica variant of a storage URL (``results.jsonl`` → ``results.r0.jsonl``).

    ``memory://`` locations pass through unchanged — each replica process has
    private memory anyway.
    """
    scheme, location = parse_storage_url(url)
    if scheme == "memory":
        return url
    root, ext = os.path.splitext(location)
    sharded = f"{root}.r{index}{ext or ''}"
    if scheme == "sqlite":
        # SQLAlchemy slash convention: three for relative, four for absolute.
        return f"sqlite:///{sharded}"
    if url.startswith("jsonl://"):
        return f"jsonl://{sharded}"
    return sharded


class ReplicaSet:
    """N ``gleipnir-serve`` child processes on ephemeral ports.

    Args:
        count: number of replicas (the shard modulus).
        child_args: extra ``gleipnir-serve`` argv fragments shared by every
            replica — ``--store``/``--outcomes``/``--cache-dir`` values are
            expected to already be per-replica (see :func:`build_child_args`).
    """

    def __init__(self, count: int, child_args_per_replica: list[list[str]]):
        if count < 1:
            raise EngineError("--replicas must be at least 1")
        if len(child_args_per_replica) != count:
            raise EngineError("one argv list per replica is required")
        self.count = count
        self._argv = child_args_per_replica
        self.processes: list[subprocess.Popen] = []
        self.urls: list[str] = []

    def start(self, *, timeout: float = 60.0) -> list[str]:
        """Spawn every replica and wait for its banner; returns their URLs."""
        # Children must import repro the same way this process did, even when
        # it came off sys.path rather than an installed distribution.
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{existing}" if existing else src_root
            )
        for index in range(self.count):
            argv = [
                sys.executable,
                "-c",
                "from repro.engine.service import main; raise SystemExit(main())",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--shard-index",
                str(index),
                "--shard-count",
                str(self.count),
                *self._argv[index],
            ]
            self.processes.append(
                subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    env=env,
                )
            )
        deadline = time.monotonic() + timeout
        for index, process in enumerate(self.processes):
            url = None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line)
                if match:
                    url = match.group(1)
                    break
            if url is None:
                self.stop()
                raise EngineError(f"replica {index} failed to start")
            self.urls.append(url)
            # Keep the pipe drained so a chatty replica can never block on it.
            threading.Thread(
                target=_drain, args=(process.stdout,), daemon=True
            ).start()
        return list(self.urls)

    def stop(self, *, timeout: float = 10.0) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=timeout)
            if process.poll() is None:
                process.kill()
                process.wait(timeout=timeout)
        self.processes = []
        self.urls = []

    def __enter__(self) -> "ReplicaSet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _drain(stream) -> None:
    for _line in stream:
        pass


class ShardRouter:
    """An asyncio front that relays ``/v1`` requests to the owning shard.

    Same lifecycle surface as :class:`~repro.engine.aserve.AsyncAnalysisServer`
    (``server_address`` / ``serve_forever`` / ``shutdown`` / ``server_close``).
    """

    def __init__(
        self,
        replica_urls: list[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        relay_timeout: float = 120.0,
    ):
        from .service import API_VERSION

        if not replica_urls:
            raise EngineError("a router needs at least one replica URL")
        self.api_version = API_VERSION
        self.replicas = [self._endpoint(url) for url in replica_urls]
        self.relay_timeout = float(relay_timeout)
        self._loop = asyncio.new_event_loop()
        self._closed = False
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle_client, host, port)
        )
        self.server_address = self._server.sockets[0].getsockname()

    @staticmethod
    def _endpoint(url: str) -> tuple[str, int]:
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if not parsed.hostname or not parsed.port:
            raise EngineError(f"replica URL {url!r} needs an explicit host:port")
        return parsed.hostname, parsed.port

    # -- lifecycle (socketserver-compatible) ---------------------------------
    def serve_forever(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def shutdown(self) -> None:
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._loop.stop)

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop.is_running():
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
            self._loop.close()

    # -- relay ---------------------------------------------------------------
    async def _relay(
        self, shard: int, method: str, target: str, body: bytes | None, timeout: float
    ) -> tuple[int, bytes, str]:
        """Forward one request to a replica; returns (status, body, content_type)."""
        host, port = self.replicas[shard]
        obs_metrics.counter(
            "repro_router_requests_total",
            "Requests relayed by the shard router, by shard.",
            {"shard": str(shard)},
        ).inc()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = body or b""
            head = (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Connection: close\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()

            async def _read_reply() -> tuple[int, bytes, str]:
                status_line = await reader.readline()
                parts = status_line.decode("latin-1").split(" ", 2)
                status = int(parts[1])
                content_type = "application/json"
                length = None
                while True:
                    raw = await reader.readline()
                    if raw in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = raw.decode("latin-1").partition(":")
                    name = name.strip().lower()
                    if name == "content-length":
                        length = int(value.strip())
                    elif name == "content-type":
                        content_type = value.strip()
                reply = (
                    await reader.readexactly(length)
                    if length is not None
                    else await reader.read()
                )
                return status, reply, content_type

            return await asyncio.wait_for(_read_reply(), timeout)
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- request handling ----------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                request = await read_http_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    await self._route(method, target, body, writer)
                except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                    await self._send_error(
                        writer, EngineError(f"replica unavailable: {exc}"), 502
                    )
                    break
                except asyncio.TimeoutError:
                    await self._send_error(
                        writer, EngineError("replica relay timed out"), 504
                    )
                    break
                except EngineError as exc:
                    await self._send_error(writer, exc, 400)
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError, EngineError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send_json(self, writer, code: int, payload: dict) -> None:
        await send_http_response(
            writer, code, json.dumps(payload).encode("utf-8"), "application/json"
        )

    async def _send_error(self, writer, exc: BaseException, status: int) -> None:
        with contextlib.suppress(Exception):
            await self._send_json(writer, status, error_envelope(exc, status=status))

    async def _route(self, method: str, target: str, body: bytes, writer) -> None:
        parsed = urlparse(target)
        path = parsed.path.rstrip("/")
        prefix = f"/{self.api_version}"
        query = f"?{parsed.query}" if parsed.query else ""

        if method == "POST" and path == f"{prefix}/batches":
            await self._route_batch(body, writer)
            return
        if method == "GET" and path.startswith(f"{prefix}/jobs/"):
            fingerprint = path[len(f"{prefix}/jobs/"):]
            try:
                shard = shard_index(fingerprint, len(self.replicas))
            except ValueError:
                shard = 0  # let the replica produce the canonical 404
            # Long polls park here against the replica's parked coroutine, so
            # the relay must outlive the longest server-side wait window.
            status, reply, content_type = await self._relay(
                shard, "GET", target, None, self.relay_timeout
            )
            await send_http_response(writer, status, reply, content_type)
            return
        if method == "GET" and path == f"{prefix}/healthz":
            await self._route_healthz(writer)
            return
        if method == "GET" and path == f"{prefix}/capabilities":
            status, reply, content_type = await self._relay(
                0, "GET", target, None, self.relay_timeout
            )
            try:
                payload = json.loads(reply)
                payload["router"] = {
                    "replicas": len(self.replicas),
                    "sharding": "int(fingerprint, 16) % replicas",
                }
                await self._send_json(writer, status, payload)
            except (json.JSONDecodeError, ValueError):
                await send_http_response(writer, status, reply, content_type)
            return
        if method == "GET" and path == f"{prefix}/metrics":
            body_text = obs_metrics.get_registry().render_prometheus()
            await send_http_response(
                writer,
                200,
                body_text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        await self._send_error(
            writer, EngineError(f"unknown router path {path!r}{query}"), 404
        )

    async def _route_batch(self, body: bytes, writer) -> None:
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
        # Validate and fingerprint up front (all-or-nothing, like a replica):
        # the router must not scatter half a malformed batch.
        try:
            fingerprints = [
                AnalysisJob.from_json_dict(item).fingerprint() for item in submissions
            ]
        except Exception as exc:
            await self._send_error(writer, exc, 400)
            return
        count = len(self.replicas)
        by_shard: dict[int, list[int]] = {}
        for position, fingerprint in enumerate(fingerprints):
            by_shard.setdefault(shard_index(fingerprint, count), []).append(position)

        async def _submit(shard: int, positions: list[int]):
            sub_batch = json.dumps(
                {"jobs": [submissions[position] for position in positions]}
            ).encode("utf-8")
            return await self._relay(
                shard,
                "POST",
                f"/{self.api_version}/batches",
                sub_batch,
                self.relay_timeout,
            )

        shards = sorted(by_shard)
        replies = await asyncio.gather(
            *(_submit(shard, by_shard[shard]) for shard in shards)
        )
        entries: list[dict | None] = [None] * len(submissions)
        for shard, (status, reply, _content_type) in zip(shards, replies):
            if status >= 300:
                # Relay the replica's envelope verbatim: its validation is
                # authoritative.
                await send_http_response(writer, status, reply, "application/json")
                return
            shard_entries = json.loads(reply)["jobs"]
            for position, entry in zip(by_shard[shard], shard_entries):
                entry["shard"] = shard
                entries[position] = entry
        await self._send_json(
            writer, 202, {"jobs": entries, "batch": {"submitted": len(entries)}}
        )

    async def _route_healthz(self, writer) -> None:
        replies = await asyncio.gather(
            *(
                self._relay(shard, "GET", f"/{self.api_version}/healthz", None, 10.0)
                for shard in range(len(self.replicas))
            ),
            return_exceptions=True,
        )
        replicas = []
        healthy = True
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                healthy = False
                replicas.append({"shard": shard, "status": "unreachable"})
                continue
            status, body, _content_type = reply
            try:
                health = json.loads(body)
            except (json.JSONDecodeError, ValueError):
                health = {"status": "error"}
            health["shard"] = shard
            healthy = healthy and status == 200 and health.get("status") == "ok"
            replicas.append(health)
        await self._send_json(
            writer,
            200 if healthy else 503,
            {
                "status": "ok" if healthy else "degraded",
                "router": True,
                "replica_count": len(self.replicas),
                "replicas": replicas,
            },
        )


def build_child_args(args, index: int) -> list[str]:
    """The per-replica ``gleipnir-serve`` argv for parsed supervisor ``args``."""
    argv = ["--workers", str(args.workers)]
    if args.store:
        argv += ["--store", shard_location(args.store, index)]
    if args.outcomes:
        argv += ["--outcomes", shard_location(args.outcomes, index)]
    if args.outcomes_max_entries is not None:
        argv += ["--outcomes-max-entries", str(args.outcomes_max_entries)]
    if args.cache_dir:
        argv += ["--cache-dir", os.path.join(args.cache_dir, f"r{index}")]
    argv += [
        "--batch-window", str(args.batch_window),
        "--max-batch", str(args.max_batch),
        "--max-submit", str(args.max_submit),
    ]
    return argv


def serve_replicas(args) -> int:
    """The ``gleipnir-serve --replicas N`` entry point: spawn, route, serve."""
    replica_set = ReplicaSet(
        args.replicas, [build_child_args(args, index) for index in range(args.replicas)]
    )
    urls = replica_set.start()
    router = ShardRouter(urls, args.host, args.port)
    host, port = router.server_address[:2]
    from .service import API_VERSION

    print(
        f"gleipnir-serve router listening on http://{host}:{port} "
        f"(api {API_VERSION}, replicas={args.replicas}: {', '.join(urls)})",
        flush=True,
    )
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        router.server_close()
        replica_set.stop()
    return 0
