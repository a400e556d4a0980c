"""A thin HTTP client for the versioned ``/v1`` surface of ``gleipnir-serve``.

The client speaks exactly the wire format documented in
:mod:`repro.engine.service` (and ``docs/api.md``):

* ``submit()`` posts a batch of :class:`~repro.engine.spec.AnalysisJob`
  payloads to ``POST /v1/batches``;
* ``status()`` reads one job entry, optionally with a **long-poll**
  ``wait=`` window — the server blocks on its condition variable and pushes
  the result in the same response, so a completed job costs exactly one
  request;
* ``wait()`` chains long-poll windows until the job finishes or the caller's
  deadline passes;
* ``capabilities()`` performs ``GET /v1/capabilities`` discovery.

Errors come back as structured envelopes and are re-raised as the exact
:class:`~repro.errors.ReproError` subclass the server recorded
(:func:`repro.errors.error_from_envelope`), so remote and in-process callers
share one ``except`` vocabulary.  ``requests_sent`` counts HTTP round trips,
which the test suite uses to prove the long-poll path needs no client-side
polling.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections.abc import Sequence

from ..engine.spec import AnalysisJob, ComparisonJob
from ..errors import EngineError, error_from_envelope

__all__ = ["Client"]

#: Statuses that mean "no further transition will happen".  Mirrors
#: ``repro.engine.service.TERMINAL_STATUSES`` without importing the service
#: (a pure client install must not pull in the engine).
_TERMINAL = ("done", "failed")


class Client:
    """HTTP access to a running ``gleipnir-serve`` (the ``/v1`` wire format).

    Args:
        base_url: service root (``"http://127.0.0.1:8780"``).
        timeout: socket timeout for plain (non-waiting) requests.
        max_wait: largest single long-poll window requested from the server
            (the server additionally clamps to its own advertised limit).
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0, max_wait: float = 60.0):
        self.base_url = str(base_url).rstrip("/")
        self.timeout = float(timeout)
        self.max_wait = float(max_wait)
        #: HTTP round trips performed by this client (diagnostics/tests).
        self.requests_sent = 0

    # -- transport ---------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: dict | None = None, *, timeout: float | None = None
    ) -> dict:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode() if payload is not None else None,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        self.requests_sent += 1
        try:
            with urllib.request.urlopen(request, timeout=timeout or self.timeout) as response:
                return json.loads(response.read() or b"null")
        except urllib.error.HTTPError as error:
            try:
                envelope = json.loads(error.read() or b"null")
            except (json.JSONDecodeError, ValueError):
                envelope = None
            raise error_from_envelope(envelope, status=error.code) from None
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            raise EngineError(
                f"cannot reach analysis service at {self.base_url}: {reason}"
            ) from exc

    # -- API ---------------------------------------------------------------
    def capabilities(self) -> dict:
        """Service discovery (``GET /v1/capabilities``)."""
        return self._request("GET", "/v1/capabilities")

    def submit(self, jobs: Sequence[AnalysisJob | ComparisonJob | dict]) -> list[dict]:
        """Submit one batch; returns the aligned list of status entries.

        ``jobs`` may hold :class:`AnalysisJob` / :class:`ComparisonJob`
        values or raw job payload dicts (any registered ``kind``).
        Validation is all-or-nothing on the server: a rejected batch
        executes nothing.
        """
        payloads = [
            job.to_json_dict() if hasattr(job, "to_json_dict") else dict(job)
            for job in jobs
        ]
        return self._request("POST", "/v1/batches", {"jobs": payloads})["jobs"]

    def status(self, fingerprint: str, *, wait: float | None = None) -> dict:
        """One job's status entry; ``wait`` long-polls up to that many seconds.

        Raises :class:`~repro.errors.JobNotFoundError` for unknown
        fingerprints.
        """
        path = f"/v1/jobs/{fingerprint}"
        if wait is None:
            return self._request("GET", path)
        window = min(max(float(wait), 0.0), self.max_wait)
        # The socket must stay open longer than the server-side wait.
        return self._request("GET", f"{path}?wait={window:g}", timeout=window + self.timeout)

    def wait(self, fingerprint: str, *, timeout: float | None = None) -> dict:
        """Block until the job finishes, chaining long-poll windows.

        Every round trip parks in the server's condition-variable wait, so a
        job that completes within one window costs exactly one request.
        ``timeout=None`` (the default) waits as long as the job takes —
        matching the local engine, which has no client-side deadline either;
        with a timeout, :class:`TimeoutError` is raised when it passes.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            window = self.max_wait
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {fingerprint} did not finish within {timeout:g}s"
                    )
                window = min(window, remaining)
            entry = self.status(fingerprint, wait=window)
            if entry["status"] in _TERMINAL:
                return entry
