"""``repro.api`` — the one front door of the Gleipnir reproduction.

Everything the repo can do — one-shot analyses, batched multi-program
sweeps, streamed results, and remote submission to a running
``gleipnir-serve`` — is reachable through a single versioned facade:

* :class:`AnalysisSession` — a context manager owning the engine / process
  pool / outcome store wiring (or, with ``remote=``, an HTTP client), with
  ``analyze()``, ``analyze_batch()`` and ``as_completed()`` streaming;
* :class:`AnalysisOutcome` — the typed, frozen result record every surface
  returns (bound, certification status, MPS walk count, timings,
  fingerprint) instead of flat dicts;
* :class:`Client` — a thin HTTP client speaking the service's versioned
  ``/v1`` wire format (batch submit, long-poll result push, capability
  discovery, structured errors).

See ``docs/api.md`` for the full surface, the ``/v1`` wire format, and the
deprecation table of the legacy entry points this facade replaces.

Quick start::

    import repro
    from repro.api import AnalysisSession

    circuit = repro.Circuit(2, name="ghz").h(0).cx(0, 1)
    noise = repro.NoiseModel.uniform_bit_flip(1e-3)
    with AnalysisSession(config=repro.AnalysisConfig(mps_width=4)) as session:
        outcome = session.analyze(circuit, noise)
    print(outcome.bound)
"""

from .client import Client
from .session import (
    AnalysisOutcome,
    AnalysisSession,
    add_session_arguments,
    session_from_args,
    trace_to_file,
)

__all__ = [
    "AnalysisOutcome",
    "AnalysisSession",
    "Client",
    "add_session_arguments",
    "session_from_args",
    "trace_to_file",
]
