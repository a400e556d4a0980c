"""Exception hierarchy used across the Gleipnir reproduction.

All library-specific errors derive from :class:`ReproError`, so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CircuitError(ReproError):
    """Raised for malformed quantum programs or circuit operations.

    Examples: applying a 2-qubit gate to a single qubit, referencing a qubit
    outside the program's register, or parsing an invalid circuit text.
    """


class GateError(CircuitError):
    """Raised when a gate definition is inconsistent (wrong shape, not unitary)."""


class SimulationError(ReproError):
    """Raised when a simulator is asked to do something it cannot represent."""


class ResourceLimitExceeded(SimulationError):
    """Raised when a computation would exceed the configured resource budget.

    This mirrors the 24-hour timeout used in the paper's evaluation for the
    full-simulation baseline: instead of burning wall-clock time, the dense
    simulators refuse to allocate exponential state beyond the configured
    qubit budget (see :class:`repro.config.ResourceGuard`).
    """


class NoiseModelError(ReproError):
    """Raised for inconsistent noise model definitions (non-CPTP channels, ...)."""


class MPSError(ReproError):
    """Raised for invalid Matrix Product State operations."""


class SDPError(ReproError):
    """Raised when an SDP cannot be constructed or certified."""


class CertificationError(SDPError):
    """Raised when a dual certificate cannot be repaired to feasibility."""


class LogicError(ReproError):
    """Raised when an inference rule of the quantum error logic is misapplied."""


class DerivationCheckError(LogicError):
    """Raised when re-validation of a derivation tree finds an unsound step."""


class DeviceError(ReproError):
    """Raised for invalid device descriptions, mappings, or calibration data."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for invalid configurations."""


class EngineError(ReproError):
    """Raised by the analysis engine for invalid jobs, payloads, or stores.

    Examples: serialising a noise model backed by an opaque channel factory,
    deserialising a job payload with an unknown schema version, or submitting
    a malformed job to the serving front-end.
    """


class StorageBackendError(EngineError):
    """Raised when a store argument is a URL (``scheme://…``), not a file path.

    Stores are JSONL files; the error names the rejected scheme
    (``redis://`` is a popular guess) and surfaces as a 400 envelope over
    ``/v1`` and as a clean one-line error from the ``gleipnir-serve`` CLI.
    """

    def __init__(self, message: str, *, scheme: str | None = None):
        super().__init__(message)
        self.scheme = scheme


class JobNotFoundError(EngineError):
    """Raised when a job fingerprint is unknown to the service and its store."""


class BatchLimitExceeded(EngineError):
    """Raised when one submission exceeds the service's per-batch job limit."""


# ---------------------------------------------------------------------------
# Wire format: structured error envelopes for the /v1 HTTP surface
# ---------------------------------------------------------------------------

def _error_types() -> dict[str, type]:
    """Every concrete :class:`ReproError` subclass, by class name."""
    types: dict[str, type] = {"ReproError": ReproError}
    pending = [ReproError]
    while pending:
        for subclass in pending.pop().__subclasses__():
            types[subclass.__name__] = subclass
            pending.append(subclass)
    return types


def error_envelope(exc: BaseException, *, status: int) -> dict:
    """The machine-readable JSON envelope the /v1 service returns for ``exc``.

    The ``type`` field carries the :class:`ReproError` subclass name so a
    client can re-raise the exact exception class; ``repro_error`` tells
    foreign clients whether the type belongs to this hierarchy at all.
    """
    return {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "status": int(status),
            "repro_error": isinstance(exc, ReproError),
        }
    }


def error_from_envelope(payload: dict, *, status: int | None = None) -> Exception:
    """Reconstruct the exception a /v1 error envelope describes.

    Unknown or foreign types degrade to :class:`EngineError` (for 4xx/None)
    so callers can still catch everything service-shaped with one clause.
    """
    entry = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(entry, dict):
        message = str(payload) if payload else f"HTTP error {status}"
        return EngineError(message)
    message = str(entry.get("message", "unknown service error"))
    cls = _error_types().get(str(entry.get("type")), EngineError)
    return cls(message)
