"""Channel-metric protocols and the process-wide metric registry.

The serving stack — content-addressed jobs, dedupe, the whole-outcome cache,
the ``/v1`` service — is metric-agnostic plumbing; this module supplies the
vocabulary that lets it carry more than one quantity.  The shape follows
scikit-fda's ``misc.metrics`` package: small protocol classes
(:class:`ChannelNorm` / :class:`ChannelMetric`) plus a registry with
decorator registration and string lookup, so a metric named in a job payload
resolves to the same object everywhere (engine workers, the ``/v1`` service,
the experiments CLI).

Every computed value is a :class:`MetricValue` that states its
**certification tier** explicitly:

``certified``
    the value is an upper bound established by an independently re-verifiable
    dual certificate (the diamond-norm SDP path);
``exact``
    the value is computed by a closed-form/linear-algebra formula with no
    solver in the loop (trace-norm distance);
``heuristic``
    the value is a principled estimate or one-sided bound without a
    certificate (fidelity-derived bounds).

Registration is idempotent-by-name and collision-checked::

    @register_metric
    class MyMetric(ChannelMetric):
        name = "my_metric"
        tier = TIER_HEURISTIC
        ...

    get_metric("my_metric").compute(channel_a, channel_b)
"""

from __future__ import annotations

import abc
import dataclasses
import threading

from ..config import SDPConfig
from ..errors import MetricError
from ..linalg.channels import QuantumChannel

__all__ = [
    "ChannelMetric",
    "ChannelNorm",
    "MetricValue",
    "TIER_CERTIFIED",
    "TIER_EXACT",
    "TIER_HEURISTIC",
    "get_metric",
    "metric_capabilities",
    "register_metric",
    "registered_metrics",
]

TIER_CERTIFIED = "certified"
TIER_EXACT = "exact"
TIER_HEURISTIC = "heuristic"

_TIERS = (TIER_CERTIFIED, TIER_EXACT, TIER_HEURISTIC)


@dataclasses.dataclass(frozen=True)
class MetricValue:
    """One computed metric value with its provenance made explicit.

    Attributes:
        metric: the registry name of the metric that produced the value.
        value: the (non-negative) distance/bound.
        tier: certification tier — ``certified`` / ``exact`` / ``heuristic``.
        certified: True only for ``certified`` values (a convenience mirror
            of ``tier`` so callers need not compare strings).
        method: free-form detail of how the value was obtained (solver mode,
            closed form, ...).
        bound: for SDP-backed metrics, the full
            :class:`~repro.sdp.diamond.DiamondNormBound` carrying the dual
            certificate and Choi matrix — in-process only, never serialized.
        details: small JSON-safe extras (iterations, gaps, fidelity, ...).
    """

    metric: str
    value: float
    tier: str
    method: str = ""
    bound: object | None = dataclasses.field(default=None, compare=False, repr=False)
    details: dict = dataclasses.field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.tier == TIER_CERTIFIED

    def to_json_dict(self) -> dict:
        """The wire-safe record (the certificate-bearing ``bound`` stays local)."""
        return {
            "metric": self.metric,
            "value": self.value,
            "tier": self.tier,
            "certified": self.certified,
            "method": self.method,
            "details": dict(self.details),
        }


class ChannelNorm(abc.ABC):
    """A norm-like functional of one Hermitian-preserving difference map.

    Implementations measure a single channel-shaped object (typically the
    difference ``A - B`` via its Choi matrix).  Every :class:`ChannelMetric`
    below is a norm applied to a difference, but the split keeps single-map
    callers (the analyzer's per-gate path) honest about what they compute.
    """

    #: Registry name (stable, lowercase snake_case — part of job payloads).
    name: str = "abstract"
    #: Default certification tier of values this norm produces.
    tier: str = TIER_HEURISTIC

    @abc.abstractmethod
    def of_choi(self, choi, *, config: SDPConfig | None = None) -> MetricValue:
        """The norm of the map whose (unnormalised) Choi matrix is ``choi``."""


class ChannelMetric(abc.ABC):
    """A symmetric, non-negative distance between two quantum channels.

    The contract the property tests enforce over the program library:
    ``compute(a, a).value == 0``, ``compute(a, b).value >= 0``, and
    ``compute(a, b) ≈ compute(b, a)``.  Implementations must also declare
    their certification tier honestly — a ``certified`` metric's
    :class:`MetricValue` carries a re-verifiable dual certificate.
    """

    name: str = "abstract"
    tier: str = TIER_HEURISTIC
    #: ``"channel"`` for pairwise channel metrics; ``"program"`` for metrics
    #: the engine computes over whole analyses (noise-model A/B diffs).
    kind: str = "channel"
    #: One-line human description for capability discovery.
    description: str = ""

    @abc.abstractmethod
    def compute(
        self,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        config: SDPConfig | None = None,
    ) -> MetricValue:
        """The distance between two same-arity channels."""

    def certify(self, value: MetricValue) -> bool:
        """Re-check the evidence behind ``value`` (False when there is none).

        The default implementation verifies the dual certificate of an
        SDP-backed value; tiers without certificates report False so callers
        cannot mistake "nothing to check" for "checked and fine".
        """
        bound = value.bound
        if bound is None or getattr(bound, "certificate", None) is None:
            return False
        if getattr(bound, "choi", None) is None:
            return False
        from ..sdp.certificates import verify_certificate

        return verify_certificate(bound.certificate, bound.choi, tolerance=1e-6)

    @staticmethod
    def check_arity(channel_a: QuantumChannel, channel_b: QuantumChannel) -> None:
        """Reject mismatched channel pairs with a structured error."""
        if (
            channel_a.dim_in != channel_b.dim_in
            or channel_a.dim_out != channel_b.dim_out
        ):
            raise MetricError(
                "cannot compare channels of different arities: "
                f"({channel_a.dim_out}x{channel_a.dim_in}) vs "
                f"({channel_b.dim_out}x{channel_b.dim_in})"
            )

    def to_json_dict(self) -> dict:
        """The capability-discovery record of this metric."""
        return {
            "name": self.name,
            "tier": self.tier,
            "kind": self.kind,
            "description": self.description,
        }


# ---------------------------------------------------------------------------
# The process-wide registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ChannelMetric] = {}
_REGISTRY_LOCK = threading.Lock()


def register_metric(cls_or_instance):
    """Register a metric (class decorator or explicit instance call).

    Classes are instantiated once; the singleton instance is what string
    lookup returns.  Registering a different implementation under an already
    taken name is an error (re-registering the same class is idempotent, so
    module reloads in long-lived test processes stay harmless).
    """
    instance = cls_or_instance() if isinstance(cls_or_instance, type) else cls_or_instance
    name = instance.name
    if not name or name == "abstract":
        raise MetricError(f"metric {instance!r} needs a concrete registry name")
    if instance.tier not in _TIERS:
        raise MetricError(
            f"metric {name!r} declares unknown tier {instance.tier!r} "
            f"(one of {', '.join(_TIERS)})"
        )
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None and type(existing) is not type(instance):
            raise MetricError(
                f"metric name {name!r} is already registered by "
                f"{type(existing).__name__}"
            )
        _REGISTRY[name] = instance
    return cls_or_instance


def registered_metrics() -> dict[str, ChannelMetric]:
    """A snapshot of the registry (name -> metric instance)."""
    _ensure_builtins()
    with _REGISTRY_LOCK:
        return dict(sorted(_REGISTRY.items()))


def get_metric(name: str) -> ChannelMetric:
    """String lookup; unknown names raise a :class:`MetricError` listing
    what *is* registered (mapped to a 400 envelope over ``/v1``)."""
    _ensure_builtins()
    with _REGISTRY_LOCK:
        metric = _REGISTRY.get(str(name))
        if metric is None:
            known = ", ".join(sorted(_REGISTRY)) or "none"
            raise MetricError(
                f"unknown metric {name!r} (registered: {known})"
            )
        return metric


def metric_capabilities() -> list[dict]:
    """The ``metrics`` stanza of ``GET /v1/capabilities``."""
    return [metric.to_json_dict() for metric in registered_metrics().values()]


def _ensure_builtins() -> None:
    """Import the built-in metrics exactly once (registration side effect).

    Lazy so that ``repro.metrics.base`` can be imported by the concrete
    metric modules without a cycle, while bare ``get_metric("diamond_norm")``
    calls still work without the caller importing anything else.
    """
    from . import channel_metrics  # noqa: F401
