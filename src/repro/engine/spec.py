"""Declarative, content-addressed analysis jobs.

An :class:`AnalysisJob` bundles everything one Gleipnir analysis needs — the
program, the noise model, the input state, and the :class:`AnalysisConfig` —
into a value that serializes to canonical JSON.  Canonical means: plain dicts
of primitives, rule tables in sorted order, and ``json.dumps(sort_keys=True)``
for the textual form, so two structurally identical jobs always produce the
same bytes and therefore the same SHA-256 **fingerprint**.

The fingerprint is the job's address everywhere in the engine: the process
pool dedupes on it, the :class:`~repro.engine.store.ResultStore` keys results
by it, and the serving front-end reports status under it.  Only fields that
can change the *certified bound* enter the fingerprint; execution knobs
(worker counts, cache paths, derivation collection, resource budgets) do not,
so re-running a sweep with different parallelism or budgets still finds its
prior results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence

from ..circuits.circuit import Circuit
from ..circuits.program import Program
from ..circuits.serialize import program_from_json_dict, program_to_json_dict
from ..config import AnalysisConfig, ResourceGuard, SDPConfig
from ..errors import EngineError, MetricError
from ..linalg.channels import QuantumChannel
from ..noise.model import NoiseModel
from ..sdp.kernel import SOLVER_VERSION

__all__ = [
    "AnalysisJob",
    "ComparisonJob",
    "JobResult",
    "canonical_json",
    "config_to_json_dict",
    "config_from_json_dict",
    "job_from_json",
    "job_from_json_dict",
]

#: Schema version of the job payload; bump on incompatible format changes.
JOB_SCHEMA_VERSION = 1


def canonical_json(payload: dict) -> str:
    """The canonical textual form: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_to_json_dict(config: AnalysisConfig) -> dict:
    """An :class:`AnalysisConfig` as a plain dict (all fields, nested)."""
    return dataclasses.asdict(config)


def config_from_json_dict(payload: dict) -> AnalysisConfig:
    """Inverse of :func:`config_to_json_dict`.

    Unknown fields and out-of-range values (:meth:`AnalysisConfig.validate`)
    both raise :class:`EngineError`, so a bad job is refused when it is
    decoded rather than failing later inside a worker.
    """
    try:
        data = dict(payload)
        sdp = SDPConfig(**data.pop("sdp", {}))
        guard = ResourceGuard(**data.pop("guard", {}))
        config = AnalysisConfig(sdp=sdp, guard=guard, **data)
    except TypeError as exc:
        raise EngineError(f"malformed config payload: {exc}") from exc
    try:
        config.validate()
    except (TypeError, ValueError) as exc:
        raise EngineError(f"invalid config payload: {exc}") from exc
    return config


def _semantic_config_dict(config: AnalysisConfig) -> dict:
    """The subset of the configuration that can change the certified bound.

    The MPS width changes the predicate strength; the SDP mode, iteration
    cap, tolerance, cache quantisation and the kernel's solver
    (:data:`repro.sdp.kernel.SOLVER_VERSION`, under the key ``admm_rule``
    that predates it) change which dual
    certificate is found; the noise convention changes the analysed
    channel.  Everything else — scheduler on/off, cache paths,
    derivation collection, resource budgets — changes *when or
    whether* the same bound is computed, never its value, and is excluded
    so fingerprints survive re-runs under different execution settings.
    """
    return {
        "mps_width": config.mps_width,
        "noise_after_gate": config.noise_after_gate,
        "sdp": {
            "mode": config.sdp.mode,
            "max_iterations": config.sdp.max_iterations,
            "tolerance": config.sdp.tolerance,
            "cache_decimals": config.sdp.cache_decimals,
            "admm_rule": SOLVER_VERSION,
        },
    }


@dataclasses.dataclass
class AnalysisJob:
    """One declarative analysis request.

    Attributes:
        program: the program AST to analyse.
        noise_model: the (declarative) noise model; factory-backed models are
            rejected at serialization time.
        config: analysis configuration (a private deep copy is not taken —
            the engine copies before mutating per-worker fields).
        initial_bits: computational-basis input state (None = all zeros).
        num_qubits: register size (None = inferred from the program).
        name: label used in reports and the result store.
    """

    program: Program
    noise_model: NoiseModel
    config: AnalysisConfig = dataclasses.field(default_factory=AnalysisConfig)
    initial_bits: tuple[int, ...] | None = None
    num_qubits: int | None = None
    name: str = "job"

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit | Program,
        noise_model: NoiseModel,
        *,
        config: AnalysisConfig | None = None,
        initial_bits: Sequence[int] | None = None,
        name: str | None = None,
    ) -> "AnalysisJob":
        """Build a job from a circuit (or program), mirroring ``analyze_program``."""
        if isinstance(circuit, Circuit):
            program = circuit.to_program()
            num_qubits = circuit.num_qubits
            default_name = circuit.name
        else:
            program = circuit
            num_qubits = None
            default_name = "job"
        return cls(
            program=program,
            noise_model=noise_model,
            config=config or AnalysisConfig(),
            initial_bits=tuple(int(b) for b in initial_bits) if initial_bits is not None else None,
            num_qubits=num_qubits,
            name=name or default_name,
        )

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "version": JOB_SCHEMA_VERSION,
            "kind": "analysis_job",
            "name": self.name,
            "program": program_to_json_dict(self.program),
            "noise_model": self.noise_model.to_json_dict(),
            "config": config_to_json_dict(self.config),
            "initial_bits": list(self.initial_bits) if self.initial_bits is not None else None,
            "num_qubits": self.num_qubits,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "AnalysisJob":
        if not isinstance(payload, dict):
            raise EngineError(f"job payload must be a dict, got {type(payload).__name__}")
        if payload.get("kind") != "analysis_job":
            raise EngineError(f"not an analysis job payload: kind={payload.get('kind')!r}")
        version = payload.get("version")
        if version != JOB_SCHEMA_VERSION:
            raise EngineError(
                f"unsupported job schema version {version!r} (supported: {JOB_SCHEMA_VERSION})"
            )
        try:
            initial_bits = payload.get("initial_bits")
            num_qubits = payload.get("num_qubits")
            return cls(
                program=program_from_json_dict(payload["program"]),
                noise_model=NoiseModel.from_json_dict(payload["noise_model"]),
                config=config_from_json_dict(payload.get("config", {})),
                initial_bits=(
                    tuple(int(b) for b in initial_bits) if initial_bits is not None else None
                ),
                num_qubits=int(num_qubits) if num_qubits is not None else None,
                name=str(payload.get("name", "job")),
            )
        except KeyError as exc:
            raise EngineError(f"job payload missing field {exc}") from exc

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "AnalysisJob":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EngineError(f"job payload is not valid JSON: {exc}") from exc
        return cls.from_json_dict(payload)

    # -- identity ------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address of this job (SHA-256 over the canonical form).

        Stable across processes, insensitive to dict/rule ordering, and
        independent of execution knobs (see :func:`_semantic_config_dict`).
        Memoised on the instance: jobs are declarative requests, never
        mutated after construction, and re-serializing the whole program on
        every warm engine pass would dominate the outcome-store hit path.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = {
            "version": JOB_SCHEMA_VERSION,
            "program": program_to_json_dict(self.program),
            "noise_model": self.noise_model.to_json_dict(),
            "config": _semantic_config_dict(self.config),
            "initial_bits": list(self.initial_bits) if self.initial_bits is not None else None,
            "num_qubits": self.num_qubits,
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest


@dataclasses.dataclass
class ComparisonJob:
    """One declarative comparison request — two channels, or two noise models.

    The second job family the engine executes.  Two mutually exclusive modes:

    * **channels** — compare two arbitrary same-arity
      :class:`~repro.linalg.channels.QuantumChannel` objects under a
      registered channel metric (``diamond_norm``, ``trace_norm``,
      ``process_fidelity``, ...);
    * **ab** — diff two :class:`~repro.noise.model.NoiseModel`\\ s over one
      program ("how much does this calibration drift cost?"): the engine runs
      the full certified analysis under each model and reports the drift
      between the two bounds, with both dual certificate sets harvested.

    Like :class:`AnalysisJob`, a job is content-addressed by the SHA-256 of
    its canonical JSON (``kind`` included, so the two families can never
    collide), which is what lets dedupe, the outcome cache and worker
    sharding treat comparisons exactly like analyses.
    """

    metric: str = "diamond_norm"
    channel_a: QuantumChannel | None = None
    channel_b: QuantumChannel | None = None
    program: Program | None = None
    noise_model_a: NoiseModel | None = None
    noise_model_b: NoiseModel | None = None
    config: AnalysisConfig = dataclasses.field(default_factory=AnalysisConfig)
    initial_bits: tuple[int, ...] | None = None
    num_qubits: int | None = None
    name: str = "comparison"

    def __post_init__(self) -> None:
        channels = self.channel_a is not None or self.channel_b is not None
        ab = (
            self.program is not None
            or self.noise_model_a is not None
            or self.noise_model_b is not None
        )
        if channels and ab:
            raise MetricError(
                "a comparison job is either two channels or a program with two "
                "noise models, not both"
            )
        if channels:
            if self.channel_a is None or self.channel_b is None:
                raise MetricError("channel comparisons need both channel_a and channel_b")
        elif ab:
            if (
                self.program is None
                or self.noise_model_a is None
                or self.noise_model_b is None
            ):
                raise MetricError(
                    "noise-model A/B comparisons need a program plus both "
                    "noise_model_a and noise_model_b"
                )
        else:
            raise MetricError(
                "empty comparison job: provide two channels or a program with "
                "two noise models"
            )
        if not str(self.metric):
            raise MetricError("comparison jobs need a metric name")

    @property
    def mode(self) -> str:
        """``"channels"`` or ``"ab"`` (validated at construction)."""
        return "channels" if self.channel_a is not None else "ab"

    @classmethod
    def from_channels(
        cls,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        metric: str = "diamond_norm",
        config: AnalysisConfig | None = None,
        name: str | None = None,
    ) -> "ComparisonJob":
        """A channel-pair comparison under a registered metric."""
        return cls(
            metric=metric,
            channel_a=channel_a,
            channel_b=channel_b,
            config=config or AnalysisConfig(),
            name=name or f"{metric}({channel_a.name},{channel_b.name})",
        )

    @classmethod
    def from_noise_models(
        cls,
        circuit: Circuit | Program,
        noise_model_a: NoiseModel,
        noise_model_b: NoiseModel,
        *,
        metric: str = "bound_drift",
        config: AnalysisConfig | None = None,
        initial_bits: Sequence[int] | None = None,
        name: str | None = None,
    ) -> "ComparisonJob":
        """A noise-model A/B comparison over one program."""
        if isinstance(circuit, Circuit):
            program = circuit.to_program()
            num_qubits = circuit.num_qubits
            default_name = f"{metric}({circuit.name})"
        else:
            program = circuit
            num_qubits = None
            default_name = metric
        return cls(
            metric=metric,
            program=program,
            noise_model_a=noise_model_a,
            noise_model_b=noise_model_b,
            config=config or AnalysisConfig(),
            initial_bits=(
                tuple(int(b) for b in initial_bits) if initial_bits is not None else None
            ),
            num_qubits=num_qubits,
            name=name or default_name,
        )

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        payload = {
            "version": JOB_SCHEMA_VERSION,
            "kind": "comparison_job",
            "name": self.name,
            "metric": self.metric,
            "mode": self.mode,
            "config": config_to_json_dict(self.config),
            "initial_bits": list(self.initial_bits) if self.initial_bits is not None else None,
            "num_qubits": self.num_qubits,
        }
        if self.mode == "channels":
            payload["channel_a"] = self.channel_a.to_json_dict()
            payload["channel_b"] = self.channel_b.to_json_dict()
        else:
            payload["program"] = program_to_json_dict(self.program)
            payload["noise_model_a"] = self.noise_model_a.to_json_dict()
            payload["noise_model_b"] = self.noise_model_b.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ComparisonJob":
        if not isinstance(payload, dict):
            raise EngineError(f"job payload must be a dict, got {type(payload).__name__}")
        if payload.get("kind") != "comparison_job":
            raise EngineError(f"not a comparison job payload: kind={payload.get('kind')!r}")
        version = payload.get("version")
        if version != JOB_SCHEMA_VERSION:
            raise EngineError(
                f"unsupported job schema version {version!r} (supported: {JOB_SCHEMA_VERSION})"
            )
        try:
            initial_bits = payload.get("initial_bits")
            num_qubits = payload.get("num_qubits")
            common = dict(
                metric=str(payload["metric"]),
                config=config_from_json_dict(payload.get("config", {})),
                initial_bits=(
                    tuple(int(b) for b in initial_bits) if initial_bits is not None else None
                ),
                num_qubits=int(num_qubits) if num_qubits is not None else None,
                name=str(payload.get("name", "comparison")),
            )
            if payload.get("mode") == "channels":
                return cls(
                    channel_a=QuantumChannel.from_json_dict(payload["channel_a"]),
                    channel_b=QuantumChannel.from_json_dict(payload["channel_b"]),
                    **common,
                )
            return cls(
                program=program_from_json_dict(payload["program"]),
                noise_model_a=NoiseModel.from_json_dict(payload["noise_model_a"]),
                noise_model_b=NoiseModel.from_json_dict(payload["noise_model_b"]),
                **common,
            )
        except KeyError as exc:
            raise EngineError(f"job payload missing field {exc}") from exc

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ComparisonJob":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EngineError(f"job payload is not valid JSON: {exc}") from exc
        return cls.from_json_dict(payload)

    # -- identity ------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address (SHA-256 over the canonical form, ``kind`` included).

        Same exclusion rule as :meth:`AnalysisJob.fingerprint`: the label and
        execution knobs stay out, so re-submitting the same comparison under
        different parallelism or names still hits the caches.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = {
            "version": JOB_SCHEMA_VERSION,
            "kind": "comparison_job",
            "metric": self.metric,
            "mode": self.mode,
            "config": _semantic_config_dict(self.config),
            "initial_bits": list(self.initial_bits) if self.initial_bits is not None else None,
            "num_qubits": self.num_qubits,
        }
        if self.mode == "channels":
            payload["channel_a"] = self.channel_a.to_json_dict()
            payload["channel_b"] = self.channel_b.to_json_dict()
        else:
            payload["program"] = program_to_json_dict(self.program)
            payload["noise_model_a"] = self.noise_model_a.to_json_dict()
            payload["noise_model_b"] = self.noise_model_b.to_json_dict()
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest


#: Payload ``kind`` -> job class, for :func:`job_from_json_dict`.
JOB_KINDS = {
    "analysis_job": AnalysisJob,
    "comparison_job": ComparisonJob,
}


def job_from_json_dict(payload: dict) -> "AnalysisJob | ComparisonJob":
    """Deserialize any job payload, dispatching on its ``kind`` field.

    Payloads without a ``kind`` are treated as analysis jobs (the only family
    that existed before comparisons), so pre-dispatch clients keep working.
    """
    if not isinstance(payload, dict):
        raise EngineError(f"job payload must be a dict, got {type(payload).__name__}")
    kind = payload.get("kind", "analysis_job")
    cls = JOB_KINDS.get(kind)
    if cls is None:
        supported = ", ".join(sorted(JOB_KINDS))
        raise EngineError(f"unknown job kind {kind!r} (supported: {supported})")
    if "kind" not in payload:
        payload = {**payload, "kind": "analysis_job"}
    return cls.from_json_dict(payload)


def job_from_json(text: str) -> "AnalysisJob | ComparisonJob":
    """:func:`job_from_json_dict` over a canonical-JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EngineError(f"job payload is not valid JSON: {exc}") from exc
    return job_from_json_dict(payload)


@dataclasses.dataclass
class JobResult:
    """The JSON-serializable outcome of one executed job.

    A deliberately flat record (no derivation tree, no numpy arrays) so it
    crosses process boundaries cheaply and appends to the JSONL store as one
    line.  ``status`` is ``"ok"``, ``"timeout"`` (the per-job
    :class:`~repro.config.ResourceGuard` budget fired), or ``"error"``.
    """

    fingerprint: str
    name: str
    status: str = "ok"
    error_bound: float | None = None
    final_delta: float | None = None
    num_gates: int = 0
    num_branches: int = 0
    elapsed_seconds: float = 0.0
    sdp_solves: int = 0
    sdp_cache_hits: int = 0
    #: Always 0: kept so stored records keep their format.
    sdp_dominance_hits: int = 0
    scheduled_solves: int = 0
    mps_walks: int = 0
    mps_width: int = 0
    noise_model: str = ""
    #: Always 0: kept so stored records keep their format.
    tape_steps_reused: int = 0
    #: Comparison-job fields: the metric name and certification tier, plus the
    #: per-side bounds of a noise-model A/B diff (``error_bound`` then holds
    #: the drift ``|value_a - value_b|``).  Empty/None on analysis jobs.
    metric: str = ""
    metric_tier: str = ""
    value_a: float | None = None
    value_b: float | None = None
    error: str | None = None
    #: Structured per-phase breakdown (``repro.obs`` span totals): wall-clock
    #: seconds per analysis phase plus per-solve-class solve timings — the
    #: training data for a cross-job cost model.  Always present on executed
    #: jobs; empty on legacy store records.
    timings: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "JobResult":
        try:
            known = {field.name for field in dataclasses.fields(cls)}
            return cls(**{key: value for key, value in payload.items() if key in known})
        except TypeError as exc:
            raise EngineError(f"malformed result payload: {exc}") from exc
