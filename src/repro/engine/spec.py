"""Declarative, content-addressed analysis jobs.

An :class:`AnalysisJob` bundles everything one Gleipnir analysis needs — the
program, the noise model, the input state, and the :class:`AnalysisConfig` —
into a value that serializes to canonical JSON.  Canonical means: plain dicts
of primitives, rule tables in sorted order, and ``json.dumps(sort_keys=True)``
for the textual form, so two structurally identical jobs always produce the
same bytes and therefore the same SHA-256 **fingerprint**.

The fingerprint is the job's address everywhere in the engine: the process
pool dedupes on it, the :class:`~repro.engine.outcomes.OutcomeStore` keys
outcomes by it, and the serving front-end reports status under it.  Only
fields that can change the *certified bound* enter the fingerprint; execution
knobs (worker counts, resource budgets) do not,
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
from ..errors import EngineError
from ..noise.model import NoiseModel
from ..sdp.kernel import SOLVER_VERSION

__all__ = [
    "AnalysisJob",
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


#: Retired config fields that never entered a fingerprint, spelled
#: indirectly so the retired names stay out of the source.
_DROPPED_CONFIG_KEYS = ("scheduler", "_".join(("collect", "derivation")))


def config_from_json_dict(payload: dict, *, noise_after_gate: bool = True) -> AnalysisConfig:
    """Inverse of :func:`config_to_json_dict`.

    Unknown fields and out-of-range values (:meth:`AnalysisConfig.validate`)
    both raise :class:`EngineError`, so a bad job is refused when it is
    decoded rather than failing later inside a worker.

    Every payload written so far carries retired fields, which decode so:

    * the analysis-path switch and the derivation switch
      (:data:`_DROPPED_CONFIG_KEYS`) are dropped: neither changed a bound;
    * ``sdp.mode`` is dropped when it is ``"certified"``, the one path left,
      and refused otherwise;
    * ``noise_after_gate`` is dropped when it agrees with
      ``noise_after_gate``, the ordering of the noise model the config
      travels with, and refused otherwise: the noise model alone orders
      noise and gate.
    """
    try:
        data = dict(payload)
        for key in _DROPPED_CONFIG_KEYS:
            data.pop(key, None)
        ordering = data.pop("noise_after_gate", noise_after_gate)
        sdp_data = dict(data.pop("sdp", {}))
        mode = sdp_data.pop("mode", "certified")
        sdp = SDPConfig(**sdp_data)
        guard = ResourceGuard(**data.pop("guard", {}))
        config = AnalysisConfig(sdp=sdp, guard=guard, **data)
    except (TypeError, ValueError) as exc:
        raise EngineError(f"malformed config payload: {exc}") from exc
    if mode != "certified":
        raise EngineError(
            f"invalid config payload: unknown SDP mode {mode!r} (only 'certified' remains)"
        )
    if ordering != noise_after_gate:
        raise EngineError(
            f"invalid config payload: noise_after_gate={ordering!r} disagrees "
            f"with the noise model's noise_after_gate={noise_after_gate!r}"
        )
    try:
        config.validate()
    except (TypeError, ValueError) as exc:
        raise EngineError(f"invalid config payload: {exc}") from exc
    return config


def _semantic_config_dict(config: AnalysisConfig, noise_after_gate: bool) -> dict:
    """The subset of the configuration that can change the certified bound.

    The MPS width changes the predicate strength; the iteration cap,
    tolerance, cache quantisation and the kernel's solver
    (:data:`repro.sdp.kernel.SOLVER_VERSION`, under the key ``admm_rule``
    that predates it) change which dual certificate is found.  Resource
    budgets change *when or whether* the same bound is computed, never its
    value, and are excluded so fingerprints survive re-runs under different
    execution settings.

    Two keys keep the places they had when they were config fields, so the
    fingerprint of every job whose config agreed with its noise model stays
    put: ``noise_after_gate`` now comes from the job's noise model, and
    ``sdp.mode`` is the constant ``"certified"``, the one path left.
    """
    return {
        "mps_width": config.mps_width,
        "noise_after_gate": noise_after_gate,
        "sdp": {
            "mode": "certified",
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
        name: label used in reports and the outcome store.
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
        kind = payload.get("kind")
        if kind != "analysis_job":
            raise EngineError(f"unknown job kind {kind!r} (supported: analysis_job)")
        version = payload.get("version")
        if version != JOB_SCHEMA_VERSION:
            raise EngineError(
                f"unsupported job schema version {version!r} (supported: {JOB_SCHEMA_VERSION})"
            )
        try:
            initial_bits = payload.get("initial_bits")
            num_qubits = payload.get("num_qubits")
            noise_model = NoiseModel.from_json_dict(payload["noise_model"])
            return cls(
                program=program_from_json_dict(payload["program"]),
                noise_model=noise_model,
                config=config_from_json_dict(
                    payload.get("config", {}),
                    noise_after_gate=noise_model.noise_after_gate,
                ),
                initial_bits=(
                    tuple(int(b) for b in initial_bits) if initial_bits is not None else None
                ),
                num_qubits=int(num_qubits) if num_qubits is not None else None,
                name=str(payload.get("name", "job")),
            )
        except KeyError as exc:
            raise EngineError(f"job payload missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise EngineError(f"malformed job payload: {exc}") from exc

    def to_json(self) -> str:
        """The canonical JSON text of :meth:`to_json_dict`: the wire form.

        Memoised on the instance under the same contract as
        :meth:`fingerprint` (never mutated after construction), so a client
        re-sending a job and the process pool shipping it encode it once.
        ``dataclasses.replace`` builds a new instance with its own encoding.
        """
        cached = self.__dict__.get("_json")
        if cached is not None:
            return cached
        text = canonical_json(self.to_json_dict())
        self.__dict__["_json"] = text
        return text

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
            "config": _semantic_config_dict(self.config, self.noise_model.noise_after_gate),
            "initial_bits": list(self.initial_bits) if self.initial_bits is not None else None,
            "num_qubits": self.num_qubits,
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest


def job_from_json_dict(payload: dict) -> AnalysisJob:
    """Deserialize a job payload.

    Payloads without a ``kind`` are analysis jobs, so clients that predate
    the field keep working; any other ``kind`` raises :class:`EngineError`.
    """
    if not isinstance(payload, dict):
        raise EngineError(f"job payload must be a dict, got {type(payload).__name__}")
    if "kind" not in payload:
        payload = {**payload, "kind": "analysis_job"}
    return AnalysisJob.from_json_dict(payload)


def job_from_json(text: str) -> AnalysisJob:
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
    scheduled_solves: int = 0
    mps_walks: int = 0
    mps_width: int = 0
    noise_model: str = ""
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
