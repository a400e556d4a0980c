"""Noise models: mapping gate applications to noise channels.

A *noise model* ω specifies the noisy version of each gate on the target
device (Section 2.3).  In this library a :class:`NoiseModel` resolves a gate
application ``U(q1, ..., qk)`` to a local k-qubit noise channel N, and the
noisy gate is the composition ``N ∘ U`` (noise after the ideal gate, the
default) or ``U ∘ N``.

Resolution priority (most specific wins):

1. an override registered for ``(gate name, physical qubits)``;
2. an override registered for the physical qubits alone (used by
   calibration-driven device models, where noise depends on *where* the gate
   runs rather than which gate it is);
3. an override registered for the gate name;
4. the default channel for the gate's arity.

The paper's sample model (Section 7.1) — a bit flip with probability
``p = 1e-4`` on every 1-qubit gate and on the first qubit of every 2-qubit
gate — is available as :meth:`NoiseModel.uniform_bit_flip`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from ..circuits.gates import Gate
from ..errors import NoiseModelError
from ..linalg.channels import QuantumChannel, unitary_channel
from . import channels as noise_channels

__all__ = ["NoiseModel", "GateNoiseRule"]

ChannelFactory = Callable[[Gate, tuple[int, ...]], QuantumChannel | None]


@dataclasses.dataclass(frozen=True)
class GateNoiseRule:
    """A single resolved noise assignment, mostly for reporting/debugging."""

    gate_name: str
    qubits: tuple[int, ...] | None
    channel: QuantumChannel


class NoiseModel:
    """Maps gate applications to local noise channels."""

    def __init__(self, *, name: str = "noise_model", noise_after_gate: bool = True):
        self._name = name
        self._noise_after_gate = bool(noise_after_gate)
        self._default_by_arity: dict[int, QuantumChannel] = {}
        self._by_gate_name: dict[str, QuantumChannel] = {}
        self._by_qubits: dict[tuple[int, ...], QuantumChannel] = {}
        self._by_gate_and_qubits: dict[tuple[str, tuple[int, ...]], QuantumChannel] = {}
        self._factory: ChannelFactory | None = None

    # -- construction -------------------------------------------------------
    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """A model under which every gate is perfect."""
        return cls(name="noiseless")

    @classmethod
    def uniform_bit_flip(cls, p: float) -> "NoiseModel":
        """The paper's sample model: bit flip with probability ``p`` per gate.

        1-qubit gates get a bit flip on their qubit; 2-qubit gates get a bit
        flip on their *first* operand (Section 7.1).
        """
        model = cls(name=f"uniform_bit_flip({p:g})")
        single = noise_channels.bit_flip(p)
        model.set_default(1, single)
        model.set_default(2, single.tensor(noise_channels.identity_noise(1)))
        return model

    @classmethod
    def uniform_depolarizing(cls, p1: float, p2: float | None = None) -> "NoiseModel":
        """Depolarizing noise with 1-qubit rate ``p1`` and 2-qubit rate ``p2``."""
        p2 = p1 * 10 if p2 is None else p2
        model = cls(name=f"uniform_depolarizing({p1:g},{p2:g})")
        model.set_default(1, noise_channels.depolarizing(p1))
        model.set_default(2, noise_channels.two_qubit_depolarizing(p2))
        return model

    @classmethod
    def from_factory(cls, factory: ChannelFactory, *, name: str = "factory") -> "NoiseModel":
        """A model whose channels are produced by an arbitrary callable."""
        model = cls(name=name)
        model._factory = factory
        return model

    # -- mutation -------------------------------------------------------------
    def set_default(self, arity: int, channel: QuantumChannel) -> "NoiseModel":
        """Set the default channel for gates of a given arity."""
        self._check_channel(channel, arity)
        self._default_by_arity[int(arity)] = channel
        return self

    def add_gate_rule(self, gate_name: str, channel: QuantumChannel) -> "NoiseModel":
        """Attach a channel to every application of a named gate."""
        self._by_gate_name[gate_name.lower()] = channel
        return self

    def add_qubit_rule(self, qubits: Sequence[int], channel: QuantumChannel) -> "NoiseModel":
        """Attach a channel to any gate acting on exactly these qubits (in order)."""
        qubits = tuple(int(q) for q in qubits)
        self._check_channel(channel, len(qubits))
        self._by_qubits[qubits] = channel
        return self

    def add_rule(
        self, gate_name: str, qubits: Sequence[int], channel: QuantumChannel
    ) -> "NoiseModel":
        """Attach a channel to a named gate on specific qubits."""
        qubits = tuple(int(q) for q in qubits)
        self._check_channel(channel, len(qubits))
        self._by_gate_and_qubits[(gate_name.lower(), qubits)] = channel
        return self

    @staticmethod
    def _check_channel(channel: QuantumChannel, arity: int) -> None:
        if channel.dim_in != 2**arity or channel.dim_out != 2**arity:
            raise NoiseModelError(
                f"channel acts on dimension {channel.dim_in}, expected {2 ** arity} "
                f"for arity {arity}"
            )

    # -- queries ----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def noise_after_gate(self) -> bool:
        return self._noise_after_gate

    def channel_for(self, gate: Gate, qubits: Sequence[int]) -> QuantumChannel | None:
        """The local noise channel attached to this gate application (or None)."""
        qubits = tuple(int(q) for q in qubits)
        key = (gate.name, qubits)
        if key in self._by_gate_and_qubits:
            return self._by_gate_and_qubits[key]
        if qubits in self._by_qubits:
            return self._by_qubits[qubits]
        if gate.name in self._by_gate_name:
            return self._by_gate_name[gate.name]
        if self._factory is not None:
            produced = self._factory(gate, qubits)
            if produced is not None:
                self._check_channel(produced, gate.num_qubits)
                return produced
        return self._default_by_arity.get(gate.num_qubits)

    def noisy_gate_channel(self, gate: Gate, qubits: Sequence[int]) -> QuantumChannel:
        """The complete noisy gate superoperator ``N ∘ U`` (or ``U ∘ N``)."""
        ideal = unitary_channel(gate.matrix, name=gate.name)
        noise = self.channel_for(gate, qubits)
        if noise is None:
            return ideal
        if noise.dim_in != ideal.dim_out:
            raise NoiseModelError(
                f"noise channel dimension {noise.dim_in} does not match gate "
                f"{gate.name!r} of dimension {ideal.dim_out}"
            )
        return noise.compose(ideal) if self._noise_after_gate else ideal.compose(noise)

    def is_noiseless_for(self, gate: Gate, qubits: Sequence[int]) -> bool:
        """Whether this gate application carries no noise under the model."""
        return self.channel_for(gate, qubits) is None

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical dict form of the model's declarative rule tables.

        Rule lists are emitted in sorted key order so structurally identical
        models serialize identically regardless of registration order (the
        analysis engine fingerprints jobs on this form).  Models backed by an
        opaque channel *factory* cannot be described declaratively and raise
        :class:`~repro.errors.NoiseModelError`.
        """
        if self._factory is not None:
            raise NoiseModelError(
                f"noise model {self._name!r} is backed by a channel factory and "
                "cannot be serialized; register explicit rules instead"
            )
        return {
            "name": self._name,
            "noise_after_gate": self._noise_after_gate,
            "defaults": [
                [arity, self._default_by_arity[arity].to_json_dict()]
                for arity in sorted(self._default_by_arity)
            ],
            "gate_rules": [
                [gate_name, self._by_gate_name[gate_name].to_json_dict()]
                for gate_name in sorted(self._by_gate_name)
            ],
            "qubit_rules": [
                [list(qubits), self._by_qubits[qubits].to_json_dict()]
                for qubits in sorted(self._by_qubits)
            ],
            "gate_qubit_rules": [
                [
                    gate_name,
                    list(qubits),
                    self._by_gate_and_qubits[(gate_name, qubits)].to_json_dict(),
                ]
                for gate_name, qubits in sorted(self._by_gate_and_qubits)
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "NoiseModel":
        """Inverse of :meth:`to_json_dict`."""
        try:
            model = cls(
                name=payload["name"],
                noise_after_gate=payload.get("noise_after_gate", True),
            )
            for arity, channel in payload.get("defaults", ()):
                model.set_default(int(arity), QuantumChannel.from_json_dict(channel))
            for gate_name, channel in payload.get("gate_rules", ()):
                model.add_gate_rule(gate_name, QuantumChannel.from_json_dict(channel))
            for qubits, channel in payload.get("qubit_rules", ()):
                model.add_qubit_rule(qubits, QuantumChannel.from_json_dict(channel))
            for gate_name, qubits, channel in payload.get("gate_qubit_rules", ()):
                model.add_rule(gate_name, qubits, QuantumChannel.from_json_dict(channel))
        except (TypeError, KeyError, ValueError) as exc:
            raise NoiseModelError(f"malformed noise model payload: {exc}") from exc
        return model

    def rules(self) -> list[GateNoiseRule]:
        """All explicitly registered rules (for reports and debugging)."""
        out: list[GateNoiseRule] = []
        for (gate_name, qubits), channel in self._by_gate_and_qubits.items():
            out.append(GateNoiseRule(gate_name, qubits, channel))
        for qubits, channel in self._by_qubits.items():
            out.append(GateNoiseRule("*", qubits, channel))
        for gate_name, channel in self._by_gate_name.items():
            out.append(GateNoiseRule(gate_name, None, channel))
        for arity, channel in self._default_by_arity.items():
            out.append(GateNoiseRule(f"<default arity {arity}>", None, channel))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoiseModel(name={self._name!r}, rules={len(self.rules())})"
