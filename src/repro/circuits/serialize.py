"""Canonical JSON (de)serialization of programs and gates.

The analysis engine (:mod:`repro.engine`) needs programs to cross process
boundaries and to be *fingerprinted*: two structurally identical programs must
serialize to the same canonical form regardless of how they were built.  The
format is therefore deliberately plain — nested dicts of primitives with a
``kind`` discriminator per AST node — so it can be emitted with
``json.dumps(..., sort_keys=True)`` and hashed.

Gates round-trip through the standard library (:func:`gate_by_name`) whenever
the name and parameters fully determine the unitary; gates outside the
library (custom unitaries, ``dagger()`` derivatives) embed their matrix as
nested ``[re, im]`` pairs.
"""

from __future__ import annotations

import numpy as np

from ..errors import CircuitError
from ..linalg.codec import complex_matrix_from_json, complex_matrix_to_json
from . import gates as gate_lib
from .circuit import Circuit
from .gates import Gate
from .program import GateOp, IfMeasure, Program, Seq, Skip, seq

__all__ = [
    "gate_to_json_dict",
    "gate_from_json_dict",
    "program_to_json_dict",
    "program_from_json_dict",
    "matrix_to_json",
    "matrix_from_json",
]


def matrix_to_json(matrix: np.ndarray) -> list:
    """A complex matrix as nested ``[re, im]`` pairs (row-major)."""
    return complex_matrix_to_json(matrix)


def matrix_from_json(payload: list) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        return complex_matrix_from_json(payload)
    except ValueError as exc:
        raise CircuitError(str(exc)) from exc


def _rebuilt_matches(rebuilt: np.ndarray, matrix: np.ndarray) -> bool:
    """``np.allclose(rebuilt, matrix, atol=1e-12)`` as one fused comparison.

    ``matrix`` belongs to a :class:`Gate`, which only holds unitaries, so it
    is finite and allclose's ``isfinite``/``==`` terms add nothing: the test
    is ``|rebuilt - matrix| <= 1e-12 + 1e-5 |matrix|`` elementwise.
    """
    return bool((np.abs(rebuilt - matrix) <= 1e-12 + 1e-5 * np.abs(matrix)).all())


def _library_rebuilds(gate: Gate) -> bool:
    """Whether ``gate_by_name(name, *params)`` reproduces this gate's matrix."""
    try:
        rebuilt = gate_lib.gate_by_name(gate.name, *gate.params)
    except Exception:
        return False
    if rebuilt.num_qubits != gate.num_qubits:
        return False
    # Fixed gates share one matrix with their library instance.
    return rebuilt.matrix is gate.matrix or _rebuilt_matches(rebuilt.matrix, gate.matrix)


def gate_to_json_dict(gate: Gate) -> dict:
    """Canonical dict form of a gate.

    The matrix is embedded only when the standard library cannot rebuild it
    from ``(name, params)`` — this keeps payloads small and fingerprints
    independent of float-printing details for the common gate set.
    """
    return _gate_dict(gate, {})


def _gate_dict(gate: Gate, rebuilds: dict) -> dict:
    """:func:`gate_to_json_dict`, with the library check memoised in ``rebuilds``."""
    payload: dict = {"name": gate.name, "params": [float(p) for p in gate.params]}
    key = (gate.name, gate.params, gate.num_qubits, gate.matrix.tobytes())
    library = rebuilds.get(key)
    if library is None:
        library = rebuilds[key] = _library_rebuilds(gate)
    if not library:
        payload["num_qubits"] = gate.num_qubits
        payload["matrix"] = matrix_to_json(gate.matrix)
    return payload


def gate_from_json_dict(payload: dict) -> Gate:
    """Inverse of :func:`gate_to_json_dict`."""
    try:
        name = payload["name"]
        params = tuple(float(p) for p in payload.get("params", ()))
    except (TypeError, KeyError, ValueError) as exc:
        raise CircuitError(f"malformed gate payload: {exc}") from exc
    if "matrix" in payload:
        return gate_lib.custom_gate(name, matrix_from_json(payload["matrix"]), params)
    return gate_lib.gate_by_name(name, *params)


def program_to_json_dict(program: Program | Circuit) -> dict:
    """Canonical dict form of a program AST (or a circuit's AST).

    The library check of :func:`gate_to_json_dict` runs once per distinct
    gate of the program, not once per gate application; the memo lives only
    for this call.
    """
    if isinstance(program, Circuit):
        program = program.to_program()
    return _program_dict(program, {})


def _program_dict(program: Program, rebuilds: dict) -> dict:
    if isinstance(program, Skip):
        return {"kind": "skip"}
    if isinstance(program, GateOp):
        return {
            "kind": "gate",
            "gate": _gate_dict(program.gate, rebuilds),
            "qubits": list(program.qubits),
        }
    if isinstance(program, Seq):
        return {"kind": "seq", "parts": [_program_dict(p, rebuilds) for p in program.parts]}
    if isinstance(program, IfMeasure):
        return {
            "kind": "if",
            "qubit": program.qubit,
            "then": _program_dict(program.then_branch, rebuilds),
            "else": _program_dict(program.else_branch, rebuilds),
        }
    raise CircuitError(f"cannot serialize program node {type(program).__name__}")


def program_from_json_dict(payload: dict) -> Program:
    """Inverse of :func:`program_to_json_dict`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise CircuitError(f"malformed program payload: {payload!r}")
    kind = payload["kind"]
    try:
        if kind == "skip":
            return Skip()
        if kind == "gate":
            return GateOp(
                gate_from_json_dict(payload["gate"]),
                tuple(int(q) for q in payload["qubits"]),
            )
        if kind == "seq":
            return seq(*(program_from_json_dict(p) for p in payload["parts"]))
        if kind == "if":
            return IfMeasure(
                int(payload["qubit"]),
                program_from_json_dict(payload["then"]),
                program_from_json_dict(payload["else"]),
            )
    except (TypeError, KeyError, ValueError) as exc:
        raise CircuitError(f"malformed {kind!r} node payload: {exc}") from exc
    raise CircuitError(f"unknown program node kind {kind!r}")
