"""Quantum circuit IR: gates, program AST, builder, serialization, transforms."""

from .gates import (
    Gate,
    available_gates,
    cnot,
    crz,
    custom_gate,
    cx,
    cz,
    gate_by_name,
    h,
    identity,
    iswap,
    phase,
    rx,
    ry,
    rz,
    rzz,
    s,
    sdg,
    swap,
    t,
    tdg,
    u3,
    x,
    y,
    z,
)
from .program import GateOp, IfMeasure, Program, Seq, Skip, gate_op, seq
from .circuit import Circuit
from .serialize import (
    gate_from_json_dict,
    gate_to_json_dict,
    program_from_json_dict,
    program_to_json_dict,
)
from .transforms import count_gates_by_name, decompose_swaps, route_to_coupling

__all__ = [name for name in dir() if not name.startswith("_")]
