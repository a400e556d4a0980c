"""Quantum predicates ``(rho_hat, delta)`` used by the error logic (Section 4).

A predicate constrains the *ideal* global input state of a (sub)program: it
must lie within trace-norm distance δ of the approximate state ρ̂.  The global
approximate state itself is held by the MPS approximator; what the logic and
the SDP consume are light-weight views:

* :class:`GlobalPredicate` — a descriptive handle (where the approximation
  came from, its δ, how many qubits);
* :class:`~repro.mps.approximator.LocalPredicate` — the reduced density
  matrix on a gate's qubits plus the same δ, re-exported here for
  convenience.

Predicates can be *weakened* (δ increased), matching the Weaken rule.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import LogicError
from ..mps.approximator import LocalPredicate

__all__ = [
    "VACUOUS_DELTA",
    "GlobalPredicate",
    "LocalPredicate",
    "trivial_local_predicate",
]

#: The largest trace-norm distance between two density matrices.  A
#: predicate at this δ admits every state, so its constraint
#: ``tr(ρ̂ ρ) >= ||ρ̂||_F (||ρ̂||_F - δ)`` has a negative bound for every ρ̂.
VACUOUS_DELTA = 2.0


@dataclasses.dataclass(frozen=True)
class GlobalPredicate:
    """A handle on the global ``(rho_hat, delta)`` predicate.

    Attributes:
        description: where ρ̂ comes from (e.g. ``"MPS(width=128)"`` or
            ``"exact density matrix"``).
        delta: trace-norm distance bound ``||rho - rho_hat||_1 <= delta``.
        num_qubits: register size of the state being described.
    """

    description: str
    delta: float
    num_qubits: int

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise LogicError("a predicate distance cannot be negative")

    def weaken(self, new_delta: float) -> "GlobalPredicate":
        """Return the same predicate with a larger (weaker) distance bound."""
        if new_delta < self.delta:
            raise LogicError(
                f"weakening must not decrease delta ({new_delta} < {self.delta})"
            )
        return dataclasses.replace(self, delta=new_delta)

    @property
    def is_trivial(self) -> bool:
        """True when the predicate admits every state (delta >= 2)."""
        return self.delta >= VACUOUS_DELTA


def trivial_local_predicate(num_qubits: int) -> LocalPredicate:
    """The vacuous predicate: maximally mixed ρ̂ with the maximal distance 2.

    Every density matrix is within trace-norm 2 of every other, so this
    predicate is satisfied by any state; bounds computed against it reduce to
    the unconstrained diamond norm.  The scheduler's walk uses it for every
    gate once δ has reached its cap, and for measurement branches that the
    approximation deems unreachable.
    """
    dim = 2**num_qubits
    return LocalPredicate(
        rho_local=np.eye(dim, dtype=np.complex128) / dim,
        delta=VACUOUS_DELTA,
        qubits=tuple(range(num_qubits)),
    )
