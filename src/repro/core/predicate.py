"""Quantum predicates ``(rho_hat, delta)`` used by the error logic (Section 4).

A predicate constrains the *ideal* global input state of a (sub)program: it
must lie within trace-norm distance δ of the approximate state ρ̂.  The global
approximate state itself is held by the MPS approximator; what the logic and
the SDP consume is :class:`~repro.mps.approximator.LocalPredicate` — the
reduced density matrix on a gate's qubits plus the same δ, re-exported here
for convenience.
"""

from __future__ import annotations

import numpy as np

from ..mps.approximator import LocalPredicate

__all__ = [
    "VACUOUS_DELTA",
    "LocalPredicate",
    "trivial_local_predicate",
]

#: The largest trace-norm distance between two density matrices.  A
#: predicate at this δ admits every state, so its constraint
#: ``tr(ρ̂ ρ) >= ||ρ̂||_F (||ρ̂||_F - δ)`` has a negative bound for every ρ̂.
VACUOUS_DELTA = 2.0


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
