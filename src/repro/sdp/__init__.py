"""Semidefinite programming engine for constrained diamond norms (Section 6).

There is one solver surface: each (ρ̂, δ)-constrained diamond norm of Eq. (2)
is instantiated from a cached shape template (:mod:`repro.sdp.diamond`),
solved in lock-step with the other problems of its shape by the batched
interior-point method :func:`ipm_solve_packed_batch` (:mod:`repro.sdp.kernel`),
and its dual point is repaired into a verified certificate
(:mod:`repro.sdp.certificates`) whose value is the reported bound.  The solver
only decides how tight a bound is; the certificate is the proof.
"""

from .kernel import (
    BlockLayout,
    PackedIPMResult,
    PackedSDP,
    get_layout,
    ipm_solve_packed_batch,
    positive_part_stack,
    unpack_hermitian_stack,
)
from .certificates import (
    DualCertificate,
    certified_value,
    certified_values_batch,
    repair_dual_candidate,
    repair_dual_candidates_batch,
    verify_certificate,
)
from .diamond import (
    PREDICATE_DECIMALS,
    DiamondNormBound,
    constrained_diamond_norm,
    constrained_diamond_norms_batch,
    diamond_distance,
    gate_error_bound,
    gate_error_bounds_batch,
    quantise_predicates,
    rho_delta_constraint_bound,
    rho_delta_diamond_norm,
)
from .brute import (
    achieved_error_for_input,
    constrained_diamond_lower_bound,
    diamond_lower_bound,
    random_feasible_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
