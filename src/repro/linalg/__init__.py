"""Quantum linear-algebra substrate (states, operators, norms, channels).

This package is the foundation of the Gleipnir reproduction: every other
subsystem (circuit semantics, noise models, the MPS approximator, the SDP
engine, the error logic) builds on the representations defined here.
"""

from .states import (
    basis_state,
    bloch_vector,
    bra,
    computational_basis,
    density_from_bloch,
    density_matrix,
    ghz_state,
    is_density_matrix,
    is_normalized,
    ket,
    maximally_entangled,
    maximally_mixed,
    num_qubits_of,
    plus_state,
    product_density,
    product_state,
    pure_density,
    purity,
    random_density_matrix,
    random_pure_density,
    random_statevector,
    state_overlap,
    w_state,
    zero_state,
)
from .operators import (
    CNOT,
    CZ,
    HADAMARD,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    SDG_GATE,
    SWAP,
    T_GATE,
    TDG_GATE,
    anticommutator,
    commutator,
    controlled,
    embed_operator,
    expand_to_adjacent,
    is_hermitian,
    is_unitary,
    kron_all,
    operator_from_function,
    pauli_matrix,
    pauli_string_matrix,
    phase_matrix,
    random_unitary,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    rzz_matrix,
    u3_matrix,
)
from .norms import (
    distribution_from_counts,
    frobenius_norm,
    hilbert_schmidt_distance,
    operator_norm,
    schatten_norm,
    statistical_distance,
    trace_distance,
    trace_norm,
    trace_norm_distance,
)
from .partial_trace import (
    partial_trace,
    partial_trace_keep,
    permute_qubits,
    reduced_density_matrix,
)
from .hermitian import (
    hermitian_basis,
    hermitian_dim,
    hunvec,
    hvec,
    is_hvec_consistent,
    random_hermitian,
)
from .decompositions import (
    hermitian_eig,
    matrix_sqrt,
    min_eigenvalue,
    nearest_density_matrix,
    negative_part,
    positive_negative_split,
    positive_part,
    psd_projection,
    purification,
    truncated_svd,
)
from .channels import (
    QuantumChannel,
    apply_kraus,
    channel_difference_choi,
    choi_is_trace_preserving,
    choi_output_trace_map,
    choi_to_kraus,
    choi_to_liouville,
    identity_channel,
    is_cptp_kraus,
    kraus_to_choi,
    kraus_to_liouville,
    liouville_to_choi,
    unitary_channel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
