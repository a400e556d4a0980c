"""SVD truncation bookkeeping for the MPS approximator (Section 5.2).

When a 2-qubit gate is applied to an MPS, the two affected site tensors are
contracted, the gate is applied, and the result is split back with an SVD.
If the number of non-negligible singular values exceeds the bond dimension
``w``, the smallest ones are dropped; the resulting *truncation error* is the
trace-norm distance between the states before and after truncation,

``delta = 2 * sqrt(discarded_weight / total_weight)``,

which follows from ``|| |phi><phi| - |psi><psi| ||_1 = 2 sqrt(1 - |<phi|psi>|^2)``
for pure states (Section 5.2).  These per-step errors add up to the sound
approximation bound returned by ``TN(rho0, P)`` (Theorem 5.1).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

__all__ = ["TruncationInfo", "split_theta"]


@dataclasses.dataclass(frozen=True)
class TruncationInfo:
    """Record of one SVD truncation step.

    Attributes:
        discarded_weight: sum of squared singular values that were dropped.
        total_weight: sum of all squared singular values (the squared norm of
            the two-site wavefunction before truncation).
        kept: number of singular values kept (the new bond dimension).
        available: number of non-zero singular values before truncation.
    """

    discarded_weight: float
    total_weight: float
    kept: int
    available: int

    @property
    def trace_norm_error(self) -> float:
        """Trace-norm distance ``|| |before><before| - |after><after| ||_1``."""
        if self.total_weight <= 0:
            return 0.0
        ratio = min(1.0, max(0.0, self.discarded_weight / self.total_weight))
        return 2.0 * float(np.sqrt(ratio))

    @property
    def fidelity(self) -> float:
        """Squared overlap between the states before and after truncation."""
        if self.total_weight <= 0:
            return 1.0
        return max(0.0, 1.0 - self.discarded_weight / self.total_weight)

    @property
    def truncated(self) -> bool:
        return self.discarded_weight > 0.0

    @staticmethod
    def zero() -> "TruncationInfo":
        """A no-op truncation record (exact step)."""
        return TruncationInfo(0.0, 1.0, 0, 0)

    def __add__(self, other: "TruncationInfo") -> "TruncationInfo":  # pragma: no cover
        raise TypeError(
            "TruncationInfo records do not add directly; accumulate their "
            "trace_norm_error values instead (the paper's delta is additive, "
            "the records are not)"
        )


def split_theta(
    theta: np.ndarray, max_bond: int, *, svd_cutoff: float = 1e-14
) -> tuple[np.ndarray, np.ndarray, TruncationInfo]:
    """Split a two-site wavefunction with a truncated SVD.

    Args:
        theta: array of shape ``(chi_left, 2, 2, chi_right)`` holding the
            contracted two-site tensor (gate already applied).
        max_bond: maximum bond dimension ``w`` to keep.
        svd_cutoff: singular values below this relative threshold are treated
            as numerically zero (they do not count as "available").

    Returns:
        ``(left_tensor, right_tensor, info)`` where ``left_tensor`` has shape
        ``(chi_left, 2, k)`` and is left-isometric, ``right_tensor`` has shape
        ``(k, 2, chi_right)`` and carries the singular values (renormalised so
        the state's norm is preserved), and ``info`` records the truncation.
    """
    chi_left, d1, d2, chi_right = theta.shape
    matrix = theta.reshape(chi_left * d1, d2 * chi_right)
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer gesdd fails to converge on some finite,
        # unit-norm inputs; the QR-iteration driver gesvd still succeeds.
        u, s, vh = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")

    total_weight = float(np.sum(s**2))
    if total_weight <= 0:
        raise ValueError("two-site wavefunction has zero norm")
    scale = s[0] if s[0] > 0 else 1.0
    available = int(np.count_nonzero(s > svd_cutoff * scale))
    available = max(available, 1)

    kept = max(1, min(int(max_bond), available))
    discarded_weight = float(np.sum(s[kept:] ** 2))
    kept_weight = total_weight - discarded_weight

    s_kept = s[:kept]
    # Renormalise so the truncated state keeps the original norm.
    s_kept = s_kept * np.sqrt(total_weight / kept_weight)

    left = u[:, :kept].reshape(chi_left, d1, kept)
    right = (s_kept[:, None] * vh[:kept, :]).reshape(kept, d2, chi_right)
    info = TruncationInfo(
        discarded_weight=discarded_weight,
        total_weight=total_weight,
        kept=kept,
        available=available,
    )
    return left, right, info
