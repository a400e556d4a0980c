"""Global configuration objects for the Gleipnir reproduction.

The analysis pipeline has several knobs (MPS width, SDP tolerances, caching,
resource guards).  They are collected in :class:`AnalysisConfig` so the
end-to-end analyzer, the experiment harness, and the benchmarks share a single
notion of "how much effort to spend".

Nothing in this module performs computation; it only carries parameters.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import ResourceLimitExceeded

#: Default MPS bond dimension used by the paper's evaluation (Section 7.1).
DEFAULT_MPS_WIDTH = 128

#: Default bit-flip probability of the paper's sample noise model (Section 7.1).
DEFAULT_BIT_FLIP_PROBABILITY = 1e-4


@dataclasses.dataclass
class SDPConfig:
    """Parameters of the semidefinite-programming engine (Section 6).

    Every bound comes from one path: the interior-point solver, whose dual
    point is repaired into a feasible certificate.

    Attributes:
        max_iterations: interior-point iteration cap per solve.  On the 24
            reference circuits (seed 7) the median problem stops after 7
            iterations and the slowest after 29: problems with no strictly
            feasible point (a pure predicate with δ ≈ 0) stall, and are
            frozen when their dual objective stops moving or their Schur
            matrix stops being positive definite.  The cap of 50 is a guard
            above that; an unconverged problem's repaired dual certificate is
            still a sound bound (see docs/performance.md, layer 10).
        tolerance: the stopping test: relative primal residual, relative dual
            residual and relative duality gap all below it.  On the seed-7
            reference circuits, 135 of the 1,473 problems end unconverged at
            1e-7, against 238 under the ADMM solver this one replaced and 271
            at 1e-8.  At 3e-6, two circuits of the ten pinned reference seeds
            (tests/fixtures/reference_bounds_admm.json) certify looser bounds
            than ADMM did; at 1e-7 none does.
        cache_decimals: number of decimals used when fingerprinting the
            predicate for the cache key.  Coarser keys give more cache hits at
            the price of slightly looser (but still sound) bounds, because the
            cached predicate distance is rounded *up*.
    """

    max_iterations: int = 50
    tolerance: float = 1e-7
    cache_decimals: int = 6

    def validate(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")


@dataclasses.dataclass
class ResourceGuard:
    """Budget for dense (exponential) computations.

    The paper's full-simulation baseline times out after 24 hours for programs
    with 20 or more qubits.  Rather than spending that wall-clock time, the
    dense density-matrix simulator consults this guard and raises
    :class:`repro.errors.ResourceLimitExceeded` when the requested computation
    would exceed the budget, which the experiment harness reports as a
    timeout, exactly like Table 2 does.
    """

    max_dense_qubits: int = 14
    max_statevector_qubits: int = 24
    max_seconds: float | None = None

    def check_dense_qubits(self, num_qubits: int, *, what: str = "density matrix") -> None:
        """Raise if a dense 4**n object would exceed the budget."""
        if num_qubits > self.max_dense_qubits:
            raise ResourceLimitExceeded(
                f"{what} simulation of {num_qubits} qubits exceeds the configured "
                f"budget of {self.max_dense_qubits} qubits "
                f"(2^{2 * num_qubits} complex entries)"
            )

    def check_statevector_qubits(self, num_qubits: int) -> None:
        """Raise if a dense 2**n state vector would exceed the budget."""
        if num_qubits > self.max_statevector_qubits:
            raise ResourceLimitExceeded(
                f"state-vector simulation of {num_qubits} qubits exceeds the configured "
                f"budget of {self.max_statevector_qubits} qubits"
            )


@dataclasses.dataclass
class AnalysisConfig:
    """Top-level configuration of the Gleipnir analyzer.

    Attributes:
        mps_width: bond dimension of the MPS approximator (w in the paper).
        sdp: SDP engine configuration.
        guard: resource guard for the dense baselines.

    Whether a noisy gate is ``noise ∘ U`` or ``U ∘ noise`` is the noise
    model's decision (:attr:`repro.noise.NoiseModel.noise_after_gate`), so
    the analysis and the exact semantics always model the same channel.
    """

    mps_width: int = DEFAULT_MPS_WIDTH
    sdp: SDPConfig = dataclasses.field(default_factory=SDPConfig)
    guard: ResourceGuard = dataclasses.field(default_factory=ResourceGuard)

    def validate(self) -> None:
        if self.mps_width < 1:
            raise ValueError("mps_width must be at least 1")
        self.sdp.validate()

    def replace(self, **kwargs) -> "AnalysisConfig":
        """Return a copy of this configuration with some fields replaced.

        Nested dataclasses (``sdp``, ``guard``) are deep-copied unless an
        explicit replacement is supplied, so mutating one copy never leaks
        into the original configuration.
        """
        for field in ("sdp", "guard"):
            if field not in kwargs:
                kwargs[field] = dataclasses.replace(getattr(self, field))
        return dataclasses.replace(self, **kwargs)


def full_scale_requested() -> bool:
    """Whether the environment asks for paper-scale experiment runs.

    The benchmark harness runs a reduced but shape-preserving configuration by
    default so that ``pytest benchmarks/`` finishes in minutes.  Setting the
    environment variable ``REPRO_FULL=1`` switches to the configuration used
    in the paper (MPS width 128, all Table 2 rows at full size).
    """
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")
