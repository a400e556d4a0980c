"""Generic SDPs through the batched packed interior-point kernel.

Each problem is written directly in the kernel's dense packed-real standard
form ``min <c, x>  s.t.  A x = b,  x in the PSD cone of its block layout``,
so these checks exercise :func:`ipm_solve_packed_batch` on known optima
independently of the diamond-norm templates.  The file and class keep the
names they had when the kernel ran ADMM, so the test ids stay stable.
"""

import numpy as np
import pytest

from repro.config import SDPConfig
from repro.linalg import HADAMARD, identity_channel, pure_density, zero_state
from repro.linalg.hermitian import hunvec, hvec
from repro.noise import bit_flip, depolarizing
from repro.sdp import (
    PackedSDP,
    constrained_diamond_norm,
    constrained_diamond_norms_batch,
    gate_error_bound,
    get_layout,
    ipm_solve_packed_batch,
    verify_certificate,
)
from repro.sdp import diamond
from repro.sdp.diamond import _get_template, rho_delta_constraint_bound


def _packed(a, b, c, dims) -> PackedSDP:
    return PackedSDP(
        a=np.atleast_2d(np.asarray(a, dtype=float)),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        layout=get_layout(dims),
    )


def _scalar_lp_problem() -> PackedSDP:
    """min x0 + 2 x1  s.t.  x0 + x1 = 1, x >= 0 (as 1x1 PSD blocks)."""
    return _packed([[1.0, 1.0]], [1.0], [1.0, 2.0], (1, 1))


def _eigenvalue_problem() -> tuple[PackedSDP, float]:
    """min tr(C X) s.t. tr(X) = 1, X >= 0  ==> smallest eigenvalue of C."""
    c = np.diag([3.0, 1.0, 2.0])
    return _packed([hvec(np.eye(3))], [1.0], hvec(c), (3,)), 1.0


#: The cap and tolerance the analyzer passes by default.
DEFAULTS = {"max_iterations": SDPConfig().max_iterations, "tolerance": SDPConfig().tolerance}


def _solve(problem: PackedSDP, **kwargs):
    return ipm_solve_packed_batch([problem], **{**DEFAULTS, **kwargs})[0]


def _no_slater_problem() -> PackedSDP:
    """Eq. (2) with a pure predicate and δ = 0: ``tr(ρ̂ ρ) >= 1`` forces ρ = ρ̂.

    This is the reduced problem of a Hadamard under bit-flip noise on |0>:
    the predicate becomes |+><+|, and no strictly feasible ρ exists.
    """
    choi = bit_flip(1e-3).choi() - identity_channel(1).choi()
    choi = (choi + choi.conj().T) / 2
    choi /= np.abs(np.linalg.eigvalsh(choi)).sum()
    plus = HADAMARD @ pure_density(zero_state(1)) @ HADAMARD.conj().T
    return _get_template(4, True).instantiate_batch(
        [choi], [plus], [rho_delta_constraint_bound(plus, 0.0)]
    )[0]


class TestADMM:
    def test_linear_program(self):
        result = _solve(_scalar_lp_problem(), max_iterations=50, tolerance=1e-9)
        assert result.converged
        assert result.iterations <= 15
        assert result.primal_objective == pytest.approx(1.0, abs=1e-8)
        assert result.dual_objective == pytest.approx(1.0, abs=1e-8)
        assert result.x_vec[0] == pytest.approx(1.0, abs=1e-8)

    def test_smallest_eigenvalue_sdp(self):
        problem, expected = _eigenvalue_problem()
        result = _solve(problem, max_iterations=50, tolerance=1e-9)
        assert result.converged
        assert result.primal_objective == pytest.approx(expected, abs=1e-8)
        # Optimal X is the projector onto the smallest-eigenvalue eigenvector.
        assert hunvec(result.x_vec, 3)[1, 1].real == pytest.approx(1.0, abs=1e-7)

    def test_duality_gap_reported(self):
        problem, _ = _eigenvalue_problem()
        result = _solve(problem, max_iterations=50, tolerance=1e-9)
        gap = abs(result.primal_objective - result.dual_objective) / (
            1.0 + abs(result.primal_objective) + abs(result.dual_objective)
        )
        assert gap < 1e-9
        assert result.primal_residual < 1e-9
        assert result.dual_residual < 1e-9

    def test_primal_iterate_is_psd(self):
        """Every iterate stays strictly inside the cone, the last one too."""
        problem, _ = _eigenvalue_problem()
        for cap in (1, 2, 5):
            result = _solve(problem, max_iterations=cap)
            assert result.iterations == cap
            assert np.linalg.eigvalsh(hunvec(result.x_vec, 3)).min() > 0
            assert np.linalg.eigvalsh(hunvec(result.s_vec, 3)).min() > 0

    def test_mixed_block_layout(self):
        """min tr(C X) + 1.5 t  s.t.  tr(X) + t = 1 over a 3x3 and a 1x1 block."""
        layout_vector = np.concatenate([hvec(np.eye(3)), [1.0]])
        objective = np.concatenate([hvec(np.diag([3.0, 2.0, 4.0])), [1.5]])
        problem = _packed([layout_vector], [1.0], objective, (3, 1))
        result = _solve(problem, max_iterations=50, tolerance=1e-9)
        # The scalar block is the cheaper direction: all weight goes to t.
        assert result.primal_objective == pytest.approx(1.5, abs=1e-8)
        assert result.x_vec[-1] == pytest.approx(1.0, abs=1e-8)

    def test_rejects_mismatched_constraint_counts(self):
        one_row, _ = _eigenvalue_problem()
        two_rows = _packed(
            [hvec(np.eye(3)), hvec(np.diag([1.0, 0.0, 0.0]))],
            [1.0, 0.5],
            hvec(np.eye(3)),
            (3,),
        )
        with pytest.raises(ValueError, match="constraint count"):
            ipm_solve_packed_batch([one_row, two_rows], **DEFAULTS)

    def test_batch_solves_problems_of_one_shape_independently(self):
        """Two eigenvalue problems in one batch reach their own optima."""
        first, _ = _eigenvalue_problem()
        second = _packed([hvec(np.eye(3))], [1.0], hvec(np.diag([0.5, 4.0, 2.0])), (3,))
        results = ipm_solve_packed_batch([first, second], max_iterations=50, tolerance=1e-9)
        assert results[0].primal_objective == pytest.approx(1.0, abs=1e-8)
        assert results[1].primal_objective == pytest.approx(0.5, abs=1e-8)

    def test_empty_batch_and_mixed_shapes(self):
        assert ipm_solve_packed_batch([], **DEFAULTS) == []
        assert diamond.admm_solve_packed_batch([], **DEFAULTS) == []
        problem, _ = _eigenvalue_problem()
        with pytest.raises(ValueError, match="one layout"):
            ipm_solve_packed_batch([problem, _scalar_lp_problem()], **DEFAULTS)

    def test_no_slater_point_ends_finite_and_unconverged(self):
        """A problem with no strictly feasible point freezes, it never raises."""
        result = _solve(_no_slater_problem())
        assert not result.converged
        assert result.iterations < SDPConfig().max_iterations
        for vector in (result.x_vec, result.y, result.s_vec):
            assert np.isfinite(vector).all()

    def test_no_slater_point_certificate_is_sound(self):
        """The same problem through the analyzer's entry point: unconverged,
        certified, and close to the true value 0 (|+> is a fixed point of X)."""
        bound = gate_error_bound(HADAMARD, bit_flip(1e-3), pure_density(zero_state(1)), 0.0)
        assert bound.method == "certified"
        assert not bound.converged
        assert verify_certificate(bound.certificate, bound.choi)
        assert 0.0 <= bound.value < 1e-5

    def test_bound_alone_equals_bound_in_a_batch_of_50(self):
        rng = np.random.default_rng(3)
        requests = []
        for index in range(50):
            noise = bit_flip if index % 2 else depolarizing
            choi = noise(float(rng.uniform(1e-4, 1e-2))).choi() - identity_channel(1).choi()
            vector = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = np.outer(vector, vector.conj()) / np.vdot(vector, vector).real
            rho = 0.8 * rho + 0.1 * np.eye(2)
            requests.append((choi, rho, float(rng.uniform(0.3, 0.9))))
        batch = constrained_diamond_norms_batch(requests)
        for index in (0, 17, 49):
            choi, rho, bound_c = requests[index]
            alone = constrained_diamond_norm(
                choi, constraint_operator=rho, constraint_bound=bound_c
            )
            assert alone.value == pytest.approx(batch[index].value, rel=1e-12, abs=0.0)
            assert verify_certificate(alone.certificate, alone.choi)
