"""Generic SDPs through the batched packed ADMM kernel.

Each problem is written directly in the kernel's dense packed-real standard
form ``min <c, x>  s.t.  A x = b,  x in the PSD cone of its block layout``,
so these checks exercise :func:`admm_solve_packed_batch` on known optima
independently of the diamond-norm templates.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.linalg.hermitian import hunvec, hvec
from repro.sdp import PackedSDP, admm_solve_packed_batch, get_layout


def _packed(a, b, c, dims) -> PackedSDP:
    """A packed problem from dense (a, b, c), factorising ``A A^T``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    factor = scipy.linalg.cho_factor(a @ a.T, lower=True)
    return PackedSDP(
        a=a,
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        layout=get_layout(dims),
        factor=factor,
    )


def _scalar_lp_problem() -> PackedSDP:
    """min x0 + 2 x1  s.t.  x0 + x1 = 1, x >= 0 (as 1x1 PSD blocks)."""
    return _packed([[1.0, 1.0]], [1.0], [1.0, 2.0], (1, 1))


def _eigenvalue_problem() -> tuple[PackedSDP, float]:
    """min tr(C X) s.t. tr(X) = 1, X >= 0  ==> smallest eigenvalue of C."""
    c = np.diag([3.0, 1.0, 2.0])
    return _packed([hvec(np.eye(3))], [1.0], hvec(c), (3,)), 1.0


def _solve(problem: PackedSDP, **kwargs):
    return admm_solve_packed_batch([problem], **kwargs)[0]


class TestADMM:
    def test_linear_program(self):
        result = _solve(_scalar_lp_problem(), max_iterations=2000, tolerance=1e-8)
        assert result.converged
        assert np.isclose(result.primal_objective, 1.0, atol=1e-5)
        assert np.isclose(result.dual_objective, 1.0, atol=1e-5)
        assert result.x_vec[0] == pytest.approx(1.0, abs=1e-4)

    def test_smallest_eigenvalue_sdp(self):
        problem, expected = _eigenvalue_problem()
        result = _solve(problem, max_iterations=3000, tolerance=1e-8)
        assert np.isclose(result.primal_objective, expected, atol=1e-5)
        # Optimal X is the projector onto the smallest-eigenvalue eigenvector.
        assert hunvec(result.x_vec, 3)[1, 1].real == pytest.approx(1.0, abs=1e-3)

    def test_duality_gap_reported(self):
        problem, _ = _eigenvalue_problem()
        result = _solve(problem, max_iterations=2000, tolerance=1e-7)
        gap = abs(result.primal_objective - result.dual_objective) / (
            1.0 + abs(result.primal_objective) + abs(result.dual_objective)
        )
        assert gap < 1e-5

    def test_primal_iterate_is_psd(self):
        problem, _ = _eigenvalue_problem()
        result = _solve(problem, max_iterations=500)
        eigenvalues = np.linalg.eigvalsh(hunvec(result.x_vec, 3))
        assert eigenvalues.min() >= -1e-9

    def test_mixed_block_layout(self):
        """min tr(C X) + 1.5 t  s.t.  tr(X) + t = 1 over a 3x3 and a 1x1 block."""
        layout_vector = np.concatenate([hvec(np.eye(3)), [1.0]])
        objective = np.concatenate([hvec(np.diag([3.0, 2.0, 4.0])), [1.5]])
        problem = _packed([layout_vector], [1.0], objective, (3, 1))
        result = _solve(problem, max_iterations=3000, tolerance=1e-8)
        # The scalar block is the cheaper direction: all weight goes to t.
        assert np.isclose(result.primal_objective, 1.5, atol=1e-5)
        assert result.x_vec[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_mismatched_constraint_counts(self):
        one_row, _ = _eigenvalue_problem()
        two_rows = _packed(
            [hvec(np.eye(3)), hvec(np.diag([1.0, 0.0, 0.0]))],
            [1.0, 0.5],
            hvec(np.eye(3)),
            (3,),
        )
        with pytest.raises(ValueError, match="constraint count"):
            admm_solve_packed_batch([one_row, two_rows])

    def test_batch_solves_problems_of_one_shape_independently(self):
        """Two eigenvalue problems in one batch reach their own optima."""
        first, _ = _eigenvalue_problem()
        second = _packed([hvec(np.eye(3))], [1.0], hvec(np.diag([0.5, 4.0, 2.0])), (3,))
        results = admm_solve_packed_batch(
            [first, second], max_iterations=3000, tolerance=1e-8
        )
        assert np.isclose(results[0].primal_objective, 1.0, atol=1e-5)
        assert np.isclose(results[1].primal_objective, 0.5, atol=1e-5)
