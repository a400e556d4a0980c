"""Unit and property tests for repro.linalg.norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    distribution_from_counts,
    frobenius_norm,
    hilbert_schmidt_distance,
    operator_norm,
    pure_density,
    plus_state,
    random_density_matrix,
    schatten_norm,
    statistical_distance,
    trace_distance,
    trace_norm,
    trace_norm_distance,
    zero_state,
)
from repro.linalg.norms import hermitian_mask


class TestSchattenNorms:
    def test_trace_norm_of_projector(self):
        assert np.isclose(trace_norm(pure_density(zero_state(1))), 1.0)

    def test_operator_norm(self):
        assert np.isclose(operator_norm(np.diag([3.0, -5.0])), 5.0)

    def test_frobenius_matches_numpy(self):
        mat = np.arange(9).reshape(3, 3).astype(complex)
        assert np.isclose(frobenius_norm(mat), np.linalg.norm(mat))

    def test_schatten_interpolation_ordering(self):
        mat = np.diag([1.0, 2.0, 3.0])
        assert schatten_norm(mat, 1) >= schatten_norm(mat, 2) >= schatten_norm(mat, np.inf)

    def test_schatten_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0)

    def test_non_hermitian_matrix(self):
        mat = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.isclose(trace_norm(mat), 1.0)


class TestHermitianMask:
    """The one Hermitian test agrees with ``np.allclose(m, mᴴ, atol)``."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(11)
        cases = []
        for dim in (1, 2, 4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            hermitian = a + a.conj().T
            cases.append(hermitian)
            for scale in (1e-13, 1e-12, 2e-12, 1e-10, 1e-5):
                nudged = hermitian.copy()
                nudged[0, -1] += scale * (1 + 1j)
                cases.append(nudged)  # almost Hermitian, either side of atol
            cases.append(a)  # not Hermitian
            with_nan = hermitian.copy()
            with_nan[0, 0] = np.nan
            cases.append(with_nan)
        cases.append(np.array([[1.0, 2.0], [2.0, 1.0 + 1e-6]]))  # real, exact
        # Deviation at the rtol edge, with |m[0, 1]| != |m[1, 0]|.
        cases.append(np.array([[0.0, 1.0], [1.0 + 1e-5 + 5e-11, 0.0]]))
        cases.append(np.array([[0.0, 1.0], [1.0 + 1e-5 - 5e-11, 0.0]]))
        return cases

    @pytest.mark.parametrize("atol", [1e-12, 1e-9])
    def test_agrees_with_allclose_one_at_a_time(self, atol):
        for matrix in self._cases():
            expected = np.allclose(matrix, matrix.conj().T, atol=atol)
            assert bool(hermitian_mask(matrix, atol=atol)) == expected

    def test_stack_agrees_with_allclose_per_matrix(self):
        cases = [m for m in self._cases() if m.shape == (2, 2)]
        mask = hermitian_mask(np.stack(cases))
        assert mask.shape == (len(cases),)
        assert list(mask) == [np.allclose(m, m.conj().T, atol=1e-12) for m in cases]
        assert 0 < mask.sum() < len(cases)

    def test_trace_norm_branch_follows_the_mask(self, monkeypatch):
        """Hermitian inputs take eigvalsh, the rest svd."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: calls.append("eigvalsh") or eigvalsh(m)
        )
        trace_norm(np.diag([1.0, -2.0]))
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert calls == ["eigvalsh"]


class TestDistances:
    def test_trace_distance_orthogonal_states(self):
        assert np.isclose(
            trace_distance(pure_density(zero_state(1)), pure_density(np.array([0, 1.0]))), 1.0
        )

    def test_trace_distance_identical(self):
        rho = random_density_matrix(2, rng=np.random.default_rng(0))
        assert np.isclose(trace_distance(rho, rho), 0.0, atol=1e-12)

    def test_trace_norm_distance_is_twice_trace_distance(self):
        a = pure_density(zero_state(1))
        b = pure_density(plus_state(1))
        assert np.isclose(trace_norm_distance(a, b), 2 * trace_distance(a, b))

    def test_trace_distance_accepts_vectors(self):
        assert np.isclose(trace_distance(zero_state(1), plus_state(1)), 1 / np.sqrt(2))

    def test_hilbert_schmidt_distance(self):
        a = pure_density(zero_state(1))
        assert np.isclose(hilbert_schmidt_distance(a, a), 0.0)


class TestStatisticalDistance:
    def test_vectors(self):
        assert np.isclose(statistical_distance([0.5, 0.5], [1.0, 0.0]), 0.5)

    def test_dicts_with_missing_keys(self):
        assert np.isclose(statistical_distance({"00": 1.0}, {"11": 1.0}), 1.0)

    def test_distribution_from_counts(self):
        dist = distribution_from_counts({"0": 3, "1": 1})
        assert np.isclose(dist["0"], 0.75)

    def test_distribution_from_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            distribution_from_counts({})

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            statistical_distance(np.array([1.0]), np.array([0.5, 0.5]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2000), num_qubits=st.integers(1, 2))
def test_trace_distance_properties(seed, num_qubits):
    """Trace distance is a metric bounded by 1 on density matrices."""
    rng = np.random.default_rng(seed)
    a = random_density_matrix(num_qubits, rng=rng)
    b = random_density_matrix(num_qubits, rng=rng)
    c = random_density_matrix(num_qubits, rng=rng)
    dab = trace_distance(a, b)
    dba = trace_distance(b, a)
    assert 0.0 <= dab <= 1.0 + 1e-9
    assert np.isclose(dab, dba, atol=1e-9)
    # Triangle inequality.
    assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2000))
def test_frobenius_lower_bounds_trace_norm(seed):
    """||A||_F <= ||A||_1, the inequality Theorem 6.1 relies on."""
    rng = np.random.default_rng(seed)
    a = random_density_matrix(2, rng=rng)
    b = random_density_matrix(2, rng=rng)
    diff = a - b
    assert frobenius_norm(diff) <= trace_norm(diff) + 1e-9
