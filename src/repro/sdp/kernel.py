"""Vectorized packed-real kernel of the diamond-norm SDP solver.

The batched interior-point iteration works on a flat packed-real variable
whose blocks are Hermitian matrices: every iteration unpacks blocks,
eigendecomposes them and packs results back.  This module precomputes, per
block *structure* (the tuple of block side lengths), the index maps needed to
do that with whole-array numpy work:

* :class:`BlockLayout` — gather/scatter maps between the flat packed-real
  vector and stacked ``(k, d, d)`` complex arrays, one stack per distinct
  block size, so same-sized blocks are unpacked, eigendecomposed and repacked
  together in single batched calls;
* :func:`BlockLayout.project_psd` — the fused flat→blocks→eigh→clip→flat
  PSD projection (one batched ``eigh`` per distinct block size, scalars
  clipped directly on the flat vector);
* :class:`PackedSDP` / :func:`ipm_solve_packed_batch` — a standard-form SDP
  in dense packed-real form and the lock-step interior-point iteration over
  many same-shaped ones, which the shape templates of
  :mod:`repro.sdp.diamond` instantiate and solve.

Layouts are cached per dims-tuple (:func:`get_layout`), so the maps are built
once per problem shape for the lifetime of the process.

The packed-real embedding is the same isometry as ``hvec``: for each block,
``d`` real diagonal entries, then ``d(d-1)/2`` real parts and ``d(d-1)/2``
imaginary parts of the strict upper triangle scaled by ``sqrt(2)``; the flat
inner product therefore equals the block trace inner product, and round-trips
of Hermitian input are exact to machine precision (diagonals bit-exactly,
off-diagonals up to the ulps of the ``sqrt(2)`` scaling).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import scipy.linalg

from ..config import check_deadline

__all__ = [
    "SOLVER_VERSION",
    "BlockLayout",
    "PackedSDP",
    "PackedIPMResult",
    "get_layout",
    "ipm_solve_packed_batch",
    "pack_hermitian_stack",
    "positive_part_stack",
    "unpack_hermitian_stack",
]

_SQRT2 = np.sqrt(2.0)


@dataclasses.dataclass(frozen=True)
class _BlockGroup:
    """All blocks of one side length, packed together.

    Both directions work on the float64 view of the ``(k, dim, dim)`` complex
    stack, whose row-major layout interleaves real and imaginary parts:
    float ``2*(r*dim + c)`` is ``Re M[r, c]`` and the next one ``Im M[r, c]``.

    Attributes:
        dim: block side length (``> 1``; scalars are handled separately).
        gather: int array of shape ``(k, dim*dim)`` mapping the group's
            packed-real coordinates to flat-vector positions, ordered
            ``[diag | sqrt2*Re upper | sqrt2*Im upper]`` per block.
        unpack_source: int array of shape ``(k, 2*dim*dim)``: the flat-vector
            position each float of the complex stack is read from (a
            diagonal entry's imaginary float reads its real coordinate).
        unpack_scale: ``(2*dim*dim,)`` factors applied to those reads — 1 on
            the diagonal, ``fl(1/sqrt2)`` off it (negated for the imaginary
            parts below the diagonal), 0 for the diagonal's imaginary parts.
        unpack_imag_zero / unpack_diag_zero: ``(2*dim*dim,)`` additive
            zeros, ``+0.0`` on the off-diagonal imaginary floats (before
            scaling) and on the diagonal imaginary floats (after), ``-0.0``
            (the identity) elsewhere; see :meth:`BlockLayout.unpack_group`.
        pack_source: ``(dim*dim,)`` float-view positions of one block's
            packed-real coordinates, in ``gather`` order.
        pack_scale: ``(dim*dim,)`` factors 1 (diagonal) and sqrt2 (upper).
        basis_index / basis_coeffs: ``(2, dim*dim)`` arrays giving, for
            each packed coordinate ``p``, the two nonzero entries of the
            row-major ``vec`` of its Hermitian basis matrix ``E_p`` (their
            positions and coefficients; a diagonal coordinate repeats its
            position with coefficient 0).  They are the columns of the map
            ``U`` with ``U e_p = vec(E_p)``, stored sparsely, so that
            ``Re(U^H vec(M))`` packs the Hermitian part of any square ``M``.
    """

    dim: int
    gather: np.ndarray
    unpack_source: np.ndarray
    unpack_scale: np.ndarray
    unpack_imag_zero: np.ndarray
    unpack_diag_zero: np.ndarray
    pack_source: np.ndarray
    pack_scale: np.ndarray
    basis_index: np.ndarray
    basis_coeffs: np.ndarray

    @classmethod
    def build(cls, dim: int, gather: np.ndarray) -> "_BlockGroup":
        d = dim
        rows, cols = np.triu_indices(d, k=1)
        m = rows.size
        diag = np.arange(d)
        upper = d + np.arange(m)
        inv_sqrt2 = 1.0 / _SQRT2
        # Per float of one block: packed coordinate, factor and zeros.
        coordinate = np.zeros((d, d, 2), dtype=np.intp)
        scale = np.zeros((d, d, 2))
        imag_zero = np.full((d, d, 2), -0.0)
        diag_zero = np.full((d, d, 2), -0.0)
        coordinate[diag, diag, :] = diag[:, None]
        scale[diag, diag, 0] = 1.0
        diag_zero[diag, diag, 1] = 0.0
        for r, c in ((rows, cols), (cols, rows)):
            coordinate[r, c, 0] = upper
            coordinate[r, c, 1] = upper + m
            scale[r, c, 0] = inv_sqrt2
            imag_zero[r, c, 1] = 0.0
        scale[rows, cols, 1] = inv_sqrt2
        scale[cols, rows, 1] = -inv_sqrt2
        float_position = 2 * (rows * d + cols)
        basis_coeffs = np.zeros((2, d * d), dtype=np.complex128)
        basis_coeffs[0, :d] = 1.0
        basis_coeffs[:, d : d + m] = inv_sqrt2
        basis_coeffs[0, d + m :] = 1j * inv_sqrt2
        basis_coeffs[1, d + m :] = -1j * inv_sqrt2
        upper_index, lower_index = rows * d + cols, cols * d + rows
        return cls(
            dim=d,
            gather=gather,
            unpack_source=gather[:, coordinate.reshape(-1)],
            unpack_scale=scale.reshape(-1),
            unpack_imag_zero=imag_zero.reshape(-1),
            unpack_diag_zero=diag_zero.reshape(-1),
            pack_source=np.concatenate(
                [2 * (diag * d + diag), float_position, float_position + 1]
            ),
            pack_scale=np.concatenate([np.ones(d), np.full(2 * m, _SQRT2)]),
            basis_index=np.stack(
                [
                    np.concatenate([diag * (d + 1), upper_index, upper_index]),
                    np.concatenate([diag * (d + 1), lower_index, lower_index]),
                ]
            ),
            basis_coeffs=basis_coeffs,
        )


class BlockLayout:
    """Precomputed pack/unpack/projection maps for one block structure."""

    def __init__(self, dims: tuple[int, ...] | list[int]):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("block dimensions must be positive")
        self.total_real_dim = sum(d * d for d in self.dims)
        self.offsets = np.cumsum([0] + [d * d for d in self.dims])

        by_dim: dict[int, list[int]] = {}
        for index, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(index)

        self.scalar_positions = np.array(
            [self.offsets[i] for i in by_dim.get(1, [])], dtype=np.intp
        )
        self.groups: list[_BlockGroup] = []
        for d in sorted(by_dim):
            if d == 1:
                continue
            indices = by_dim[d]
            gather = np.empty((len(indices), d * d), dtype=np.intp)
            for row, block_index in enumerate(indices):
                gather[row] = self.offsets[block_index] + np.arange(d * d)
            self.groups.append(_BlockGroup.build(d, gather))

    # -- packing -----------------------------------------------------------------
    # All three structural operations are leading-dimension agnostic: a vector
    # of shape (..., total_real_dim) is handled with the trailing axis packed,
    # so a whole batch of independent SDP iterates can be projected with the
    # same code (and a single batched eigh) as a single one.

    def unpack_group(self, vector: np.ndarray, group: _BlockGroup) -> np.ndarray:
        """Stacked ``(..., k, d, d)`` Hermitian matrices of one group.

        Bit-identical to ``hunvec`` of each block, signed zeros included
        (LAPACK's Householder reflections branch on the sign of a zero, so
        ``eigh`` can tell them apart).  ``hunvec`` computes the upper entry
        as ``(re + 1j*im) / sqrt2``; in IEEE arithmetic that is exactly
        ``(re*s + 0*t, t*s)`` with ``s = fl(1/sqrt2)`` and ``t = im + 0.0``,
        its conjugate is ``(re*s + 0*t, -(t*s))``, and every diagonal
        imaginary part is ``+0.0``.
        """
        d = group.dim
        # np.take allocates its result C-ordered (fancy indexing after an
        # ellipsis may not), which the complex view of the last axis needs.
        read = np.take(vector, group.unpack_source, axis=-1)
        read += group.unpack_imag_zero
        floats = read * group.unpack_scale
        imag = read[..., 1::2]
        imag *= 0.0
        floats[..., 0::2] += imag
        floats += group.unpack_diag_zero
        return floats.view(np.complex128).reshape(floats.shape[:-1] + (d, d))

    def pack_group(
        self, matrices: np.ndarray, group: _BlockGroup, out: np.ndarray
    ) -> None:
        """Scatter stacked Hermitian matrices back into the flat vector(s)."""
        d = group.dim
        floats = np.ascontiguousarray(matrices, dtype=np.complex128).view(np.float64)
        floats = floats.reshape(matrices.shape[:-2] + (2 * d * d,))
        out[..., group.gather] = (
            np.take(floats, group.pack_source, axis=-1) * group.pack_scale
        )

    # -- the fused hot-path operation --------------------------------------------
    def project_psd(self, vector: np.ndarray) -> np.ndarray:
        """PSD-cone projection of packed block variable(s), fully batched.

        Equivalent to unpacking every block, replacing it by its positive
        part (scalars clipped at zero), and repacking — but with one batched
        ``eigh`` per distinct block size and no per-block Python loop.
        Accepts any leading batch shape: ``(..., total_real_dim)``.  No
        solver step calls it; the benchmark harnesses time it by name.
        """
        out = np.zeros(vector.shape, dtype=float)
        if self.scalar_positions.size:
            out[..., self.scalar_positions] = np.clip(
                vector[..., self.scalar_positions], 0.0, None
            )
        for group in self.groups:
            matrices = self.unpack_group(vector, group)
            eigenvalues, eigenvectors = np.linalg.eigh(matrices)
            np.clip(eigenvalues, 0.0, None, out=eigenvalues)
            self.pack_group(_from_eigen(eigenvectors, eigenvalues), group, out)
        return out


# ---------------------------------------------------------------------------
# Stacked Hermitian primitives (shared by the batch certification pass)
# ---------------------------------------------------------------------------

def _from_eigen(eigenvectors: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``V diag(λ) V^H`` for stacks of eigenpairs."""
    return (eigenvectors * eigenvalues[..., None, :]) @ eigenvectors.conj().swapaxes(-1, -2)


def positive_part_stack(matrices: np.ndarray) -> np.ndarray:
    """Positive part ``A_+`` of a stack of Hermitian matrices, one batched eigh.

    Accepts any leading batch shape ``(..., d, d)``; each matrix is
    symmetrised first, exactly like :func:`repro.linalg.decompositions.positive_part`
    does for a single matrix.  Per-element results are independent of the
    batch composition, which is what lets the fused certification pass
    produce bit-identical bounds to one-at-a-time certification.
    """
    matrices = np.asarray(matrices, dtype=np.complex128)
    matrices = (matrices + matrices.conj().swapaxes(-1, -2)) / 2
    eigenvalues, eigenvectors = np.linalg.eigh(matrices)
    return _from_eigen(eigenvectors, np.clip(eigenvalues, 0.0, None))


def pack_hermitian_stack(matrices: np.ndarray) -> np.ndarray:
    """Batched ``hvec``: Hermitian ``(..., n, n)`` → packed-real ``(..., n*n)``.

    Performs the exact elementwise operations of
    :func:`repro.linalg.hermitian.hvec` (symmetrise, real diagonal, then
    ``sqrt(2)``-scaled real and imaginary strict upper triangles) on a whole
    stack, so packing a batch is bit-identical to packing each matrix alone.
    The batched template instantiation of :mod:`repro.sdp.diamond` uses this
    to write all objective vectors and predicate rows of a solve class in two
    calls.
    """
    matrices = np.asarray(matrices, dtype=np.complex128)
    matrices = (matrices + matrices.conj().swapaxes(-1, -2)) / 2
    n = matrices.shape[-1]
    out = np.empty(matrices.shape[:-2] + (n * n,), dtype=float)
    diag_idx = np.arange(n)
    out[..., :n] = matrices[..., diag_idx, diag_idx].real
    if n > 1:
        rows, cols = np.triu_indices(n, k=1)
        m = rows.size
        upper = matrices[..., rows, cols]
        out[..., n : n + m] = _SQRT2 * upper.real
        out[..., n + m :] = _SQRT2 * upper.imag
    return out


def unpack_hermitian_stack(vectors: np.ndarray, n: int) -> np.ndarray:
    """Batched ``hunvec``: packed-real ``(..., n*n)`` → Hermitian ``(..., n, n)``.

    Reuses the :class:`BlockLayout` gather machinery of a single-block layout,
    whose packed-real embedding is the same isometry as
    :func:`repro.linalg.hermitian.hvec` (diagonal first, then ``sqrt(2)``-scaled
    real and imaginary strict-upper triangles).
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[-1] != n * n:
        raise ValueError(
            f"expected trailing dimension {n * n} for side length {n}, "
            f"got {vectors.shape[-1]}"
        )
    if n == 1:
        return vectors.astype(np.complex128)[..., None]
    layout = get_layout((n,))
    matrices = layout.unpack_group(vectors, layout.groups[0])
    return matrices[..., 0, :, :]


_LAYOUT_CACHE: dict[tuple[int, ...], BlockLayout] = {}
_LAYOUT_LOCK = threading.Lock()


def get_layout(dims: tuple[int, ...] | list[int]) -> BlockLayout:
    """Process-wide cached :class:`BlockLayout` for a dims tuple."""
    key = tuple(int(d) for d in dims)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        with _LAYOUT_LOCK:
            layout = _LAYOUT_CACHE.get(key)
            if layout is None:
                layout = BlockLayout(key)
                _LAYOUT_CACHE[key] = layout
    return layout


# ---------------------------------------------------------------------------
# Packed interior-point core
# ---------------------------------------------------------------------------

#: Identity of the solver below, together with the problems the templates of
#: :mod:`repro.sdp.diamond` hand it.  Any change that moves the iterates
#: (start point, direction, step rule, stopping test, problem scaling) must
#: change this string: job fingerprints bind it, so answers found by an older
#: solver are never served as this solver's answers.
SOLVER_VERSION = "mehrotra-hkm/identity-start/step-0.95/cap-scaled"

#: Fraction of the distance to the cone boundary that a step covers.
_STEP_TO_BOUNDARY = 0.95

#: Schur matrix order from which the Newton systems are solved with the
#: Cholesky factor (the d = 16 templates, order 257) instead of by LU (the
#: d = 4 ones, order 17 and 18).
_CHOLESKY_SOLVE_MIN_ORDER = 64

#: Iterations in a row whose dual objective moves by less than the tolerance
#: (relative) before a problem counts as stalled and is frozen.
_PLATEAU_ITERATIONS = 3


@dataclasses.dataclass
class PackedSDP:
    """A standard-form SDP ``min <c, x>  s.t.  A x = b,  x ⪰ 0`` in packed-real form.

    ``x`` ranges over the product of the PSD cones of ``layout``; the dual is
    ``max <b, y>  s.t.  c - A^T y = s ⪰ 0``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    layout: BlockLayout


@dataclasses.dataclass
class PackedIPMResult:
    """Flat-vector outcome of the packed interior-point iteration."""

    x_vec: np.ndarray
    y: np.ndarray
    s_vec: np.ndarray
    primal_objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


def _guarded(function, stack: np.ndarray, failed: np.ndarray, *operands: np.ndarray):
    """``function(stack, *operands)``, isolating the problems a batched LAPACK call fails on.

    ``stack`` holds square matrices with the problem axis first, and so does
    every operand.  A batched call raises for the whole stack when one
    matrix fails (``eigh`` does not converge, Cholesky finds no positive
    definite matrix, LU finds a singular one); the failing problems are then
    found one by one, marked in ``failed`` and given identity matrices, so
    they freeze with their last iterate while the rest of the batch goes on.
    """
    try:
        return function(stack, *operands)
    except np.linalg.LinAlgError:
        pass
    stack = stack.copy()
    eye = np.eye(stack.shape[-1])
    for index in range(len(stack)):
        try:
            function(stack[index], *(operand[index] for operand in operands))
        except np.linalg.LinAlgError:
            failed[index] = True
            stack[index] = eye
    return function(stack, *operands)


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M x = rhs`` from the lower Cholesky factor of ``M``."""
    return scipy.linalg.cho_solve((factor, True), rhs, check_finite=False)


def _hermitian_part(matrices: np.ndarray) -> np.ndarray:
    return (matrices + matrices.conj().swapaxes(-1, -2)) / 2


#: Complex entries (512 KiB) that one intermediate of :func:`_hkm_block` may
#: hold: it builds the matrices of as many blocks at once as fit, so a solve
#: class of hundreds of problems does not raise peak memory.
_HKM_CHUNK_ENTRIES = 1 << 15


def _hkm_block(group: _BlockGroup, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """``H = Re(U^H (X ⊗ S^{-T}) U)`` for stacks of one group's blocks.

    ``H`` is the packed-coordinate matrix of the map ``Z -> herm(X Z S^{-1})``
    (row-major ``vec(X Z S^{-1}) = (X ⊗ S^{-T}) vec(Z)``); it is symmetric
    and positive semidefinite for ``X, S ≻ 0``.  ``U`` has two nonzeros per
    column, so both products are two gathers each: ``O(d^4)`` work per block
    rather than the ``O(d^6)`` of dense products, which matters for the
    d = 16 blocks of two-qubit channels.
    """
    d = group.dim
    index, coeffs = group.basis_index, group.basis_coeffs
    conj_coeffs = coeffs.conj()[:, :, None]
    x = x.reshape((-1, d, d))
    s_inv_t = s_inv.reshape((-1, d, d)).swapaxes(-1, -2)
    h = np.empty((len(x), d * d, d * d))
    chunk = max(1, _HKM_CHUNK_ENTRIES // d**4)
    for start in range(0, len(x), chunk):
        part = slice(start, start + chunk)
        kron = x[part, :, None, :, None] * s_inv_t[part, None, :, None, :]
        kron = kron.reshape((-1, d * d, d * d))
        for axis, weights in ((-1, coeffs), (-2, conj_coeffs)):
            product = np.take(kron, index[0], axis=axis)
            product *= weights[0]
            term = np.take(kron, index[1], axis=axis)
            term *= weights[1]
            product += term
            kron = product
        h[part] = kron.real
    return h.reshape(s_inv.shape[:-2] + (d * d, d * d))


class _Scaling:
    """The HKM scaling at one iterate ``(x, s)`` of a batch.

    Holds, per block group, ``S^{-1}``, ``X^{-1/2}``, ``S^{-1/2}`` and the
    matrices ``H_b = Re(U^H (X ⊗ S^{-T}) U)`` of the maps
    ``Z -> herm(X Z S^{-1})`` in packed coordinates; the scalar blocks carry
    the same quantities elementwise.  The predictor and the corrector share
    one scaling, so each iteration makes one batched ``eigh`` per block group.
    """

    def __init__(self, layout: BlockLayout, x: np.ndarray, s: np.ndarray, failed: np.ndarray):
        self.layout = layout
        tiny = np.finfo(float).tiny
        self.inv_s = np.zeros_like(s)
        self.h = []
        self.x_isqrt = []
        self.s_isqrt = []
        for group in layout.groups:
            k = group.gather.shape[0]
            x_blocks = layout.unpack_group(x, group)
            both = np.concatenate([x_blocks, layout.unpack_group(s, group)], axis=1)
            eigenvalues, eigenvectors = _guarded(np.linalg.eigh, both, failed)
            eigenvalues = np.maximum(eigenvalues, tiny)
            isqrt = _from_eigen(eigenvectors, eigenvalues**-0.5)
            s_inv = _from_eigen(eigenvectors[:, k:], 1.0 / eigenvalues[:, k:])
            self.x_isqrt.append(isqrt[:, :k])
            self.s_isqrt.append(isqrt[:, k:])
            layout.pack_group(s_inv, group, self.inv_s)
            self.h.append(_hkm_block(group, x_blocks, s_inv))
        positions = layout.scalar_positions
        self.x_scalars = np.maximum(x[:, positions], tiny)
        self.s_scalars = np.maximum(s[:, positions], tiny)
        self.inv_s[:, positions] = 1.0 / self.s_scalars
        self.h_scalars = x[:, positions] / self.s_scalars

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``H v``: the packed ``herm(X V S^{-1})`` of every block."""
        out = np.empty_like(vector)
        for group, h in zip(self.layout.groups, self.h):
            out[:, group.gather] = (h @ vector[:, group.gather][..., None])[..., 0]
        positions = self.layout.scalar_positions
        out[:, positions] = self.h_scalars * vector[:, positions]
        return out

    def schur(self, a: np.ndarray, identity_rows: list) -> np.ndarray:
        """``M = Σ_b A_b H_b A_b^T``, symmetrised.

        A block's ``d*d`` packed coordinates are contiguous in the flat
        vector, so each ``A_b`` is a view of ``a``, not a copy.  A block
        whose columns are ``±I`` (``identity_rows``, from
        :func:`_identity_columns`) adds ``H_b`` to a diagonal block of ``M``
        instead: for the coupling columns of the d = 16 template that spares
        two dense ``257 x 256`` products per block.
        """
        positions = self.layout.scalar_positions
        a_scalars = a[:, :, positions]
        schur = (a_scalars * self.h_scalars[:, None, :]) @ a_scalars.swapaxes(-1, -2)
        for group, h, group_rows in zip(self.layout.groups, self.h, identity_rows):
            width = group.dim**2
            for block, start in enumerate(group.gather[:, 0]):
                first = group_rows[block]
                if first is not None:
                    schur[:, first : first + width, first : first + width] += h[:, block]
                    continue
                a_block = a[:, :, start : start + width]
                schur += a_block @ h[:, block] @ a_block.swapaxes(-1, -2)
        return (schur + schur.swapaxes(-1, -2)) / 2

    def second_order(self, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """Mehrotra's correction: packed ``herm(ΔX ΔS S^{-1})``."""
        out = np.empty_like(dx)
        for group in self.layout.groups:
            s_inv = self.layout.unpack_group(self.inv_s, group)
            product = (
                self.layout.unpack_group(dx, group) @ self.layout.unpack_group(ds, group) @ s_inv
            )
            self.layout.pack_group(_hermitian_part(product), group, out)
        positions = self.layout.scalar_positions
        out[:, positions] = dx[:, positions] * ds[:, positions] / self.s_scalars
        return out

    def max_steps(self, dx: np.ndarray, ds: np.ndarray, failed: np.ndarray):
        """Largest primal and dual steps that keep ``x`` and ``s`` in the cone.

        The step to the boundary along ``ΔX`` is ``-1/λ_min(X^{-1/2} ΔX X^{-1/2})``
        when that eigenvalue is negative (unbounded otherwise); the primal and
        dual blocks of a group share one batched ``eigvalsh``.
        """
        positions = self.layout.scalar_positions
        lowest = [
            np.min(dx[:, positions] / self.x_scalars, axis=1, initial=np.inf),
            np.min(ds[:, positions] / self.s_scalars, axis=1, initial=np.inf),
        ]
        for group, x_isqrt, s_isqrt in zip(self.layout.groups, self.x_isqrt, self.s_isqrt):
            k = group.gather.shape[0]
            scaled = np.concatenate(
                [
                    x_isqrt @ self.layout.unpack_group(dx, group) @ x_isqrt,
                    s_isqrt @ self.layout.unpack_group(ds, group) @ s_isqrt,
                ],
                axis=1,
            )
            smallest = _guarded(np.linalg.eigvalsh, _hermitian_part(scaled), failed)[..., 0]
            lowest[0] = np.minimum(lowest[0], smallest[:, :k].min(axis=1))
            lowest[1] = np.minimum(lowest[1], smallest[:, k:].min(axis=1))
        with np.errstate(divide="ignore"):
            return [np.where(value < 0, -1.0 / value, np.inf) for value in lowest]


def _identity_columns(layout: BlockLayout, a: np.ndarray) -> list[list[int | None]]:
    """Per block of every group, the row at which its columns of ``a`` are ``±I``.

    The entry is ``r`` when, in every problem of the stack ``a``, the block's
    ``d*d`` columns are ``+I`` or ``-I`` on rows ``r .. r + d*d`` and zero
    elsewhere, and None otherwise.  Such a block adds ``A_b H_b A_b^T = H_b``
    to the Schur matrix's diagonal block at ``r``.
    """
    offsets = []
    for group in layout.groups:
        width = group.dim**2
        group_offsets = []
        for start in group.gather[:, 0]:
            block = a[:, :, start : start + width]
            first = int(np.argmax(block[0, :, 0] != 0))
            sign = block[0, first, 0]
            identity = abs(sign) == 1.0 and first + width <= block.shape[1]
            if identity:
                pattern = np.zeros(block.shape[1:])
                pattern[first : first + width] = sign * np.eye(width)
                identity = bool((block == pattern).all())
            group_offsets.append(first if identity else None)
        offsets.append(group_offsets)
    return offsets


def _identity_vector(layout: BlockLayout) -> np.ndarray:
    """The packed identity of every block of ``layout``."""
    vector = np.zeros(layout.total_real_dim)
    vector[layout.scalar_positions] = 1.0
    for group in layout.groups:
        vector[group.gather[:, : group.dim]] = 1.0
    return vector


def _mehrotra_step(
    layout: BlockLayout,
    a: np.ndarray,
    identity_rows: list,
    x: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    rp: np.ndarray,
    rd: np.ndarray,
):
    """One predictor–corrector step of every problem in the batch.

    ``rp = b - A x`` and ``rd = c - A^T y - s`` are the current residuals;
    ``identity_rows`` is :func:`_identity_columns` of ``a``.
    Returns the next iterate ``(x, y, s)`` and the mask of problems whose
    LAPACK calls failed.
    """
    broken = np.zeros(len(x), dtype=bool)
    scaling = _Scaling(layout, x, s, broken)
    schur = scaling.schur(a, identity_rows)
    # The Cholesky factorisation is the positive-definiteness test.  Small
    # Schur matrices are then solved by LU, which numpy batches faster than
    # scipy's triangular solves; large ones reuse the factor.
    factor = _guarded(np.linalg.cholesky, schur, broken)
    schur[broken] = np.eye(schur.shape[-1])
    by_factor = schur.shape[-1] >= _CHOLESKY_SOLVE_MIN_ORDER
    h_rd = scaling.apply(rd)

    def direction(g: np.ndarray):
        """The HKM direction whose complementarity part ``herm(R_c S^{-1})`` is ``g``."""
        rhs = rp[..., None] + a @ (h_rd - g)[..., None]
        if by_factor:
            dy = _guarded(_cholesky_solve, factor, broken, rhs)[..., 0]
        else:
            dy = _guarded(np.linalg.solve, schur, broken, rhs)[..., 0]
        ds = rd - (a.swapaxes(-1, -2) @ dy[..., None])[..., 0]
        return g - scaling.apply(ds), dy, ds

    # Predictor: the affine-scaling direction (target μ = 0).
    order = float(sum(layout.dims))
    dx, dy, ds = direction(-x)
    primal_limit, dual_limit = scaling.max_steps(dx, ds, broken)
    alpha_p = np.minimum(1.0, primal_limit)[:, None]
    alpha_d = np.minimum(1.0, dual_limit)[:, None]
    mu = np.einsum("ij,ij->i", x, s) / order
    mu_affine = np.einsum("ij,ij->i", x + alpha_p * dx, s + alpha_d * ds) / order
    sigma = np.clip(mu_affine / mu, 0.0, 1.0) ** 3

    # Corrector: centre towards σμ and cancel the predictor's second-order term.
    g = (sigma * mu)[:, None] * scaling.inv_s - x - scaling.second_order(dx, ds)
    dx, dy, ds = direction(g)
    primal_limit, dual_limit = scaling.max_steps(dx, ds, broken)
    alpha_p = np.minimum(1.0, _STEP_TO_BOUNDARY * primal_limit)[:, None]
    alpha_d = np.minimum(1.0, _STEP_TO_BOUNDARY * dual_limit)[:, None]
    return x + alpha_p * dx, y + alpha_d * dy, s + alpha_d * ds, broken


def ipm_solve_packed_batch(
    problems: list[PackedSDP],
    *,
    max_iterations: int,
    tolerance: float,
) -> list[PackedIPMResult]:
    """Run a primal–dual interior-point method on many same-shaped SDPs at once.

    All problems must share one :class:`BlockLayout` and one constraint count
    — exactly the situation the program-level scheduler produces, where every
    distinct gate SDP of one template shape (a *solve class*, see
    :func:`repro.sdp.diamond.solve_class_label`) instantiates the same
    diamond-norm template with different data.

    Each iteration is Mehrotra's predictor–corrector with the HKM direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996; Kojima,
    Shindoh & Hara, SIAM J. Optim. 7, 1997; Monteiro, SIAM J. Optim. 7,
    1997), started from ``X = S = I``, ``y = 0``.  All problems advance in
    lock-step: per iteration one batched ``eigh`` per block group gives the
    scaling that both the predictor and the corrector use, one batched
    Cholesky factorisation tests the Schur matrices ``M`` of the whole batch
    for positive definiteness, and two batched solves give the predictor's
    and the corrector's ``Δy``.  Steps go :data:`_STEP_TO_BOUNDARY` of the way to the cone
    boundary, separately in the primal and the dual.

    A problem is frozen and compacted out of the batch when its relative
    primal and dual residuals and its relative duality gap all fall below
    ``tolerance``, when its dual objective stalls for
    :data:`_PLATEAU_ITERATIONS` iterations, after ``max_iterations`` steps,
    or when a step fails (a non-finite iterate, an ``eigh`` that does not
    converge, a Schur matrix that is not positive definite).  A frozen problem
    keeps its last finite iterate, so every result is finite; problems
    without a strictly feasible point end unconverged, and the caller's dual
    certificate is still sound.  ``max_iterations`` and ``tolerance`` have no
    defaults here; :class:`repro.config.SDPConfig` holds them.  Each
    iteration starts with :func:`repro.config.check_deadline`, so a job's
    ``guard.max_seconds`` ends a long batch between two iterations.
    """
    if not problems:
        return []
    layout = problems[0].layout
    m = problems[0].a.shape[0]
    if any(p.layout.dims != layout.dims or p.a.shape[0] != m for p in problems):
        raise ValueError("batched problems must share one layout and constraint count")

    count = len(problems)
    a = np.stack([p.a for p in problems])
    b = np.stack([p.b for p in problems])
    c = np.stack([p.c for p in problems])
    identity_rows = _identity_columns(layout, a)
    x = np.tile(_identity_vector(layout), (count, 1))
    s = x.copy()
    y = np.zeros((count, m))
    b_scale = 1.0 + np.linalg.norm(b, axis=1)
    c_scale = 1.0 + np.linalg.norm(c, axis=1)

    active = np.arange(count)
    previous_dual = np.full(count, np.nan)
    stalled_for = np.zeros(count, dtype=int)
    broken = np.zeros(count, dtype=bool)
    results: list[PackedIPMResult | None] = [None] * count

    for iteration in range(max_iterations + 1):
        check_deadline()
        rp = b - (a @ x[..., None])[..., 0]
        rd = c - (a.swapaxes(-1, -2) @ y[..., None])[..., 0] - s
        pr = np.linalg.norm(rp, axis=1) / b_scale
        dr = np.linalg.norm(rd, axis=1) / c_scale
        cx = np.einsum("ij,ij->i", c, x)
        by = np.einsum("ij,ij->i", b, y)
        gap = np.abs(cx - by) / (1.0 + np.abs(cx) + np.abs(by))
        converged = (np.maximum(np.maximum(pr, dr), gap) < tolerance) & ~broken
        still = np.abs(by - previous_dual) < tolerance * (1.0 + np.abs(by))
        stalled_for = np.where(still, stalled_for + 1, 0)
        previous_dual = by

        done = converged | broken | (stalled_for >= _PLATEAU_ITERATIONS)
        if iteration == max_iterations:
            done[:] = True
        for local in np.nonzero(done)[0]:
            results[int(active[local])] = PackedIPMResult(
                x_vec=x[local].copy(),
                y=y[local].copy(),
                s_vec=s[local].copy(),
                primal_objective=float(cx[local]),
                dual_objective=float(by[local]),
                primal_residual=float(pr[local]),
                dual_residual=float(dr[local]),
                iterations=iteration,
                converged=bool(converged[local]),
            )
        if np.all(done):
            break
        if np.any(done):
            keep = ~done
            active, a, b, c, x, y, s, rp, rd = (
                array[keep] for array in (active, a, b, c, x, y, s, rp, rd)
            )
            b_scale, c_scale = b_scale[keep], c_scale[keep]
            previous_dual, stalled_for = previous_dual[keep], stalled_for[keep]

        x_next, y_next, s_next, broken = _mehrotra_step(layout, a, identity_rows, x, y, s, rp, rd)
        # A failed step leaves the problem at its last finite iterate; the
        # next pass freezes it there, unconverged.
        for array in (x_next, y_next, s_next):
            broken |= ~np.isfinite(array).all(axis=1)
        x = np.where(broken[:, None], x, x_next)
        y = np.where(broken[:, None], y, y_next)
        s = np.where(broken[:, None], s, s_next)

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
