"""Vectorized packed-real kernel of the diamond-norm SDP solver.

The batched ADMM iteration spends essentially all of its time in two
structural operations per iteration: moving between the flat packed-real
variable and its Hermitian blocks, and projecting each block onto the PSD
cone.  This module precomputes, per block *structure* (the tuple of block
side lengths), the index maps needed to do both with whole-array numpy work:

* :class:`BlockLayout` — gather/scatter maps between the flat packed-real
  vector and stacked ``(k, d, d)`` complex arrays, one stack per distinct
  block size, so same-sized blocks are unpacked, eigendecomposed and repacked
  together in single batched calls;
* :func:`BlockLayout.project_psd` — the fused flat→blocks→eigh→clip→flat
  PSD projection used inside the ADMM iteration (one batched ``eigh`` per
  distinct block size, scalars clipped directly on the flat vector);
* :class:`PackedSDP` / :func:`admm_solve_packed_batch` — a standard-form SDP
  in dense packed-real form and the lock-step ADMM iteration over many
  same-shaped ones, which the shape templates of :mod:`repro.sdp.diamond`
  instantiate and solve.

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

__all__ = [
    "ADMM_RULE_VERSION",
    "BlockLayout",
    "PackedSDP",
    "PackedADMMResult",
    "admm_solve_packed_batch",
    "get_layout",
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
    """

    dim: int
    gather: np.ndarray
    unpack_source: np.ndarray
    unpack_scale: np.ndarray
    unpack_imag_zero: np.ndarray
    unpack_diag_zero: np.ndarray
    pack_source: np.ndarray
    pack_scale: np.ndarray

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
        Accepts any leading batch shape: ``(..., total_real_dim)``.
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
            projected = (
                eigenvectors * eigenvalues[..., None, :]
            ) @ eigenvectors.conj().swapaxes(-1, -2)
            self.pack_group(projected, group, out)
        return out


# ---------------------------------------------------------------------------
# Stacked Hermitian primitives (shared by the batch certification pass)
# ---------------------------------------------------------------------------

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
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return (eigenvectors * eigenvalues[..., None, :]) @ eigenvectors.conj().swapaxes(
        -1, -2
    )


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
# Packed ADMM core
# ---------------------------------------------------------------------------

#: Identity of the iteration rule below.  Any change that moves the iterates
#: (step length, penalty schedule, stopping test) must change this string:
#: persistent bound caches and job fingerprints bind it, so answers found by
#: an older rule are never served as this rule's answers.
ADMM_RULE_VERSION = "wgy-step-1.6/balance-2x-every-20"

#: Initial ADMM penalty parameter of every problem in a batch.
_INITIAL_MU = 1.0

#: Step length of the multiplier update, ``x <- x + γ((s - v)/μ - x)``.  Wen,
#: Goldfarb & Yin (Math. Prog. Comp. 2, 2010) prove convergence for
#: γ in (0, (1 + √5)/2); 1.6 over-relaxes close to the top of that range.
_STEP_LENGTH = 1.6

#: Iterations between residual checks.  Every check also rebalances the
#: penalty: a problem whose primal residual exceeds twice its dual residual
#: doubles μ, the reverse halves it (clipped to [1e-6, 1e6]).
_CHECK_EVERY = 20
_BALANCE_RATIO = 2.0

@dataclasses.dataclass
class PackedSDP:
    """A standard-form SDP in dense packed-real form, ready to iterate.

    ``factor`` is a ``(L, lower)`` Cholesky pair of ``A A^T`` (plus a tiny
    ridge) as accepted by :func:`scipy.linalg.cho_solve`; the diamond-norm
    template cache of :mod:`repro.sdp.diamond` reuses the expensive part of
    this factor across solves of the same shape.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    layout: BlockLayout
    factor: tuple[np.ndarray, bool]


@dataclasses.dataclass
class PackedADMMResult:
    """Flat-vector outcome of the packed ADMM iteration."""

    x_vec: np.ndarray
    y: np.ndarray
    s_vec: np.ndarray
    primal_objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


def admm_solve_packed_batch(
    problems: list[PackedSDP],
    *,
    max_iterations: int = 4000,
    tolerance: float = 1e-7,
) -> list[PackedADMMResult]:
    """Run ADMM on many same-shaped SDPs simultaneously.

    All problems must share one :class:`BlockLayout` and one constraint count
    — exactly the situation the program-level scheduler produces, where every
    unique (gate, predicate) solve class of a circuit instantiates the same
    diamond-norm template with different data vectors.

    The iterates of all K problems advance in lock-step: the per-iteration
    PSD projection becomes one batched ``eigh`` over ``K * blocks`` small
    matrices and the y-updates one batched matmul against per-problem
    precomputed normal-matrix inverses, so the Python/dispatch overhead of an
    iteration is paid once per *batch* instead of once per problem.  Problems
    that converge (or plateau) are frozen and compacted out of the batch, so
    a single slow instance does not keep the others iterating.

    Each iteration is the Wen–Goldfarb–Yin update with the over-relaxed
    multiplier step ``_STEP_LENGTH``; every ``_CHECK_EVERY`` iterations the
    residuals are checked, finished problems are frozen and the rest have
    their penalty rebalanced (see the constants above).

    Results are bit-for-bit independent across batch compositions only up to
    floating-point reduction order; every returned dual candidate is still
    certified independently by the caller.
    """
    if not problems:
        return []
    layout = problems[0].layout
    m = problems[0].a.shape[0]
    if any(p.layout.dims != layout.dims or p.a.shape[0] != m for p in problems):
        raise ValueError("batched problems must share one layout and constraint count")

    count = len(problems)
    n = layout.total_real_dim
    a = np.stack([p.a for p in problems])
    b = np.stack([p.b for p in problems])
    c = np.stack([p.c for p in problems])
    # Per-problem inverse of the (ridged) normal matrix: m is tiny, so an
    # explicit inverse turns every y-update into one batched matmul.
    eye = np.eye(m)
    normal_inv = np.stack(
        [scipy.linalg.cho_solve(p.factor, eye, check_finite=False) for p in problems]
    )
    at = a.swapaxes(-1, -2)

    x = np.zeros((count, n))
    s = np.zeros((count, n))
    y = np.zeros((count, m))
    mus = np.full(count, _INITIAL_MU)
    b_scale = 1.0 + np.linalg.norm(b, axis=1)
    c_scale = 1.0 + np.linalg.norm(c, axis=1)

    active = np.arange(count)
    plateau_checks = np.zeros(count, dtype=int)
    previous_dual = np.full(count, -np.inf)
    results: list[PackedADMMResult | None] = [None] * count

    def freeze(local_indices: np.ndarray, converged_mask: np.ndarray, iteration: int,
               pr: np.ndarray, dr: np.ndarray) -> None:
        for local in local_indices:
            original = int(active[local])
            results[original] = PackedADMMResult(
                x_vec=x[local].copy(),
                y=y[local].copy(),
                s_vec=s[local].copy(),
                primal_objective=float(c[local] @ x[local]),
                dual_objective=float(b[local] @ y[local]),
                primal_residual=float(pr[local]),
                dual_residual=float(dr[local]),
                iterations=iteration,
                converged=bool(converged_mask[local]),
            )

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        rhs = mus[:, None] * (b - (a @ x[..., None])[..., 0]) + (
            a @ (c - s)[..., None]
        )[..., 0]
        y = (normal_inv @ rhs[..., None])[..., 0]

        v = c - (at @ y[..., None])[..., 0] - mus[:, None] * x
        s = layout.project_psd(v)
        x += _STEP_LENGTH * ((s - v) / mus[:, None] - x)

        if iteration % _CHECK_EVERY == 0 or iteration == max_iterations:
            pr = np.linalg.norm((a @ x[..., None])[..., 0] - b, axis=1) / b_scale
            dr = np.linalg.norm((at @ y[..., None])[..., 0] + s - c, axis=1) / c_scale
            cx = np.einsum("ij,ij->i", c, x)
            by = np.einsum("ij,ij->i", b, y)
            gap = np.abs(cx - by) / (1.0 + np.abs(cx) + np.abs(by))
            converged_mask = np.maximum(np.maximum(pr, dr), gap) < tolerance

            moved = np.abs(by - previous_dual) >= 0.02 * tolerance * (1.0 + np.abs(by))
            plateau_checks = np.where(moved, 0, plateau_checks + 1)
            previous_dual = by
            plateaued = plateau_checks >= 5

            done = converged_mask | plateaued | (iteration == max_iterations)
            if np.any(done):
                freeze(np.nonzero(done)[0], converged_mask, iteration, pr, dr)
                keep = ~done
                if not np.any(keep):
                    break
                active = active[keep]
                a, b, c, at = a[keep], b[keep], c[keep], at[keep]
                normal_inv = normal_inv[keep]
                x, y, s = x[keep], y[keep], s[keep]
                mus = mus[keep]
                b_scale, c_scale = b_scale[keep], c_scale[keep]
                plateau_checks = plateau_checks[keep]
                previous_dual = previous_dual[keep]
                pr, dr = pr[keep], dr[keep]

            grow = pr > _BALANCE_RATIO * dr
            shrink = dr > _BALANCE_RATIO * pr
            mus = np.where(grow, np.minimum(mus * 2.0, 1e6), mus)
            mus = np.where(shrink, np.maximum(mus / 2.0, 1e-6), mus)

    # Every problem is frozen inside the loop: the final iteration always
    # runs a check (`iteration == max_iterations`) whose `done` mask includes
    # it.  The loop body can only be skipped entirely for max_iterations < 1,
    # which SDPConfig.validate rejects — assert rather than carry dead
    # recovery code.
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
