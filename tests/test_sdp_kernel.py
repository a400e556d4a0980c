"""Tests for the vectorized packed-real SDP kernel (repro.sdp.kernel)."""

import numpy as np
import pytest

from repro.config import SDPConfig
from repro.linalg import identity_channel, maximally_mixed, pure_density, plus_state
from repro.linalg.channels import choi_output_trace_map
from repro.linalg.decompositions import positive_part
from repro.linalg.hermitian import hermitian_basis, hunvec, hvec, random_hermitian
from repro.noise import amplitude_damping, bit_flip, depolarizing
from repro.sdp import (
    constrained_diamond_norm,
    constrained_diamond_norms_batch,
    get_layout,
    ipm_solve_packed_batch,
    verify_certificate,
)
from repro.sdp.diamond import _get_template
from repro.sdp import kernel
from repro.sdp.kernel import (
    BlockLayout,
    _hkm_block,
    _identity_columns,
    _identity_vector,
    _Scaling,
)


DIMS_CASES = [(2,), (1,), (3, 1), (4, 4, 2, 1), (2, 3, 2, 1, 1, 5)]


def _hunvec_blocks(layout, vector):
    """Reference unpacking: ``hunvec`` of every block's slice of the vector."""
    return [
        hunvec(vector[offset : offset + d * d], d)
        for offset, d in zip(layout.offsets, layout.dims)
    ]


def _group_stack(layout, blocks, dim):
    """The blocks of one side length, in dims order (a group's stack order)."""
    return np.stack([block for d, block in zip(layout.dims, blocks) if d == dim])


def _pack(layout, blocks):
    """Flat vector of Hermitian blocks through the layout's group scatter."""
    out = np.zeros(layout.total_real_dim)
    for offset, d, block in zip(layout.offsets, layout.dims, blocks):
        if d == 1:
            out[offset] = block[0, 0].real
    for group in layout.groups:
        layout.pack_group(_group_stack(layout, blocks, group.dim), group, out)
    return out


class TestBlockLayout:
    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_pack_matches_hvec(self, dims, rng):
        """The packed-real embedding is exactly the concatenated hvec map."""
        blocks = [random_hermitian(d, rng=rng) for d in dims]
        layout = get_layout(dims)
        packed = _pack(layout, blocks)
        reference = np.concatenate([hvec(b) for b in blocks])
        assert np.array_equal(packed, reference)

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_roundtrip_exact(self, dims, rng):
        """pack → unpack reproduces Hermitian input to machine precision.

        Diagonals survive bit-exactly; off-diagonals pass through the sqrt(2)
        isometry scaling, which costs at most a couple of ulps.
        """
        blocks = [random_hermitian(d, rng=rng) for d in dims]
        layout = get_layout(dims)
        packed = _pack(layout, blocks)
        for group in layout.groups:
            original = _group_stack(layout, blocks, group.dim)
            back = layout.unpack_group(packed, group)
            assert np.allclose(back, original, atol=1e-15, rtol=1e-15)
            assert np.array_equal(
                np.diagonal(back, axis1=-2, axis2=-1),
                np.diagonal(original, axis1=-2, axis2=-1).real,
            )

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_unpack_matches_hunvec(self, dims, rng):
        layout = get_layout(dims)
        vector = rng.normal(size=layout.total_real_dim)
        reference = _hunvec_blocks(layout, vector)
        for group in layout.groups:
            assert np.allclose(
                layout.unpack_group(vector, group),
                _group_stack(layout, reference, group.dim),
            )

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_group_maps_bit_identical_to_hvec(self, dims, rng):
        """unpack_group / pack_group reproduce hunvec / hvec bit for bit on
        stacked vectors spanning many magnitudes with near-zero, +0.0 and
        -0.0 entries.  Unpacking also matches the signs of zeros, which
        eigh can see; hvec symmetrises first, which rewrites them."""

        def assert_bits_equal(actual, expected):
            actual = np.ascontiguousarray(actual).view(np.float64)
            expected = np.ascontiguousarray(expected).view(np.float64)
            assert np.array_equal(actual, expected)
            assert np.array_equal(np.signbit(actual), np.signbit(expected))

        layout = get_layout(dims)
        shape = (3, layout.total_real_dim)
        vectors = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 2, size=shape)
        vectors[:, ::5] *= 1e-300
        draw = rng.random(shape)
        vectors[draw < 0.15] = 0.0
        vectors[(draw >= 0.15) & (draw < 0.3)] = -0.0
        for row, vector in enumerate(vectors):
            blocks = _hunvec_blocks(layout, vector)
            packed = np.zeros(layout.total_real_dim)
            for group in layout.groups:
                expected = _group_stack(layout, blocks, group.dim)
                assert_bits_equal(layout.unpack_group(vectors, group)[row], expected)
                layout.pack_group(expected, group, packed)
            reference = np.concatenate([hvec(block) for block in blocks])
            in_group = np.repeat([d > 1 for d in dims], [d * d for d in dims])
            assert np.array_equal(packed[in_group], reference[in_group])

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_project_psd_matches_positive_part(self, dims, rng):
        """The fused batched projection equals per-block positive_part."""
        layout = get_layout(dims)
        vector = rng.normal(size=layout.total_real_dim)
        projected = _hunvec_blocks(layout, layout.project_psd(vector))
        for block, reference_input in zip(projected, _hunvec_blocks(layout, vector)):
            if reference_input.shape == (1, 1):
                expected = np.array([[max(0.0, reference_input[0, 0].real)]])
            else:
                expected = positive_part(reference_input)
            assert np.allclose(block, expected, atol=1e-12)

    def test_project_psd_batched_leading_dims(self, rng):
        """A stacked (K, n) input projects each row independently."""
        layout = get_layout((3, 2, 1))
        stacked = rng.normal(size=(5, layout.total_real_dim))
        batched = layout.project_psd(stacked)
        for row in range(5):
            assert np.allclose(batched[row], layout.project_psd(stacked[row]))

    def test_inner_product_preserved(self, rng):
        """The packed embedding is an isometry for the trace inner product."""
        layout = get_layout((3, 2))
        a = [random_hermitian(d, rng=rng) for d in layout.dims]
        b = [random_hermitian(d, rng=rng) for d in layout.dims]
        trace_inner = sum(np.trace(x @ y).real for x, y in zip(a, b))
        assert np.isclose(_pack(layout, a) @ _pack(layout, b), trace_inner, atol=1e-10)

    def test_layout_cache_identity(self):
        assert get_layout((4, 4, 2, 1)) is get_layout([4, 4, 2, 1])

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout((0, 2))


class TestBatchedADMM:
    def _problems(self):
        requests = []
        for p in (1e-3, 3e-3, 7e-3):
            requests.append(
                (
                    bit_flip(p).choi() - identity_channel(1).choi(),
                    pure_density(plus_state(1)),
                    0.9,
                )
            )
            requests.append(
                (
                    depolarizing(p).choi() - identity_channel(1).choi(),
                    maximally_mixed(1),
                    0.4,
                )
            )
            requests.append(
                (amplitude_damping(p).choi() - identity_channel(1).choi(), None, 0.0)
            )
        return requests

    def test_batch_matches_single_solves(self):
        """Lock-step batch results equal one-at-a-time solves."""
        config = SDPConfig(max_iterations=800, tolerance=1e-6)
        requests = self._problems()
        batch = constrained_diamond_norms_batch(requests, config=config)
        for (choi, operator, bound_c), batched in zip(requests, batch):
            single = constrained_diamond_norm(
                choi,
                constraint_operator=operator,
                constraint_bound=bound_c,
                config=config,
            )
            assert batched.value == pytest.approx(single.value, abs=1e-9)
            assert batched.iterations == single.iterations
            assert verify_certificate(batched.certificate, batched.choi)

    def test_batch_mixed_shapes(self):
        """Constrained and unconstrained requests group into separate runs."""
        config = SDPConfig(max_iterations=400, tolerance=1e-5)
        requests = self._problems()
        bounds = constrained_diamond_norms_batch(requests, config=config)
        assert all(b.value >= 0 for b in bounds)
        assert all(b.method == "certified" for b in bounds)

    def test_batch_empty(self):
        assert constrained_diamond_norms_batch([]) == []
        assert ipm_solve_packed_batch([], max_iterations=50, tolerance=1e-7) == []

    def test_batch_rejects_mixed_layouts(self):
        template_1q = _get_template(4, True)
        template_1q_free = _get_template(4, False)
        rho = maximally_mixed(1)
        choi = bit_flip(0.01).choi() - identity_channel(1).choi()
        constrained = template_1q.instantiate_batch([choi], [rho], [0.4])[0]
        unconstrained = template_1q_free.instantiate_batch([choi], [None], [0.0])[0]
        with pytest.raises(ValueError):
            ipm_solve_packed_batch(
                [constrained, unconstrained], max_iterations=50, tolerance=1e-7
            )

    def test_zero_choi_in_batch(self):
        bounds = constrained_diamond_norms_batch([(np.zeros((4, 4)), None, 0.0)])
        assert bounds[0].value == 0.0
        assert bounds[0].method == "exact-zero"


def _explicit_eq2(choi, operator, bound_c):
    """Eq. (2) in packed standard form, assembled row by row.

    An independent reference for the shape templates: every coupling row is
    built from ``hvec`` of a Hermitian basis element and its image under the
    Choi output-trace map, where the template instead writes the W/S parts
    as ``-I`` and caches the shape rows.
    """
    big = choi.shape[0]
    dim = int(round(np.sqrt(big)))
    use_constraint = operator is not None
    zero_big = np.zeros(big * big)
    zero_small = np.zeros(dim * dim)
    scalar = [np.zeros(1)] if use_constraint else []
    rows, values = [], []
    for basis_element in hermitian_basis(big):
        rows.append(
            np.concatenate(
                [
                    hvec(-basis_element),
                    hvec(-basis_element),
                    hvec(choi_output_trace_map(basis_element)),
                    *scalar,
                ]
            )
        )
        values.append(0.0)
    rows.append(np.concatenate([zero_big, zero_big, hvec(np.eye(dim)), *scalar]))
    values.append(1.0)
    if use_constraint:
        rows.append(np.concatenate([zero_big, zero_big, hvec(operator), [-1.0]]))
        values.append(bound_c)
    objective = np.concatenate([hvec(-choi), zero_big, zero_small, *scalar])
    return np.array(rows), np.array(values), objective


class TestTemplates:
    @pytest.mark.parametrize("use_constraint", [False, True])
    def test_template_matches_explicit_assembly(self, use_constraint):
        """The template's packed problem equals the explicitly built SDP."""
        choi = bit_flip(0.02).choi() - identity_channel(1).choi()
        choi = (choi + choi.conj().T) / 2
        operator = maximally_mixed(1) if use_constraint else None
        bound_c = 0.45 if use_constraint else 0.0

        a, b, c = _explicit_eq2(choi, operator, bound_c)
        template = _get_template(choi.shape[0], use_constraint)
        packed = template.instantiate_batch([choi], [operator], [bound_c])[0]

        assert np.allclose(packed.a, a, atol=1e-12)
        assert np.allclose(packed.b, b, atol=1e-12)
        assert np.allclose(packed.c, c, atol=1e-12)

    def test_mismatched_operator_shape_rejected(self):
        """The template path keeps the explicit builder's shape validation."""
        from repro.errors import SDPError

        choi = bit_flip(0.02).choi() - identity_channel(1).choi()
        with pytest.raises(SDPError):
            constrained_diamond_norm(
                choi,
                constraint_operator=np.eye(3),
                constraint_bound=0.5,
                config=SDPConfig(max_iterations=100, tolerance=1e-4),
            )


class TestHKMScaling:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_block_matrix_is_the_scaled_product(self, dim):
        """``H p`` packs ``herm(X P S^{-1})`` for every packed direction ``p``."""
        rng = np.random.default_rng(dim)
        layout = get_layout((dim,))
        group = layout.groups[0]
        x = positive_part(random_hermitian(dim, rng=rng)) + np.eye(dim)
        s_inv = np.linalg.inv(positive_part(random_hermitian(dim, rng=rng)) + np.eye(dim))
        h = _hkm_block(group, x[None, None], s_inv[None, None])[0, 0]
        for _ in range(3):
            p = random_hermitian(dim, rng=rng)
            product = x @ p @ s_inv
            assert np.allclose(h @ hvec(p), hvec((product + product.conj().T) / 2), atol=1e-12)
        assert np.allclose(h, h.T, atol=1e-12)


def _template_batch(big, use_constraint, count, rng):
    """``count`` instantiated problems of one template with random data."""
    dim = int(round(np.sqrt(big)))
    chois = [random_hermitian(big, rng=rng) for _ in range(count)]
    operators = [positive_part(random_hermitian(dim, rng=rng)) for _ in range(count)]
    bounds = [0.1] * count
    return _get_template(big, use_constraint).instantiate_batch(chois, operators, bounds)


class TestSchurAssembly:
    @pytest.mark.parametrize("big,use_constraint", [(4, True), (4, False), (16, True)])
    def test_identity_columns_are_the_coupling_blocks(self, big, use_constraint, rng):
        """W and S carry ``-I`` on the coupling rows; the ρ block does not."""
        problems = _template_batch(big, use_constraint, 3, rng)
        layout = problems[0].layout
        rows = _identity_columns(layout, np.stack([p.a for p in problems]))
        by_dim = {group.dim: group_rows for group, group_rows in zip(layout.groups, rows)}
        assert by_dim[big] == [0, 0]
        assert by_dim[int(round(np.sqrt(big)))] == [None]

    def test_identity_columns_need_every_problem(self, rng):
        """One problem whose W columns are not ``±I`` turns the shortcut off."""
        problems = _template_batch(4, True, 3, rng)
        a = np.stack([p.a for p in problems])
        a[1, -1, 0] = 0.5
        layout = problems[0].layout
        group = next(g for g in layout.groups if g.dim == 4)
        rows = _identity_columns(layout, a)[layout.groups.index(group)]
        assert rows == [None, 0]

    @pytest.mark.parametrize("big,use_constraint", [(4, True), (4, False), (16, True)])
    def test_scatter_equals_dense_products(self, big, use_constraint, rng):
        """Adding ``H_b`` on the identity rows is bit-identical to ``A_b H_b A_bᵀ``."""
        problems = _template_batch(big, use_constraint, 4, rng)
        layout = problems[0].layout
        a = np.stack([p.a for p in problems])
        identity = _identity_vector(layout)
        x, s = (
            np.stack([layout.project_psd(rng.standard_normal(identity.size)) for _ in problems])
            + identity
            for _ in range(2)
        )
        scaling = _Scaling(layout, x, s, np.zeros(len(problems), bool))
        dense = [[None] * group.gather.shape[0] for group in layout.groups]
        assert np.array_equal(
            scaling.schur(a, _identity_columns(layout, a)), scaling.schur(a, dense)
        )


class TestLargeSchurSolve:
    def test_cholesky_solve_matches_lu(self, monkeypatch):
        """The d = 16 template solved with the Cholesky factor or by LU agrees."""
        from repro.noise import two_qubit_depolarizing

        choi = two_qubit_depolarizing(0.05).choi() - identity_channel(2).choi()
        config = SDPConfig()
        request = [(choi, maximally_mixed(2), 0.1)]
        factored = constrained_diamond_norms_batch(request, config=config)[0]
        monkeypatch.setattr(kernel, "_CHOLESKY_SOLVE_MIN_ORDER", 10**6)
        by_lu = constrained_diamond_norms_batch(request, config=config)[0]
        assert factored.iterations == by_lu.iterations
        assert factored.value == pytest.approx(by_lu.value, rel=1e-9)
        for bound in (factored, by_lu):
            assert verify_certificate(bound.certificate, bound.choi)
