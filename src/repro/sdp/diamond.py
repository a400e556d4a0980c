"""Diamond-norm computations: unconstrained and (ρ̂, δ)-constrained.

All quantities follow the *diamond distance* convention of Eq. (2): the value
reported for a pair of channels (or for a Hermitian-preserving difference map
Φ) is ``max_rho 0.5 || (Phi ⊗ I)(rho) ||_1`` subject to the input constraint.
For the paper's bit-flip channel with probability p this distance from the
identity is exactly p, so the worst-case bound of a circuit is
``num_gates * p`` — matching the last column of Table 2.

Soundness: every value returned by this module is a *certified dual bound*
(see :mod:`repro.sdp.certificates`); the interior-point solver only influences
how tight it is.  The analytic ``J₊`` candidate and the candidates built from
the solver's dual point are all certified, and the smallest value wins.

The entry point used by the error logic is :func:`gate_error_bound`, which
additionally exploits two exact reductions:

* a unitary factoring step — for a noisy gate ``N ∘ U`` the difference from
  ``U`` equals ``(N - id) ∘ U``, so the constrained norm equals that of
  ``N - id`` with the predicate pushed through ``U``;
* a tensor-factor reduction — when the noise acts non-trivially on only one
  qubit of a 2-qubit gate (as in the paper's model), the SDP is reduced to
  the single-qubit problem with the correspondingly reduced predicate, which
  is an upper bound by the data-processing inequality.

After the reductions, a gate whose channel applies one Hermitian unitary
error with probability p — the paper's bit flip among them — needs no SDP at
all: :mod:`repro.sdp.closed_form` gives its exact bound ``p·√(1 − m²)``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref

import numpy as np

from ..config import SDPConfig
from ..errors import SDPError
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..linalg.channels import (
    QuantumChannel,
    choi_output_trace_map,
    choi_stack,
    identity_channel,
    unitary_conjugate_stack,
)
from ..linalg.hermitian import hermitian_basis, hvec
from ..linalg.norms import frobenius_norm, hermitian_mask, trace_norm
from ..linalg.partial_trace import partial_trace_keep
from .closed_form import (
    ClosedFormCertificate,
    closed_form_certificates,
    single_unitary_error,
)
from .certificates import (
    DualCertificate,
    certified_values_batch,
    repair_dual_candidates_batch,
)
from .kernel import (
    PackedSDP,
    _from_eigen,
    get_layout,
    ipm_solve_packed_batch,
    pack_hermitian_stack,
    positive_part_stack,
    unpack_hermitian_stack,
)

#: The batch solve, called through this module attribute so that the
#: benchmark harness (``perfbench/layers.py``) can wrap it by name; the name
#: is older than the interior-point solver and stays until that harness moves.
admm_solve_packed_batch = ipm_solve_packed_batch

__all__ = [
    "DiamondNormBound",
    "constrained_diamond_norm",
    "constrained_diamond_norms_batch",
    "diamond_distance",
    "rho_delta_diamond_norm",
    "rho_delta_constraint_bound",
    "predicate_operator",
    "gate_error_bound",
    "gate_error_bounds_batch",
    "closed_form_channel",
    "solve_class_label",
    "PREDICATE_DECIMALS",
    "quantise_predicates",
]


@dataclasses.dataclass(frozen=True)
class DiamondNormBound:
    """A certified upper bound on a (possibly constrained) diamond distance.

    Attributes:
        value: the certified upper bound.
        certificate: what establishes the bound — the verified dual-feasible
            point of an SDP, or a :class:`~repro.sdp.closed_form.ClosedFormCertificate`.
        primal_estimate: the (approximate, not certified) primal value from
            the solver; ``value - primal_estimate`` estimates the slack.
        method: how the bound was obtained — ``"certified"`` (solve +
            certificate), ``"closed-form"`` (a single-unitary-error channel,
            bounded exactly without a solve), ``"exact-zero"`` (the
            difference map is zero, so the bound is 0 without a solve) or
            ``"noiseless"`` (no noise acts on the gate).
        iterations: interior-point iterations spent.
        converged: whether the solver reached its tolerance.
        choi: the difference map a ``"certified"`` bound's dual certificate
            is checked against; a closed-form certificate carries its
            channel ``(p, V)`` itself.
    """

    value: float
    certificate: DualCertificate | ClosedFormCertificate
    primal_estimate: float
    method: str
    iterations: int = 0
    converged: bool = True
    choi: np.ndarray | None = None

    @property
    def estimated_gap(self) -> float:
        return max(0.0, self.value - self.primal_estimate)


# ---------------------------------------------------------------------------
# Problem templates: amortise assembly across solves
# ---------------------------------------------------------------------------

#: Relative distance below λ_max(Q) at which a predicate bound is solved when
#: the requested one lies above it (see :meth:`_ShapeTemplate.instantiate_batch`);
#: well above double-precision rounding, far below any bound's meaning.
_FACE_MARGIN = 1e-12


@dataclasses.dataclass
class _CapScaledSDP(PackedSDP):
    """A constrained template problem posed in cap-scaled variables.

    The solver iterates on ``W′, S′, ρ′`` with ``W = K W′ K``, ``S = K S′ K``
    and ``ρ = T ρ′ T`` for ``K = I ⊗ T`` (see
    :meth:`_ShapeTemplate.instantiate_batch`).  ``unscale`` is ``K⁻¹``, which
    maps the solver's dual blocks back to the original problem's.
    """

    unscale: np.ndarray


class _ShapeTemplate:
    """Everything about Eq. (2) that depends only on the problem *shape*.

    Eq. (2) in the standard primal form the interior-point solver iterates on
    has the variable blocks ``W`` (dim_out*dim_in square), the slack ``S`` of
    the operator inequality ``I ⊗ rho >= W``, ``rho`` (dim_in square) and —
    when the predicate constraint is active — a scalar slack ``t >= 0`` for
    ``tr(Q rho) - t = c``.  The objective is ``min <-J, W>``, so the SDP's
    optimal value is the negative of the diamond distance.

    For a fixed Choi dimension ``big`` (and whether a predicate constraint is
    present) the coupling constraints (E1), the trace constraint (E2) and the
    packed layout are data-independent.  A template assembles them once;
    :meth:`instantiate_batch` then produces ready-to-iterate
    :class:`PackedSDP` problems for concrete (Choi, predicate) pairs by
    writing the data vectors and, when constrained, appending the predicate
    row and rewriting the trace row for the cap scaling.

    Templates are immutable shape data, so solves stay deterministic and
    independent of call order.
    """

    def __init__(self, big: int, use_constraint: bool):
        dim = int(round(np.sqrt(big)))
        if dim * dim != big:
            raise SDPError(f"Choi matrix dimension {big} is not a perfect square")
        self.big = big
        self.dim = dim
        self.use_constraint = bool(use_constraint)
        dims = (big, big, dim) + ((1,) if use_constraint else ())
        self.layout = get_layout(dims)
        self.n = self.layout.total_real_dim
        bb = big * big
        self.bb = bb

        # (E1)  <B_m, I ⊗ rho> - <B_m, W> - <B_m, S> = 0.  In packed-real
        # coordinates hvec(B_m) of the orthonormal basis is the unit vector
        # e_m, so the W/S parts of the constraint matrix are just -I.
        num_shape_rows = bb + 1
        a = np.zeros((num_shape_rows, self.n))
        a[:bb, :bb] = -np.eye(bb)
        a[:bb, bb : 2 * bb] = -np.eye(bb)
        for index, basis_element in enumerate(hermitian_basis(big)):
            a[index, 2 * bb : 2 * bb + dim * dim] = hvec(
                choi_output_trace_map(basis_element)
            )
        # (E2)  tr(rho) = 1.
        a[bb, 2 * bb : 2 * bb + dim * dim] = hvec(np.eye(dim, dtype=np.complex128))
        self.a_shape = a
        self.b_shape = np.zeros(num_shape_rows)
        self.b_shape[bb] = 1.0

    def instantiate_batch(
        self,
        scaled_chois: list[np.ndarray],
        operators: list[np.ndarray | None],
        bounds_c: list[float],
    ) -> list[PackedSDP]:
        """Ready-to-iterate packed problems for a whole solve class.

        The objective vectors (and, when constrained, the trace and predicate
        rows) of all requests are written with one batched pack
        (:func:`repro.sdp.kernel.pack_hermitian_stack`, the exact elementwise
        operations of ``hvec``), so instantiation does no per-request Python
        matrix work.

        A constrained problem is posed in cap-scaled variables
        (:class:`_CapScaledSDP`).  With ``Q = V diag(λ) V†`` and ``b`` the
        bound it is solved at, the states with ``tr(Qρ) ≥ b`` and unit trace
        hold at most ``wᵢ = (λ_max − b)/(λ_max − λᵢ)`` of their weight along
        eigenvector ``i``.  For a nearly pure ρ̂ and δ ≈ 0 that width is
        ~1e-6 or less, and the iterates stall against the cap's far wall.
        Substituting ``ρ = T ρ′ T``, ``W = K W′ K``, ``S = K S′ K`` with
        ``T = V diag(√min(1, wᵢ)) V†`` and ``K = I ⊗ T`` gives the cap unit
        width.  The coupling rows (E1) are unchanged, because
        ``I ⊗ ρ − W − S = K (I ⊗ ρ′ − W′ − S′) K``.  Only the objective
        ``K J K``, the trace row ``⟨T², ρ′⟩ = 1`` and the predicate row
        ``⟨TQT, ρ′⟩ − t = b`` change.  Every constrained problem is scaled:
        where the cap does not bind, ``wᵢ ≥ 1`` and ``T`` is exactly ``I``,
        so no width threshold is needed.
        """
        count = len(scaled_chois)
        chois = np.stack(scaled_chois)
        c = np.zeros((count, self.n))
        if not self.use_constraint:
            c[:, : self.bb] = -pack_hermitian_stack(chois)
            return [
                PackedSDP(a=self.a_shape, b=self.b_shape, c=c[index], layout=self.layout)
                for index in range(count)
            ]
        checked = []
        for operator in operators:
            operator = np.asarray(operator, dtype=np.complex128)
            if operator.shape != (self.dim, self.dim):
                raise SDPError(
                    f"constraint operator shape {operator.shape} does not match "
                    f"input dim {self.dim}"
                )
            checked.append(operator)
        operators = np.stack(checked)
        operators = (operators + operators.conj().swapaxes(-1, -2)) / 2
        eigenvalues, eigenvectors = np.linalg.eigh(operators)
        top = eigenvalues[:, -1]
        # A bound at the top of Q's spectrum leaves only a face of ρ's cone
        # feasible, with no strictly feasible point, and rounding decides
        # whether that face is a sliver, a single state or empty.  Such bounds
        # are solved a relative _FACE_MARGIN below λ_max(Q).  Certification
        # checks the requested bound, so this changes only which dual point
        # the solver hands it.
        bound = np.minimum(bounds_c, (1.0 - _FACE_MARGIN) * top)
        width = (top - bound)[:, None]
        gap = top[:, None] - eigenvalues
        # A cap with no interior (λ_max(Q) <= 0) is left unscaled.
        weights = np.divide(width, gap, out=np.ones_like(gap), where=(gap > width) & (width > 0))
        root = np.sqrt(weights)
        eye = np.eye(self.dim)
        # I + V diag(x - 1) V† is exactly I where every x is 1.
        scale = eye + _from_eigen(eigenvectors, root - 1.0)
        unscale = eye + _from_eigen(eigenvectors, 1.0 / root - 1.0)
        kron_scale, kron_unscale = (
            np.einsum("ab,nij->naibj", eye, matrix).reshape(count, self.big, self.big)
            for matrix in (scale, unscale)
        )

        c[:, : self.bb] = -pack_hermitian_stack(kron_scale @ chois @ kron_scale)
        a = np.concatenate(
            [
                np.broadcast_to(self.a_shape, (count,) + self.a_shape.shape),
                np.zeros((count, 1, self.n)),
            ],
            axis=1,
        )
        rho = slice(2 * self.bb, 2 * self.bb + self.dim * self.dim)
        # (E2)  ⟨T², ρ′⟩ = 1 and (E3)  ⟨TQT, ρ′⟩ - t = b.
        a[:, self.bb, rho] = pack_hermitian_stack(eye + _from_eigen(eigenvectors, weights - 1.0))
        a[:, -1, rho] = pack_hermitian_stack(scale @ operators @ scale)
        a[:, -1, -1] = -1.0
        b = np.zeros((count, self.b_shape.size + 1))
        b[:, :-1] = self.b_shape
        b[:, -1] = bound
        return [
            _CapScaledSDP(
                a=a[index], b=b[index], c=c[index], layout=self.layout, unscale=kron_unscale[index]
            )
            for index in range(count)
        ]


_TEMPLATES: dict[tuple[int, bool], _ShapeTemplate] = {}
_TEMPLATES_LOCK = threading.Lock()


def _get_template(big: int, use_constraint: bool) -> _ShapeTemplate:
    key = (int(big), bool(use_constraint))
    template = _TEMPLATES.get(key)
    if template is None:
        with _TEMPLATES_LOCK:
            template = _TEMPLATES.get(key)
            if template is None:
                template = _ShapeTemplate(*key)
                _TEMPLATES[key] = template
    return template


# ---------------------------------------------------------------------------
# Core solve-and-certify routine
# ---------------------------------------------------------------------------

def constrained_diamond_norm(
    choi: np.ndarray,
    *,
    constraint_operator: np.ndarray | None = None,
    constraint_bound: float = 0.0,
    config: SDPConfig | None = None,
) -> DiamondNormBound:
    """Certified upper bound on a constrained diamond distance.

    Args:
        choi: Choi matrix of the Hermitian-preserving difference map Φ
            (output ⊗ input ordering).
        constraint_operator: the operator Q of ``tr(Q rho) >= c`` (None for
            the unconstrained diamond distance).
        constraint_bound: the bound c; a non-positive value makes the
            constraint vacuous and the computation unconstrained.
        config: SDP engine configuration (mode, tolerances, iteration caps).
    """
    return constrained_diamond_norms_batch(
        [(choi, constraint_operator, constraint_bound)], config=config
    )[0]


@dataclasses.dataclass
class _PreparedSolve:
    """A scaled, symmetrised solve request, shared by single and batch paths."""

    choi: np.ndarray
    scaled_choi: np.ndarray
    scale: float
    operator: np.ndarray | None
    bound_c: float
    use_constraint: bool
    zero: bool
    big: int


def _prepare_solve(
    choi: np.ndarray,
    constraint_operator: np.ndarray | None,
    constraint_bound: float,
) -> _PreparedSolve:
    choi = np.asarray(choi, dtype=np.complex128)
    choi = (choi + choi.conj().T) / 2
    scale = trace_norm(choi)
    use_constraint = constraint_operator is not None and constraint_bound > 0.0
    # A vacuous constraint leaves nothing of the request but its Choi matrix.
    bound_c = float(constraint_bound) if use_constraint else 0.0
    if scale <= 1e-300:
        return _PreparedSolve(
            choi=choi,
            scaled_choi=choi,
            scale=0.0,
            operator=None,
            bound_c=bound_c,
            use_constraint=False,
            zero=True,
            big=choi.shape[0],
        )
    operator = (
        np.asarray(constraint_operator, dtype=np.complex128) if use_constraint else None
    )
    return _PreparedSolve(
        choi=choi,
        scaled_choi=choi / scale,
        scale=scale,
        operator=operator,
        bound_c=bound_c,
        use_constraint=use_constraint,
        zero=False,
        big=choi.shape[0],
    )


def _zero_bound(prepared: _PreparedSolve) -> DiamondNormBound:
    zero_cert = DualCertificate(
        0.0, np.zeros_like(prepared.choi), 0.0, None, prepared.bound_c
    )
    return DiamondNormBound(0.0, zero_cert, 0.0, method="exact-zero")


def _certify_solutions_batch(
    group: list[_PreparedSolve],
    results: list,
    packeds: list[PackedSDP],
) -> list[DiamondNormBound]:
    """Verify every dual certificate of one solve class in a single fused pass.

    ``group`` holds same-shaped prepared solves (one ``big``, one
    ``use_constraint``); ``results``/``packeds`` are the aligned batched solver
    outcomes and instantiated problems.

    The per-request candidate loop of the historical path is replaced by
    whole-stack operations: the dual slack blocks of *all* results are
    unpacked with one :class:`~repro.sdp.kernel.BlockLayout` gather, every
    candidate of every request is repaired with two batched PSD projections,
    and the certified values (including the golden-section search over the
    constraint multiplier) are computed for the full ``(request, candidate)``
    stack at once.  Per-element arithmetic is independent of the batch
    composition, so certifying a class in one fused pass is bit-identical to
    certifying each gate on its own.
    """
    chois = np.stack([p.scaled_choi for p in group])
    big = group[0].big
    use_constraint = group[0].use_constraint
    # Dual multipliers of the coupling constraints reassemble into Z; the
    # dual slack blocks give two more candidates (S_W = Z - J, S_S = Z).
    y_stack = np.stack([result.y for result in results])
    s_stack = np.stack([result.s_vec for result in results])
    layout = packeds[0].layout
    big_group = next(g for g in layout.groups if g.dim == big)
    s_blocks = layout.unpack_group(s_stack, big_group)
    duals = np.concatenate(
        [unpack_hermitian_stack(y_stack[:, : big * big], big)[:, None], s_blocks], axis=1
    )
    y_hints = None
    if use_constraint:
        # The solver saw the cap-scaled problem: Z = K⁻¹ Z′ K⁻¹ maps each
        # of its dual blocks back (see _ShapeTemplate.instantiate_batch).
        unscale = np.stack([packed.unscale for packed in packeds])[:, None]
        duals = unscale @ duals @ unscale
        # The multiplier of the predicate constraint seeds the 1-D search.
        y_hints = np.abs(y_stack[:, -1])[:, None]
    # Candidate 1 is the analytic J₊ dual point (always feasible).
    candidates = np.concatenate(
        [
            positive_part_stack(chois)[:, None],
            duals[:, :1],
            (duals[:, 1] + chois)[:, None],
            duals[:, 2:],
        ],
        axis=1,
    )

    repaired = repair_dual_candidates_batch(candidates, chois[:, None])
    if use_constraint:
        operators = np.stack(
            [(p.operator + p.operator.conj().T) / 2 for p in group]
        )
        values, ys = certified_values_batch(
            repaired,
            constraint_operators=operators[:, None],
            constraint_bounds=np.array([p.bound_c for p in group])[:, None],
            y_hints=y_hints,
            share_bracket=True,
        )
    else:
        operators = None
        values, ys = certified_values_batch(repaired)

    bounds: list[DiamondNormBound] = []
    for index, prepared in enumerate(group):
        best = int(np.argmin(values[index]))
        scale = prepared.scale
        # Undo the scaling: multiplying (Z, y) by `scale` keeps feasibility
        # for the original Choi matrix and scales the dual objective linearly.
        final = DualCertificate(
            value=float(values[index, best]) * scale,
            z=repaired[index, best] * scale,
            y=float(ys[index, best]) * scale,
            constraint_operator=operators[index] if use_constraint else None,
            constraint_bound=prepared.bound_c,
        )
        result = results[index]
        # Primal estimate: tr(J W) with W the first block (objective was -J).
        bounds.append(
            DiamondNormBound(
                value=max(0.0, final.value),
                certificate=final,
                primal_estimate=max(0.0, -result.primal_objective * scale),
                method="certified",
                iterations=result.iterations,
                converged=result.converged,
                choi=prepared.choi,
            )
        )
    return bounds


#: Bucket bounds of the ``repro_sdp_solver_iterations`` histogram.
_ITERATION_BUCKETS = (2, 4, 6, 8, 10, 15, 20, 30, 50, 100)


def solve_class_label(big: int, use_constraint: bool) -> str:
    """Human-readable label of one SDP template shape (a *solve class*).

    ``big`` is the template's embedded block dimension; constrained and
    unconstrained problems of the same dimension instantiate different
    templates and therefore cost differently, so they are distinct classes.
    """
    return f"dim{big}_{'constrained' if use_constraint else 'unconstrained'}"


def constrained_diamond_norms_batch(
    requests: list[tuple[np.ndarray, np.ndarray | None, float]],
    *,
    config: SDPConfig | None = None,
) -> list[DiamondNormBound]:
    """Certified bounds for many constrained diamond norms, solved in lock-step.

    ``requests`` is a list of ``(choi, constraint_operator, constraint_bound)``
    triples.  Requests whose instantiated problems share a template shape are
    solved by one batched interior-point run
    (:func:`repro.sdp.kernel.ipm_solve_packed_batch`)
    and their dual certificates verified by one fused certification pass
    (:func:`_certify_solutions_batch`), which turns the per-iteration *and*
    per-certificate cost of the whole batch into a handful of batched numpy
    calls.  Every returned bound still carries its own independently verified
    dual certificate, and :func:`constrained_diamond_norm` is a batch of one
    through this same code, so batched and one-at-a-time results are
    bit-identical.
    """
    config = config or SDPConfig()
    config.validate()
    prepared = [
        _prepare_solve(choi, operator, bound) for choi, operator, bound in requests
    ]
    bounds: list[DiamondNormBound | None] = [None] * len(prepared)

    groups: dict[tuple[int, bool], list[int]] = {}
    for index, p in enumerate(prepared):
        if p.zero:
            bounds[index] = _zero_bound(p)
        else:
            groups.setdefault((p.big, p.use_constraint), []).append(index)

    for (big, use_constraint), indices in groups.items():
        group = [prepared[i] for i in indices]
        label = solve_class_label(big, use_constraint)
        group_start = time.perf_counter()
        template = _get_template(big, use_constraint)
        with span("sdp.instantiate", "sdp", solve_class=label, count=len(group)):
            packed_problems = template.instantiate_batch(
                [p.scaled_choi for p in group],
                [p.operator for p in group],
                [p.bound_c for p in group],
            )
        with span("sdp.solve", "sdp", solve_class=label, count=len(group)):
            results = admm_solve_packed_batch(
                packed_problems,
                max_iterations=config.max_iterations,
                tolerance=config.tolerance,
            )
        with span("sdp.certify", "sdp", solve_class=label, count=len(group)):
            certified = _certify_solutions_batch(group, results, packed_problems)
        for request_index, bound in zip(indices, certified):
            bounds[request_index] = bound
        group_seconds = time.perf_counter() - group_start
        obs_metrics.histogram(
            "repro_sdp_group_solve_seconds",
            "Wall-clock seconds per batched SDP template group.",
            {"solve_class": label},
        ).observe(group_seconds)
        obs_metrics.counter(
            "repro_sdp_solves_total",
            "SDP instances solved (batched), by template solve class.",
            {"solve_class": label},
        ).inc(len(group))
        iterations = obs_metrics.histogram(
            "repro_sdp_solver_iterations",
            "Interior-point iterations per SDP instance, by template solve class.",
            {"solve_class": label},
            buckets=_ITERATION_BUCKETS,
        )
        for result in results:
            iterations.observe(result.iterations)
        obs_metrics.counter(
            "repro_sdp_unconverged_total",
            "SDP instances that stopped short of the solver tolerance.",
            {"solve_class": label},
        ).inc(sum(not result.converged for result in results))
    return bounds  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Named wrappers
# ---------------------------------------------------------------------------

def diamond_distance(
    channel_a: QuantumChannel,
    channel_b: QuantumChannel,
    *,
    config: SDPConfig | None = None,
) -> DiamondNormBound:
    """Unconstrained diamond distance ``0.5 ||A - B||_diamond`` (certified)."""
    choi = channel_a.choi() - channel_b.choi()
    return constrained_diamond_norm(choi, config=config)


def rho_delta_constraint_bound(rho_local: np.ndarray, delta: float) -> float:
    """The constraint bound ``c = ||rho'||_F (||rho'||_F - delta)`` of Eq. (2)."""
    norm = frobenius_norm(rho_local)
    return float(norm * (norm - delta))


def predicate_operator(rho_local: np.ndarray) -> np.ndarray:
    """The operator ``Q = ρ̂ᵀ`` of a predicate's halfspace ``tr(Qρ) >= c``.

    The SDP's variable ρ sits on the input register of the Choi matrix
    ``J = Σ Φ(|i⟩⟨j|) ⊗ |i⟩⟨j|``.  The joint input with system state ρ is
    ``(I ⊗ √ρᵀ)|Ω⟩``, so that register holds ρᵀ, and a predicate on the
    state constrains the variable through ``tr(ρ̂ᵀ ρᵀ) = tr(ρ̂ρ)``.  For a
    Choi matrix or predicate with only real entries the two agree; for a
    complex channel (a coherent rotation, a random unitary error) with a
    complex predicate, constraining the variable by ρ̂ itself bounds the
    wrong states and can certify less than the true error.
    """
    return np.asarray(rho_local, dtype=np.complex128).T


def rho_delta_diamond_norm(
    choi: np.ndarray,
    rho_local: np.ndarray,
    delta: float,
    *,
    config: SDPConfig | None = None,
) -> DiamondNormBound:
    """The (ρ̂, δ)-diamond norm of a difference map given the local predicate.

    ``rho_local`` is the reduced density matrix of the approximate state on
    the qubits the map acts on; ``delta`` bounds the trace-norm distance of
    the true global state from the approximate one.  The predicate reaches
    the SDP transposed (:func:`predicate_operator`).
    """
    if delta < 0:
        raise SDPError("delta must be non-negative")
    bound_c = rho_delta_constraint_bound(rho_local, delta)
    return constrained_diamond_norm(
        choi,
        constraint_operator=predicate_operator(rho_local),
        constraint_bound=bound_c,
        config=config,
    )


# ---------------------------------------------------------------------------
# Gate-level bounds with structural reductions
# ---------------------------------------------------------------------------

def _channel_acts_trivially_on(channel: QuantumChannel, qubit: int) -> QuantumChannel | None:
    """If a 2-qubit channel is ``N ⊗ id`` (or ``id ⊗ N``), return the 1-qubit N.

    ``qubit`` names the tensor factor that should carry the identity (0 or 1).
    Returns None when the channel does not factor this way.
    """
    if channel.dim_in != 4 or channel.dim_out != 4:
        return None
    active = 1 - qubit
    # Candidate single-qubit channel: feed in basis matrices on the active
    # qubit with a maximally mixed spectator, trace the spectator out.
    basis = [np.zeros((2, 2), dtype=np.complex128) for _ in range(4)]
    for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        basis[idx][i, j] = 1.0
    spectator = np.eye(2, dtype=np.complex128) / 2
    outputs = []
    for b in basis:
        joint = np.kron(b, spectator) if active == 0 else np.kron(spectator, b)
        out = channel.apply(joint)
        reduced = partial_trace_keep(out, [active])
        outputs.append(reduced)
    # Choi of the candidate (output ⊗ input, unnormalised).
    candidate_choi = np.zeros((4, 4), dtype=np.complex128)
    for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        candidate_choi += np.kron(outputs[idx], basis[idx])
    eigenvalues = np.linalg.eigvalsh((candidate_choi + candidate_choi.conj().T) / 2)
    if eigenvalues.min() < -1e-9:
        return None
    try:
        candidate = QuantumChannel.from_choi(candidate_choi, name=f"{channel.name}|q{active}")
    except Exception:  # pragma: no cover - defensive
        return None
    tensor = (
        candidate.tensor(identity_channel(1))
        if active == 0
        else identity_channel(1).tensor(candidate)
    )
    if np.allclose(tensor.choi(), channel.choi(), atol=1e-9):
        return candidate
    return None


#: Memoised tensor-factoring decisions, keyed on channel identity.  Channels
#: are immutable and noise models hand out one object per rule, so the
#: factoring test (a dozen dense 4x4 operations) runs once per distinct
#: channel instead of once per gate instance.  Weak keys keep transient
#: channels collectable.
_FACTORING_CACHE: "weakref.WeakKeyDictionary[QuantumChannel, tuple[int, QuantumChannel] | None]" = (
    weakref.WeakKeyDictionary()
)
_FACTORING_LOCK = threading.Lock()

#: Choi matrices of the identity channel, by qubit count.
_IDENTITY_CHOIS: dict[int, np.ndarray] = {}


def _identity_choi(num_qubits: int) -> np.ndarray:
    choi = _IDENTITY_CHOIS.get(num_qubits)
    if choi is None:
        choi = identity_channel(num_qubits).choi()
        _IDENTITY_CHOIS[num_qubits] = choi
    return choi


def _spectator_factoring(channel: QuantumChannel) -> tuple[int, QuantumChannel] | None:
    """``(active_qubit, reduced_1q_channel)`` if a 2-qubit channel factors.

    Mirrors the historical per-instance loop (spectator 0 tried first), but
    the decision — which depends only on the channel — is computed once per
    channel object and shared by every instance that carries it.
    """
    if channel.dim_in != 4 or channel.dim_out != 4:
        return None
    try:
        return _FACTORING_CACHE[channel]
    except KeyError:
        pass
    factoring = None
    for spectator in (0, 1):
        reduced_noise = _channel_acts_trivially_on(channel, spectator)
        if reduced_noise is not None:
            factoring = (1 - spectator, reduced_noise)
            break
    with _FACTORING_LOCK:
        return _FACTORING_CACHE.setdefault(channel, factoring)


#: Memoised :func:`closed_form_channel` decisions, keyed on channel identity
#: like ``_FACTORING_CACHE``.
_CLOSED_FORM_CACHE: "weakref.WeakKeyDictionary[QuantumChannel, tuple[float, np.ndarray] | None]" = (
    weakref.WeakKeyDictionary()
)


def closed_form_channel(channel: QuantumChannel) -> tuple[float, np.ndarray] | None:
    """``(p, V)`` of a single-unitary-error channel, V on the reduced qubits.

    The channel is recognised as given
    (:func:`repro.sdp.closed_form.single_unitary_error`), whose Kraus
    operators are exact, rather than after spectator factoring, whose
    reduced channel comes out of an eigendecomposition.  When the channel
    factors as ``N ⊗ id`` (or ``id ⊗ N``), ``V₁``, the error on the active
    qubit, is what the reduced predicate σ of
    :func:`_reduced_gate_problems_batch` pairs with; it is accepted only
    when ``V₁ ⊗ I`` reproduces ``V`` exactly.  None sends the gate to the
    SDP.  Memoised per channel object.
    """
    try:
        return _CLOSED_FORM_CACHE[channel]
    except KeyError:
        pass
    recognised = single_unitary_error(channel)
    factoring = _spectator_factoring(channel)
    if recognised is not None and factoring is not None:
        p, v = recognised
        active = factoring[0]
        reduced = partial_trace_keep(v, [active]) / 2
        eye = np.eye(2)
        tensor = np.kron(reduced, eye) if active == 0 else np.kron(eye, reduced)
        if np.array_equal(tensor, v):
            reduced.setflags(write=False)
            recognised = (p, reduced)
        else:
            recognised = None
    with _FACTORING_LOCK:
        return _CLOSED_FORM_CACHE.setdefault(channel, recognised)


def gate_error_bound(
    gate_matrix: np.ndarray,
    noise_channel: QuantumChannel | None,
    rho_local: np.ndarray,
    delta: float,
    *,
    noise_after_gate: bool = True,
    config: SDPConfig | None = None,
) -> DiamondNormBound:
    """Certified (ρ̂, δ)-diamond-norm bound for one noisy gate application.

    Args:
        gate_matrix: the ideal gate unitary (on the gate's qubits, operand order).
        noise_channel: the local noise channel attached by the noise model
            (None means the gate is perfect and the bound is zero).
        rho_local: reduced approximate state on the gate's qubits (operand order).
        delta: accumulated approximation bound of the predicate.
        noise_after_gate: whether the noisy gate is ``N ∘ U`` (default) or ``U ∘ N``.
        config: SDP configuration.
    """
    return gate_error_bounds_batch(
        [(gate_matrix, noise_channel, rho_local, delta)],
        noise_after_gate=noise_after_gate,
        config=config,
    )[0]


def _reduced_gate_problem(
    gate_matrix: np.ndarray,
    noise_channel: QuantumChannel,
    rho_local: np.ndarray,
    *,
    noise_after_gate: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the exact structural reductions of :func:`gate_error_bound`.

    A batch of one through :func:`_reduced_gate_problems_batch`, so per-gate
    and batched reductions run the identical code.
    """
    return _reduced_gate_problems_batch(
        [(gate_matrix, noise_channel, rho_local)], noise_after_gate=noise_after_gate
    )[0]


def _reduced_gate_problems_batch(
    problems: list[tuple[np.ndarray, QuantumChannel, np.ndarray]],
    *,
    noise_after_gate: bool = True,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The exact structural reductions of :func:`gate_error_bound`, whole-stack.

    ``problems`` holds ``(gate_matrix, noise_channel, rho_local)`` triples;
    the return value is the aligned list of ``(diff_choi, sigma)`` pairs that
    define the remaining (ρ̂, δ)-diamond-norm SDPs.

    The historical per-instance Python — Choi construction, unitary
    conjugation of the predicate, and the 2-qubit trivial-spectator
    reduction — is replaced by whole-stack work:

    * the tensor-factoring decision and the difference-map Choi matrix are
      resolved once per *distinct channel* (channels are shared objects, so a
      65-gate program typically holds two);
    * uncached Choi matrices are computed with one stacked Gram product per
      same-arity group (:func:`repro.linalg.channels.choi_stack`);
    * the predicate conjugations ``U ρ U†`` run as batched matmuls per gate
      dimension (:func:`repro.linalg.channels.unitary_conjugate_stack`);
    * the spectator reductions run as one batched partial trace per kept
      qubit (:func:`repro.linalg.partial_trace.partial_trace_keep` on a
      stack).

    Every batched primitive is independent of the batch composition, so the
    per-element output is bit-identical to running the reduction alone —
    :func:`_reduced_gate_problem` is a batch of one through this same code,
    and ``tests/test_sdp_batch_reductions.py`` enforces the property across
    the reduced program library.
    """
    gates: list[np.ndarray] = []
    rhos: list[np.ndarray] = []
    for gate_matrix, noise_channel, rho_local in problems:
        gate_matrix = np.asarray(gate_matrix, dtype=np.complex128)
        dim = gate_matrix.shape[0]
        if noise_channel.dim_in != dim:
            raise SDPError(
                f"noise channel dimension {noise_channel.dim_in} does not match "
                f"gate dimension {dim}"
            )
        rho_local = np.asarray(rho_local, dtype=np.complex128)
        if rho_local.shape != (dim, dim):
            raise SDPError(
                f"local predicate of shape {rho_local.shape} does not match gate dimension {dim}"
            )
        gates.append(gate_matrix)
        rhos.append(rho_local)

    # Once per distinct channel (identity-hashed, as immutable channels are):
    # the factoring decision and the channel whose Choi matrix enters the
    # difference map.
    unique = dict.fromkeys(channel for _gate, channel, _rho in problems)
    factorings = {channel: _spectator_factoring(channel) for channel in unique}
    effective = {
        channel: (
            factorings[channel][1] if factorings[channel] is not None else channel
        )
        for channel in unique
    }
    by_arity: dict[tuple[int, int], list[QuantumChannel]] = {}
    for channel in effective.values():
        by_arity.setdefault((channel.dim_out, channel.dim_in), []).append(channel)
    for group in by_arity.values():
        choi_stack(group)  # one stacked Gram product per arity, caches filled
    diff_chois = {
        channel: reduced.choi() - _identity_choi(reduced.num_qubits)
        for channel, reduced in effective.items()
    }

    # Unitary factoring: || N∘U - U ||_(rho,delta) = || N - id ||_(U rho U†, delta),
    # and || U∘N - U ||_(rho,delta) = || N - id ||_(rho, delta).
    sigmas: list[np.ndarray]
    if noise_after_gate:
        sigmas = [None] * len(problems)  # type: ignore[list-item]
        by_dim: dict[int, list[int]] = {}
        for index, gate in enumerate(gates):
            by_dim.setdefault(gate.shape[0], []).append(index)
        for indices in by_dim.values():
            conjugated = unitary_conjugate_stack(
                np.stack([gates[i] for i in indices]),
                np.stack([rhos[i] for i in indices]),
            )
            for row, index in enumerate(indices):
                sigmas[index] = conjugated[row]
    else:
        sigmas = list(rhos)

    # Tensor-factor reduction for 2-qubit gates with single-qubit noise: one
    # batched partial trace per kept qubit.
    by_active: dict[int, list[int]] = {}
    for index, (_gate, channel, _rho) in enumerate(problems):
        factoring = factorings[channel]
        if factoring is not None:
            by_active.setdefault(factoring[0], []).append(index)
    for active, indices in by_active.items():
        reduced = partial_trace_keep(
            np.stack([sigmas[i] for i in indices]), [active]
        )
        for row, index in enumerate(indices):
            sigmas[index] = reduced[row]

    return [
        (diff_chois[channel], sigmas[index])
        for index, (_gate, channel, _rho) in enumerate(problems)
    ]


def gate_error_bounds_batch(
    instances: list[tuple[np.ndarray, QuantumChannel | None, np.ndarray, float]],
    *,
    noise_after_gate: bool = True,
    config: SDPConfig | None = None,
) -> list[DiamondNormBound]:
    """Certified bounds for many noisy gate applications, solved in lock-step.

    ``instances`` holds ``(gate_matrix, noise_channel, rho_local, delta)``
    tuples.  The structural reductions run as one whole-stack pass
    (:func:`_reduced_gate_problems_batch`).  Gates whose channel has a
    single unitary error (:func:`closed_form_channel`) are then bounded in
    closed form (:mod:`repro.sdp.closed_form`); the distinct SDPs of the
    rest are dispatched through one :func:`constrained_diamond_norms_batch`
    call so that same-shaped problems share one batched interior-point run.
    Used by the program-level bound scheduler (:mod:`repro.core.scheduler`);
    :func:`gate_error_bound` is a batch of one through this same code.
    """
    config = config or SDPConfig()
    bounds: list[DiamondNormBound | None] = [None] * len(instances)
    noisy: list[tuple[int, float]] = []
    reduction_inputs: list[tuple[np.ndarray, QuantumChannel, np.ndarray]] = []
    for index, (gate_matrix, noise_channel, rho_local, delta) in enumerate(instances):
        if noise_channel is None:
            zero_cert = DualCertificate(0.0, np.zeros((1, 1)), 0.0, None, 0.0)
            bounds[index] = DiamondNormBound(0.0, zero_cert, 0.0, method="noiseless")
            continue
        if delta < 0:
            raise SDPError("delta must be non-negative")
        noisy.append((index, float(delta)))
        reduction_inputs.append((gate_matrix, noise_channel, rho_local))
    with span("sdp.reduce", "sdp", count=len(reduction_inputs)):
        reduced = _reduced_gate_problems_batch(
            reduction_inputs, noise_after_gate=noise_after_gate
        )
    # Many requests reduce to the same problem: a gate repeated under the
    # same quantised predicate, or a two-qubit gate whose noise touches one
    # qubit, which keeps only one qubit of ρ̂.  Each distinct problem,
    # compared byte for byte, is bounded once and its bound fans back out to
    # every request that reduced to it.  A closed-form problem is (p, V, σ,
    # δ); an SDP is (Choi, σ, c), and with c <= 0 the constraint is dropped
    # and the solver never reads σ or c, so such requests are told apart by
    # their Choi matrix alone.
    closed: list[tuple[float, np.ndarray, np.ndarray, float]] = []
    requests: list[tuple[np.ndarray, np.ndarray | None, float]] = []
    slots: dict[tuple, tuple[bool, int]] = {}
    slot_of: list[tuple[bool, int]] = []
    for (_index, delta), (_gate, channel, _rho), (diff_choi, sigma) in zip(
        noisy, reduction_inputs, reduced
    ):
        recognised = closed_form_channel(channel)
        if recognised is not None:
            p, v = recognised
            problem = (p, v.tobytes(), sigma.shape, sigma.tobytes(), delta)
            if problem not in slots:
                slots[problem] = (True, len(closed))
                closed.append((p, v, sigma, delta))
        else:
            bound_c = rho_delta_constraint_bound(sigma, delta)
            problem = (diff_choi.shape, diff_choi.tobytes())
            if bound_c > 0.0:
                problem += (sigma.tobytes(), np.float64(bound_c).tobytes())
            if problem not in slots:
                slots[problem] = (False, len(requests))
                requests.append((diff_choi, predicate_operator(sigma), bound_c))
        slot_of.append(slots[problem])
    closed_bounds = _closed_form_bounds(closed)
    solved = constrained_diamond_norms_batch(requests, config=config) if requests else []
    for (index, _delta), (is_closed, slot) in zip(noisy, slot_of):
        bounds[index] = (closed_bounds if is_closed else solved)[slot]
    return bounds  # type: ignore[return-value]


def _closed_form_bounds(
    problems: list[tuple[float, np.ndarray, np.ndarray, float]],
) -> list[DiamondNormBound]:
    """Closed-form bounds for ``(p, V, σ, δ)`` problems, one stacked pass per size."""
    bounds: list = [None] * len(problems)
    by_dim: dict[int, list[int]] = {}
    for index, (_p, v, _sigma, _delta) in enumerate(problems):
        by_dim.setdefault(v.shape[0], []).append(index)
    with span("sdp.closed_form", "sdp", count=len(problems)):
        for indices in by_dim.values():
            certificates = closed_form_certificates(
                [problems[i][0] for i in indices],
                np.stack([problems[i][1] for i in indices]),
                np.stack([problems[i][2] for i in indices]),
                [problems[i][3] for i in indices],
            )
            for index, certificate in zip(indices, certificates):
                bounds[index] = DiamondNormBound(
                    value=certificate.value,
                    certificate=certificate,
                    primal_estimate=certificate.value,
                    method="closed-form",
                )
    return bounds


#: Decimals ρ̂ is rounded to, and the grid δ is rounded up to, before a
#: gate's SDP is built (:func:`quantise_predicates`).  Job fingerprints still
#: carry it as ``sdp.cache_decimals``.
PREDICATE_DECIMALS = 6


def quantise_predicates(
    rhos: list[np.ndarray],
    deltas: list[float],
    decimals: int = PREDICATE_DECIMALS,
) -> list[tuple[np.ndarray, float]]:
    """Quantise many gate predicates, one stacked pass per matrix size.

    For each ``(ρ̂, δ)`` this returns the rounded ρ̂ and the weakened δ.  ρ̂
    is rounded to ``decimals`` and made Hermitian.  δ grows by the trace norm
    of the rounding error, which is the sum of its absolute eigenvalues when
    :func:`~repro.linalg.norms.hermitian_mask` passes and of its singular
    values otherwise, exactly as :func:`~repro.linalg.norms.trace_norm`
    decides.  It is then rounded up to the grid.  A bound certified for the
    quantised predicate is therefore computed for a weaker predicate and
    stays sound for the original one (Weaken rule).  Every batched primitive
    works matrix by matrix, so each result is independent of what else the
    batch holds.
    """
    results: list = [None] * len(rhos)
    groups: dict[tuple, list[int]] = {}
    arrays = [np.asarray(rho) for rho in rhos]
    for index, rho in enumerate(arrays):
        groups.setdefault((rho.dtype.str, rho.shape), []).append(index)
    step = 10.0 ** (-decimals)
    for indices in groups.values():
        raw = np.stack([arrays[i] for i in indices])
        rounded = np.round(raw, decimals)
        rounded = (rounded + rounded.conj().swapaxes(1, 2)) / 2
        errors = np.asarray(raw - rounded, dtype=np.complex128)
        hermitian = hermitian_mask(errors)
        sigma = np.empty(errors.shape[:2])
        if hermitian.any():
            sigma[hermitian] = np.abs(np.linalg.eigvalsh(errors[hermitian]))
        if not hermitian.all():
            sigma[~hermitian] = np.linalg.svd(errors[~hermitian], compute_uv=False)
        weakened = np.array([deltas[i] for i in indices], dtype=float)
        weakened += sigma.sum(axis=1)
        # ceil(x / step) * step can land one ulp below x; never round δ down.
        effective = np.maximum(np.ceil(weakened / step) * step, weakened)
        for row, index in enumerate(indices):
            results[index] = (rounded[row], float(effective[row]))
    return results
