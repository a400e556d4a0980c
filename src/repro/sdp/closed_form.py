"""Exact gate bounds in closed form for single-unitary-error noise.

A channel with Kraus operators ``√(1 − p)·I`` and ``√p·V`` — or the single
operator ``V`` when ``p = 1`` — applies ``N(ρ) = (1 − p)ρ + p·VρV†``.  For a
Hermitian unitary ``V`` that is not ``±I`` (bit, phase and Y flips, and
Pauli strings on two qubits) its (σ, δ)-diamond distance from the identity
has a closed form:

    ε = p·√(1 − m²),   m = max(0, |Tr(Vσ)| − δ).

Why.  A pure joint input ψ with reduced state ρ maps to
``p(|a⟩⟨a| − |ψ⟩⟨ψ|)`` with ``|a⟩ = (V ⊗ I)|ψ⟩``, whose half trace norm is
``p·√(1 − |⟨ψ|a⟩|²) = p·√(1 − |Tr(Vρ)|²)``.  A mixed joint input does no
better: purify it and trace the purifying system out again.  Every ρ with
``‖ρ − σ‖₁ ≤ δ`` has ``|Tr(Vρ)| ≥ |Tr(Vσ)| − ‖V‖∞·δ = |Tr(Vσ)| − δ``, so
``ε`` bounds the (σ, δ)-diamond norm.  Because ``V`` has both eigenvalues
``±1``, ``m = 0`` is reached by the unconstrained problem, whose value is
therefore exactly ``p``.

This replaces the Eq. (2) SDP for such gates: the SDP relaxes the trace-norm
ball to a halfspace and is never tighter.  Floating point is handled
explicitly, with nothing but IEEE basic operations and ``sqrt``, so a value
is reproducible bit for bit on any machine:

* ``Tr(Vσ)`` is summed term by term and ``m`` is lowered by a margin that
  exceeds the rounding error of that sum (:func:`closed_form_m`), so
  ``m + δ ≤ |Tr(Vσ)|`` holds exactly for the float entries of ``V`` and σ;
* ``ε`` is rounded up past the error of its four operations
  (:func:`closed_form_value`), so ``ε² ≥ p²(1 − m²)`` holds exactly.

:func:`verify_closed_form` recomputes a certificate from its own ``(p, V, σ,
δ)`` and accepts it only when ``m`` and the value agree bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..linalg.channels import QuantumChannel

__all__ = [
    "ClosedFormCertificate",
    "single_unitary_error",
    "closed_form_m",
    "closed_form_value",
    "closed_form_certificates",
    "verify_closed_form",
]

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53

#: Largest entry-wise difference between a channel's Choi matrix and the one
#: rebuilt from its recognised ``(p, V)``.
RECOGNITION_TOLERANCE = 1e-12

#: Below this, ``p·√(1 − m²)`` may be subnormal, where relative rounding
#: bounds fail; :func:`closed_form_value` then returns ``p`` itself.
_TINY = 2.0**-1000


@dataclasses.dataclass(frozen=True)
class ClosedFormCertificate:
    """The closed-form bound of one gate and everything needed to recompute it.

    Attributes:
        p: the error probability of the channel ``(1 − p)ρ + p·VρV†``.
        v: the Hermitian unitary error ``V`` on the reduced qubits.
        sigma: the reduced predicate σ the bound holds for.
        delta: the predicate distance δ.
        m: a lower bound on ``|Tr(Vρ)|`` over the ball, rounded down.
        value: the certified bound ``min(p, ↑(p·√((1 − m)(1 + m))))``.
    """

    p: float
    v: np.ndarray
    sigma: np.ndarray
    delta: float
    m: float
    value: float


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

def single_unitary_error(channel: QuantumChannel) -> tuple[float, np.ndarray] | None:
    """``(p, V)`` when ``channel`` is ``(1 − p)ρ + p·VρV†``, else None.

    ``V`` is a Hermitian unitary other than ``±I`` and ``0 < p ≤ 1``.  Every
    Kraus operator of such a channel lies in ``span{I, V}``, so the traceless
    parts of all of them point along ``V − (Tr V/d)·I``.  ``V`` follows from
    the largest of them: fix its phase so that it is Hermitian, and pick the
    eigenvalue multiplicity ``k`` (``Tr V = 2k − d``) that makes ``V² = I``.
    ``V`` is rounded to 12 decimals when that makes it exactly a Hermitian
    unitary (Pauli strings), and ``p`` is the weight of the Kraus operators
    along ``V``'s traceless part.  Working on the Kraus operators keeps the
    error of ``V`` relative to ``√p`` rather than to 1, which matters for
    small ``p``.  The match is accepted only when ``(p, V)`` rebuilds the
    channel's Choi matrix to ``RECOGNITION_TOLERANCE``.
    """
    dim = channel.dim_in
    if channel.dim_out != dim:
        return None
    eye = np.eye(dim)
    traceless = [k - (np.trace(k) / dim) * eye for k in channel.kraus]
    largest = max(traceless, key=np.linalg.norm)
    if np.linalg.norm(largest) <= RECOGNITION_TOLERANCE:
        return None  # every Kraus operator is a multiple of I
    direction = largest / np.linalg.norm(largest)
    # A Hermitian T has Tr(T²) = ‖T‖²; for e^{iφ}T that is e^{2iφ}.
    phase = np.trace(direction @ direction)
    if abs(abs(phase) - 1.0) > 1e-9:
        return None
    direction = direction * np.exp(-0.5j * np.angle(phase))
    direction = (direction + direction.conj().T) / 2
    for k in range(1, dim):
        trace = 2 * k - dim
        v = (trace / dim) * eye + np.sqrt(dim - trace * trace / dim) * direction
        if np.abs(v @ v - eye).max() <= RECOGNITION_TOLERANCE:
            break
    else:
        return None
    rounded = np.round(v, 12)
    if np.array_equal(rounded, rounded.conj().T) and np.array_equal(rounded @ rounded, eye):
        v = rounded
    part = v - (np.trace(v) / dim) * eye
    weight = np.vdot(part, part).real
    p = min(1.0, float(sum(abs(np.vdot(part, k)) ** 2 for k in channel.kraus) / weight**2))
    if not p > 0.0:
        return None
    omega = eye.reshape(-1).astype(np.complex128)
    vec = v.reshape(-1)
    rebuilt = (1.0 - p) * np.outer(omega, omega) + p * np.outer(vec, vec.conj())
    if np.abs(rebuilt - channel.choi()).max() > RECOGNITION_TOLERANCE:
        return None
    v = v.astype(np.complex128)
    v.setflags(write=False)
    return p, v


# ---------------------------------------------------------------------------
# The bound, sound in floating point
# ---------------------------------------------------------------------------

def closed_form_m(vs: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Rounded-down ``m = max(0, |Tr(Vσ)| − δ)`` for stacks of ``(V, σ, δ)``.

    ``Re Tr(Vσ)`` is summed term by term in a fixed order with real
    operations only, so each element is independent of the stack and of the
    platform.  The sum of ``n = d²`` terms, each ``a·b − c·d``, is off by at
    most ``(n + 1)u·S`` with ``S = Σ (|Re V| + |Im V|)(|Re σ| + |Im σ|)``
    taken over the same terms; the two subtractions that follow add at most
    ``2u(S + δ + margin)``.  The margin ``4(n + 4)u(S + δ)`` covers all of
    it with room to spare, so ``m + δ ≤ |Re Tr(Vσ)| ≤ |Tr(Vσ)|`` holds
    exactly.  ``m`` is capped at 1, which ``|Tr(Vρ)|`` never exceeds.
    """
    vs = np.asarray(vs, dtype=np.complex128)
    sigmas_t = np.asarray(sigmas, dtype=np.complex128).swapaxes(-1, -2)
    count, dim = vs.shape[0], vs.shape[-1]
    vr, vi = vs.real.reshape(count, -1), vs.imag.reshape(count, -1)
    sr, si = sigmas_t.real.reshape(count, -1), sigmas_t.imag.reshape(count, -1)
    terms = vr * sr - vi * si
    sizes = (np.abs(vr) + np.abs(vi)) * (np.abs(sr) + np.abs(si))
    trace = terms[:, 0].copy()
    scale = sizes[:, 0].copy()
    for k in range(1, dim * dim):
        trace = trace + terms[:, k]
        scale = scale + sizes[:, k]
    deltas = np.asarray(deltas, dtype=float)
    margin = (4.0 * (dim * dim + 4) * _UNIT_ROUNDOFF) * (scale + deltas)
    m = (np.abs(trace) - deltas) - margin
    return np.minimum(1.0, np.maximum(0.0, m))


def closed_form_value(p, m):
    """``min(p, ↑(p·√((1 − m)(1 + m))))``, elementwise over arrays or scalars.

    ``(1 − m)`` is exact for ``m ≥ ½`` and otherwise rounds once, as do
    ``(1 + m)``, their product, ``sqrt`` and the product with ``p``: the
    computed value is within ``3.5u`` (relative) of the exact one.  Scaling
    by ``1 + 16u`` and stepping one ulp up lands above it.  At ``m = 0``
    this is exactly ``p``; at ``m = 1`` it is exactly 0 (every state in the
    ball is an eigenstate of ``V``, which the channel leaves alone).
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    product = (1.0 - m) * (1.0 + m)
    raw = p * np.sqrt(product)
    up = np.nextafter(raw * (1.0 + 16.0 * _UNIT_ROUNDOFF), np.inf)
    value = np.where(raw < _TINY, p, np.minimum(p, up))
    value = np.where(product == 0.0, 0.0, value)
    return value[()] if value.ndim == 0 else value


def closed_form_certificates(
    ps: np.ndarray, vs: np.ndarray, sigmas: np.ndarray, deltas: np.ndarray
) -> list[ClosedFormCertificate]:
    """One certificate per ``(p, V, σ, δ)``; ``vs`` and ``sigmas`` share one size."""
    ps = np.asarray(ps, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    ms = closed_form_m(vs, sigmas, deltas)
    values = closed_form_value(ps, ms)
    return [
        ClosedFormCertificate(
            p=float(ps[i]),
            v=vs[i],
            sigma=sigmas[i],
            delta=float(deltas[i]),
            m=float(ms[i]),
            value=float(values[i]),
        )
        for i in range(len(ps))
    ]


def verify_closed_form(certificate: ClosedFormCertificate) -> bool:
    """Recompute ``m`` and the value from ``(p, V, σ, δ)``; no tolerance.

    Accepts only a certificate whose ``m`` and value are exactly what
    :func:`closed_form_certificates` computes from its own inputs, with
    ``0 ≤ p ≤ 1``, ``δ ≥ 0`` and ``V`` Hermitian.
    """
    v = np.asarray(certificate.v, dtype=np.complex128)
    sigma = np.asarray(certificate.sigma, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or sigma.shape != v.shape:
        return False
    if not (0.0 <= certificate.p <= 1.0 and certificate.delta >= 0.0):
        return False
    if not np.array_equal(v, v.conj().T):
        return False
    (recomputed,) = closed_form_certificates(
        [certificate.p], v[None], sigma[None], [certificate.delta]
    )
    return recomputed.m == certificate.m and recomputed.value == certificate.value
