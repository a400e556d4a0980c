"""Matrix Product State representation of pure quantum states (Section 5).

An :class:`MPS` stores an n-qubit pure state as a chain of rank-3 tensors
``A_i`` with shape ``(chi_{i-1}, 2, chi_i)`` and ``chi_0 = chi_n = 1``.  The
class maintains a *mixed canonical form*: every tensor to the left of the
orthogonality ``center`` is left-isometric and every tensor to its right is
right-isometric.  This makes the local SVD truncation performed when applying
2-qubit gates *globally optimal*, so the per-step truncation errors recorded
by :mod:`repro.mps.truncation` are exactly the trace-norm distances the
paper's error accounting sums up.

Logical qubits and chain sites are kept apart: the state carries a
*layout*, the site of every logical qubit, which routing permutes.  Every
logical-level method (:meth:`MPS.apply_gate`, :meth:`MPS.route`,
:meth:`MPS.reduced_density_matrix`, :meth:`MPS.outcome_probability`,
:meth:`MPS.project`, :meth:`MPS.amplitude`, :meth:`MPS.to_statevector`)
takes logical qubits; the site-level primitives (``apply_single_qubit_gate``,
``apply_two_site_gate``, ``swap_sites``, ``move_center``) take sites.  A new
state and a copy keep the layout they start with; ``project`` keeps it.

Supported operations:

* exact single-qubit gate application (never truncates);
* two-site (adjacent) gate application with bond truncation;
* arbitrary-distance 2-qubit gates by lazy routing: the operand on the
  lower site is swapped up next to its partner and stays there, so a gate
  at distance k costs k SVDs (every swap's truncation is recorded);
* inner products, norms, amplitudes, and conversion to a dense state vector;
* reduced density matrices on one qubit or on two qubits on adjacent sites,
  which feed the (ρ̂, δ)-diamond norm SDP (route a distant pair first);
* measurement probabilities and projective collapse, for branch support.

Every contraction is an explicit chain of GEMMs (``@`` / ``np.tensordot``)
in a fixed order, costing O(chi^3) per site with d = 2:

* reduced density matrices run with the center inside the requested span,
  so both outer environments are identities.  A pair moves the center only
  when it lies outside the pair (to the nearer site) and is read as the
  Gram of the two-site tensor theta.  A single qubit whose neighbour holds
  the center is read off that pair's Gram; any other single qubit moves the
  center onto it;
* inner products and norms walk a chi x chi environment across the chain;
* a two-site gate moves the center only when it lies outside the gate's
  pair, and its SVD split leaves the center on the pair's right site.  A
  routing swap is such a gate, so the center travels with the routed qubit
  and routing takes no QR step once the center is on the first swap's pair;
  the gate that follows a predicate on the same pair reuses its theta;
* gate application and the QR steps of ``move_center`` are one GEMM each.
  They multiply in the transposed operand layout of numpy's pairwise
  ``einsum`` (``right^T @ left^T``).  That keeps their floating-point sums
  equal to an ``einsum`` formulation's for most shapes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.linalg.lapack import zgeqrf, zungqr

from ..config import check_deadline
from ..errors import MPSError
from ..linalg.operators import SWAP
from .truncation import TruncationInfo, split_theta

__all__ = ["MPS"]


class MPS:
    """A matrix product state over qubits (physical dimension 2).

    ``layout[q]`` is the chain site that holds logical qubit ``q``; a new
    state starts with qubit ``q`` on site ``q``.
    """

    def __init__(
        self, tensors: Sequence[np.ndarray], *, center: int = 0, max_bond: int | None = None
    ):
        if not tensors:
            raise MPSError("an MPS needs at least one site")
        self._tensors = [np.asarray(t, dtype=np.complex128) for t in tensors]
        self._validate_shapes()
        self._center = int(center)
        if not 0 <= self._center < len(self._tensors):
            raise MPSError(f"center {center} outside 0..{len(self._tensors) - 1}")
        self.max_bond = int(max_bond) if max_bond is not None else None
        # The layout (logical qubit -> site) and its inverse (site -> qubit).
        self._sites = list(range(len(self._tensors)))
        self._qubits = list(range(len(self._tensors)))
        # (left, right, theta) of the last two-site tensor formed.  Site
        # tensors are replaced, never written in place, so it is current
        # while both tensors are still the ones it holds.
        self._theta_memo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ setup
    def _validate_shapes(self) -> None:
        for index, tensor in enumerate(self._tensors):
            if tensor.ndim != 3 or tensor.shape[1] != 2:
                raise MPSError(
                    f"site {index} tensor has shape {tensor.shape}, expected (chi, 2, chi')"
                )
        if self._tensors[0].shape[0] != 1 or self._tensors[-1].shape[2] != 1:
            raise MPSError("boundary bond dimensions must be 1")
        for index in range(len(self._tensors) - 1):
            if self._tensors[index].shape[2] != self._tensors[index + 1].shape[0]:
                raise MPSError(
                    f"bond mismatch between sites {index} and {index + 1}: "
                    f"{self._tensors[index].shape[2]} vs {self._tensors[index + 1].shape[0]}"
                )

    @classmethod
    def from_product_state(cls, bits: str | Sequence[int], *, max_bond: int | None = None) -> "MPS":
        """MPS of a computational-basis product state ``|bits>``."""
        values = [int(b) for b in bits]
        if not values:
            raise MPSError("product state needs at least one qubit")
        if any(v not in (0, 1) for v in values):
            raise MPSError(f"bits must be 0/1, got {bits!r}")
        tensors = []
        for value in values:
            tensor = np.zeros((1, 2, 1), dtype=np.complex128)
            tensor[0, value, 0] = 1.0
            tensors.append(tensor)
        return cls(tensors, center=0, max_bond=max_bond)

    @classmethod
    def zero_state(cls, num_qubits: int, *, max_bond: int | None = None) -> "MPS":
        """The all-zeros product state on ``num_qubits`` qubits."""
        return cls.from_product_state([0] * num_qubits, max_bond=max_bond)

    @classmethod
    def from_statevector(
        cls, statevector: np.ndarray, *, max_bond: int | None = None
    ) -> "MPS":
        """Exact (or truncated) MPS of a dense state vector.

        Intended for tests and small inputs; the cost is exponential in the
        number of qubits because the dense vector already is.
        """
        statevector = np.asarray(statevector, dtype=np.complex128).reshape(-1)
        dim = statevector.size
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise MPSError(f"state vector length {dim} is not a power of two")
        tensors: list[np.ndarray] = []
        remainder = statevector.reshape(1, -1)
        chi = 1
        for site in range(n - 1):
            matrix = remainder.reshape(chi * 2, -1)
            u, s, vh = np.linalg.svd(matrix, full_matrices=False)
            keep = s.size if max_bond is None else min(s.size, max_bond)
            keep = max(1, int(np.count_nonzero(s[:keep] > 1e-15)) or 1)
            tensors.append(u[:, :keep].reshape(chi, 2, keep))
            remainder = (s[:keep, None] * vh[:keep, :])
            chi = keep
        tensors.append(remainder.reshape(chi, 2, 1))
        mps = cls(tensors, center=n - 1, max_bond=max_bond)
        return mps

    # ------------------------------------------------------------- properties
    @property
    def num_sites(self) -> int:
        return len(self._tensors)

    @property
    def num_qubits(self) -> int:
        return len(self._tensors)

    @property
    def center(self) -> int:
        return self._center

    @property
    def tensors(self) -> list[np.ndarray]:
        """The site tensors in chain order (a shallow copy of the list; do not mutate)."""
        return list(self._tensors)

    @property
    def layout(self) -> tuple[int, ...]:
        """The chain site of every logical qubit, indexed by qubit."""
        return tuple(self._sites)

    def bond_dimensions(self) -> list[int]:
        """Internal bond dimensions (length ``num_sites - 1``)."""
        return [self._tensors[i].shape[2] for i in range(self.num_sites - 1)]

    def max_bond_dimension(self) -> int:
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    def copy(self) -> "MPS":
        clone = MPS([t.copy() for t in self._tensors], center=self._center, max_bond=self.max_bond)
        clone._sites = list(self._sites)
        clone._qubits = list(self._qubits)
        return clone

    # ------------------------------------------------------------ contraction
    def norm_squared(self) -> float:
        return float(self.inner(self).real)

    def norm(self) -> float:
        return float(np.sqrt(max(0.0, self.norm_squared())))

    def normalize(self) -> "MPS":
        """Scale the state to unit norm (in place); returns self."""
        norm = self.norm()
        if norm <= 0:
            raise MPSError("cannot normalise a zero state")
        self._tensors[self._center] = self._tensors[self._center] / norm
        return self

    def inner(self, other: "MPS") -> complex:
        """Inner product ``<self|other>`` (Figure 12/13 contraction).

        Both states must hold every qubit on the same site.
        """
        if other.num_sites != self.num_sites:
            raise MPSError("inner product requires equal numbers of sites")
        if other._sites != self._sites:
            raise MPSError("inner product requires both states to share one layout")
        env = np.ones((1, 1), dtype=np.complex128)
        for ket, bra in zip(other._tensors, self._tensors):
            env = _transfer(env, ket, bra)
        return complex(env[0, 0])

    def overlap_error(self, other: "MPS") -> float:
        """Trace-norm distance ``|| |self><self| - |other><other| ||_1``.

        Both states are normalised before comparison (the formula
        ``2 sqrt(1 - |<a|b>|^2)`` assumes unit vectors).
        """
        na, nb = self.norm(), other.norm()
        if na <= 0 or nb <= 0:
            raise MPSError("cannot compare zero states")
        overlap = abs(self.inner(other)) / (na * nb)
        overlap = min(1.0, overlap)
        return 2.0 * float(np.sqrt(max(0.0, 1.0 - overlap**2)))

    def to_statevector(self) -> np.ndarray:
        """Dense state vector in logical qubit order (exponential; for tests/small systems)."""
        if self.num_sites > 26:
            raise MPSError("refusing to densify an MPS with more than 26 qubits")
        psi = np.ones((1, 1), dtype=np.complex128)
        for tensor in self._tensors:
            chi_left, _, chi_right = tensor.shape
            psi = (psi @ tensor.reshape(chi_left, 2 * chi_right)).reshape(-1, chi_right)
        # Axis s of the contraction is site s; axis q of the result is qubit q.
        return psi.reshape([2] * self.num_sites).transpose(self._sites).reshape(-1)

    def amplitude(self, bits: str | Sequence[int]) -> complex:
        """Amplitude ``<bits|psi>``, with ``bits`` in logical qubit order."""
        values = [int(b) for b in bits]
        if len(values) != self.num_sites:
            raise MPSError(f"expected {self.num_sites} bits, got {len(values)}")
        env = np.ones((1,), dtype=np.complex128)
        for qubit, tensor in zip(self._qubits, self._tensors):
            env = env @ tensor[:, values[qubit], :]
        return complex(env[0])

    # --------------------------------------------------------- canonical form
    def _qr_step_right(self, site: int) -> None:
        """Make site ``site`` left-isometric, pushing weight to ``site + 1``."""
        tensor = self._tensors[site]
        chi_left, _, chi_right = tensor.shape
        matrix = tensor.reshape(chi_left * 2, chi_right)
        q, r = _qr(matrix)
        k = q.shape[1]
        self._tensors[site] = q.reshape(chi_left, 2, k)
        following = self._tensors[site + 1]
        # (s b, r) @ (r, k): one GEMM, transposed back to (k, s, b).
        product = following.transpose(1, 2, 0).reshape(-1, chi_right) @ r.T
        self._tensors[site + 1] = product.reshape(2, -1, k).transpose(2, 0, 1)

    def _qr_step_left(self, site: int) -> None:
        """Make site ``site`` right-isometric, pushing weight to ``site - 1``."""
        tensor = self._tensors[site]
        chi_left, _, chi_right = tensor.shape
        matrix = tensor.reshape(chi_left, 2 * chi_right)
        # LQ decomposition via QR of the conjugate transpose.
        q, r = _qr(matrix.conj().T)
        k = q.shape[1]
        self._tensors[site] = q.conj().T.reshape(k, 2, chi_right)
        previous = self._tensors[site - 1]
        # (k, a) @ (a, l s): one GEMM, transposed back to (l, s, k).
        product = r.conj() @ previous.transpose(2, 0, 1).reshape(chi_left, -1)
        self._tensors[site - 1] = product.reshape(k, -1, 2).transpose(1, 2, 0)

    def canonicalize(self, center: int = 0) -> "MPS":
        """Bring the MPS into mixed canonical form around ``center`` (in place)."""
        if not 0 <= center < self.num_sites:
            raise MPSError(f"center {center} outside 0..{self.num_sites - 1}")
        for site in range(0, center):
            self._qr_step_right(site)
        for site in range(self.num_sites - 1, center, -1):
            self._qr_step_left(site)
        self._center = center
        return self

    def move_center(self, target: int) -> "MPS":
        """Move the orthogonality center to ``target`` one QR step at a time."""
        if not 0 <= target < self.num_sites:
            raise MPSError(f"target {target} outside 0..{self.num_sites - 1}")
        while self._center < target:
            self._qr_step_right(self._center)
            self._center += 1
        while self._center > target:
            self._qr_step_left(self._center)
            self._center -= 1
        return self

    # --------------------------------------------------------- gate application
    def apply_single_qubit_gate(self, matrix: np.ndarray, site: int) -> TruncationInfo:
        """Apply a 1-qubit gate exactly (Figure 10); never truncates."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (2, 2):
            raise MPSError(f"expected a 2x2 gate, got shape {matrix.shape}")
        self._check_site(site)
        tensor = self._tensors[site]
        chi_left, _, chi_right = tensor.shape
        # (a b, t) @ (t, s): one GEMM, transposed back to (a, s, b).
        product = tensor.transpose(0, 2, 1).reshape(-1, 2) @ matrix.T
        self._tensors[site] = product.reshape(chi_left, chi_right, 2).transpose(0, 2, 1)
        return TruncationInfo.zero()

    def apply_two_site_gate(self, matrix: np.ndarray, site: int) -> TruncationInfo:
        """Apply a 2-qubit gate to adjacent sites ``(site, site + 1)`` (Figure 11).

        The gate matrix is given in the usual ``|q_site q_{site+1}>`` ordering.
        The orthogonality center may sit on either site; it is moved only when
        it lies outside the pair.  The SVD split leaves the center on
        ``site + 1``.  Returns the truncation record of the split.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (4, 4):
            raise MPSError(f"expected a 4x4 gate, got shape {matrix.shape}")
        if not 0 <= site < len(self._tensors) - 1:
            raise MPSError(f"two-site gate at {site} outside the chain")
        self._center_into(site, site + 1)
        theta = self._theta(site)
        _, chi_right, chi_left, _ = theta.shape
        # (l r, s t) @ gate^T: one GEMM, transposed back to (l, a, b, r).
        theta = theta.transpose(2, 1, 3, 0).reshape(-1, 4)
        theta = (theta @ matrix.T).reshape(chi_left, chi_right, 2, 2).transpose(0, 2, 3, 1)
        max_bond = self.max_bond if self.max_bond is not None else theta.shape[0] * 2
        left, right, info = split_theta(theta, max_bond)
        self._tensors[site] = left
        self._tensors[site + 1] = right
        self._center = site + 1
        return info

    def _theta(self, site: int) -> np.ndarray:
        """The two-site tensor of ``(site, site + 1)`` as ``theta[t, r, l, s]``.

        A predicate read off a routed pair and the gate applied next share
        one theta.
        """
        left, right = self._tensors[site], self._tensors[site + 1]
        memo = self._theta_memo
        if memo is not None and memo[0] is left and memo[1] is right:
            return memo[2]
        chi_left, _, bond = left.shape
        # theta[t, r, l, s] = sum_a right[a, t, r] left[l, s, a]: one GEMM.
        right_t = right.transpose(1, 2, 0).reshape(-1, bond)
        left_t = left.transpose(2, 0, 1).reshape(bond, -1)
        theta = (right_t @ left_t).reshape(2, right.shape[2], chi_left, 2)
        self._theta_memo = (left, right, theta)
        return theta

    def _center_into(self, first: int, last: int) -> None:
        """Move the center to the nearer of ``first``/``last`` if it lies outside them."""
        if self._center < first:
            self.move_center(first)
        elif self._center > last:
            self.move_center(last)

    def swap_sites(self, site: int) -> TruncationInfo:
        """Swap the qubits at sites ``site`` and ``site + 1`` (may truncate).

        The logical state is unchanged (up to truncation): the two qubits
        trade sites in the layout, and the center ends on ``site + 1``.
        """
        info = self.apply_two_site_gate(SWAP, site)
        first, second = self._qubits[site], self._qubits[site + 1]
        self._qubits[site], self._qubits[site + 1] = second, first
        self._sites[first], self._sites[second] = site + 1, site
        return info

    def route(self, qubits: Sequence[int]) -> list[TruncationInfo]:
        """Bring two logical qubits onto adjacent sites; returns the swaps' records.

        The qubit on the lower site is swapped up, one site at a time, until
        it sits next to its partner, and it stays there: nothing is swapped
        back, so a pair at distance k takes k - 1 swaps.  Each swap leaves
        the center on its right site, so the center travels with the routed
        qubit.  Each swap first checks the job's deadline
        (:func:`repro.config.check_deadline`): at wide bond dimension one
        routed gate can take half a second.
        """
        return self._route(*self._pair(qubits))

    def _route(self, a: int, b: int) -> list[TruncationInfo]:
        low, high = sorted((self._sites[a], self._sites[b]))
        records: list[TruncationInfo] = []
        for site in range(low, high - 1):
            check_deadline()
            records.append(self.swap_sites(site))
        return records

    def apply_gate(self, matrix: np.ndarray, qubits: Sequence[int]) -> list[TruncationInfo]:
        """Apply a 1- or 2-qubit gate on arbitrary (possibly distant) logical qubits.

        A distant 2-qubit gate is first routed (:meth:`route`); the gate then
        acts on the adjacent pair.  Every step's truncation is recorded; the
        list of records is returned in application order, the gate's last.
        """
        matrix = np.asarray(matrix, dtype=np.complex128)
        if len(qubits) == 1:
            qubit = int(qubits[0])
            self._check_qubit(qubit)
            return [self.apply_single_qubit_gate(matrix, self._sites[qubit])]
        a, b = self._pair(qubits)
        records = self._route(a, b)
        first, second = self._sites[a], self._sites[b]
        if first > second:
            # The gate's operands sit in reverse site order; permute the gate.
            matrix = SWAP @ matrix @ SWAP
        records.append(self.apply_two_site_gate(matrix, min(first, second)))
        return records

    def _pair(self, qubits: Sequence[int]) -> tuple[int, int]:
        """Validate the operands of a 2-qubit operation."""
        if len(qubits) != 2:
            raise MPSError("MPS gate application supports 1- and 2-qubit gates only")
        a, b = (int(q) for q in qubits)
        self._check_qubit(a)
        self._check_qubit(b)
        if a == b:
            raise MPSError("2-qubit gate applied to a single qubit twice")
        return a, b

    def _check_site(self, site: int) -> None:
        if not 0 <= site < len(self._tensors):
            raise MPSError(f"site {site} outside 0..{len(self._tensors) - 1}")

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < len(self._tensors):
            raise MPSError(f"qubit {qubit} outside 0..{len(self._tensors) - 1}")

    # --------------------------------------------------------------- measurement
    def outcome_probability(self, qubit: int, outcome: int) -> float:
        """Probability of measuring ``outcome`` (0/1) on logical ``qubit``."""
        if outcome not in (0, 1):
            raise MPSError("outcome must be 0 or 1")
        rho = self.reduced_density_matrix([qubit])
        return float(np.real(rho[outcome, outcome]))

    def project(self, qubit: int, outcome: int) -> float:
        """Collapse logical ``qubit`` onto ``outcome``; returns the outcome probability.

        The state is renormalised after the projection and keeps its layout.
        Used by the MPS approximator to support ``if`` statements
        (Section 5.2, "Supporting branches").
        """
        probability = self.outcome_probability(qubit, outcome)
        if probability <= 1e-15:
            raise MPSError(
                f"cannot project qubit {qubit} onto outcome {outcome} of probability ~0"
            )
        site = self._sites[qubit]
        tensor = self._tensors[site].copy()
        tensor[:, 1 - outcome, :] = 0.0
        self._tensors[site] = tensor
        # Projection breaks the isometric structure; rebuild it.
        self.canonicalize(self._center)
        self.normalize()
        return probability

    # ----------------------------------------------------- reduced density matrices
    def reduced_density_matrix(self, qubits: Sequence[int]) -> np.ndarray:
        """Local density matrix on one qubit or two adjacent ones, in the given order.

        This is the ρ' fed to the (ρ̂, δ)-diamond norm SDP (Section 6,
        "Computing local density matrix").  Two qubits must sit on adjacent
        sites; :meth:`route` brings a distant pair together.  The result is
        normalised to unit trace to protect against accumulated
        floating-point norm drift.
        """
        qubits = [int(q) for q in qubits]
        for q in qubits:
            self._check_qubit(q)
        # Every contraction below runs with the orthogonality center inside
        # the requested span, so both outer environments are identities.
        if len(qubits) == 1:
            site = self._sites[qubits[0]]
            if self._center == site + 1:
                rho = self._rdm_adjacent(site).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            elif self._center == site - 1:
                rho = self._rdm_adjacent(site - 1).reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
            else:
                self.move_center(site)
                rho = self._rdm_single(site)
        elif len(qubits) == 2:
            if qubits[0] == qubits[1]:
                raise MPSError("duplicate qubits in reduced density matrix request")
            first, second = self._sites[qubits[0]], self._sites[qubits[1]]
            if abs(first - second) != 1:
                raise MPSError(
                    f"qubits {qubits[0]} and {qubits[1]} are not on adjacent sites; "
                    "route them first"
                )
            low = min(first, second)
            self._center_into(low, low + 1)
            rho = self._rdm_adjacent(low)
            if first > second:
                # Swap the tensor factors back into the requested order.
                rho = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        else:
            raise MPSError("reduced density matrices support 1 or 2 qubits only")
        rho = (rho + rho.conj().T) / 2
        trace = float(rho.trace().real)
        if trace <= 0:
            raise MPSError("reduced density matrix has non-positive trace")
        return rho / trace

    def _rdm_single(self, site: int) -> np.ndarray:
        """rho[s, t] at the orthogonality center, whose environments are identities."""
        tensor = self._tensors[site]
        # (2, chi_left * chi_right) with the physical index first.
        matrix = tensor.transpose(1, 0, 2).reshape(2, -1)
        return matrix @ matrix.conj().T

    def _rdm_adjacent(self, i: int) -> np.ndarray:
        """rho[(s, u), (t, v)] of sites ``(i, i + 1)`` with the center on one of them.

        The Gram ``M Mᴴ`` of the two-site tensor with ``M[(s, u), (l, r)]``:
        one GEMM to form theta, then 16 chi^2 multiply-adds.
        """
        matrix = self._theta(i).transpose(3, 0, 2, 1).reshape(4, -1)
        return matrix @ matrix.conj().T

    def expectation_single(self, operator: np.ndarray, qubit: int) -> complex:
        """Expectation value of a single-qubit operator on logical ``qubit``."""
        operator = np.asarray(operator, dtype=np.complex128)
        rho = self.reduced_density_matrix([qubit])
        return complex(np.trace(operator @ rho))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPS(num_qubits={self.num_sites}, max_bond={self.max_bond}, "
            f"bond_dims={self.bond_dimensions()}, layout={self.layout})"
        )


def _qr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a complex matrix through LAPACK's ``zgeqrf`` and ``zungqr``.

    These are the calls ``np.linalg.qr`` makes, without its per-call
    overhead (about half the cost of a QR step at small bond dimension).
    The factors equal ``np.linalg.qr``'s bit for bit while
    ``min(matrix.shape) <= 128``, where LAPACK runs its unblocked code
    whatever the workspace size.
    """
    packed, tau, _, info = zgeqrf(matrix)
    if info != 0:
        raise MPSError(f"QR factorisation failed (LAPACK info {info})")
    k = min(matrix.shape)
    q, _, info = zungqr(packed[:, :k], tau)
    if info != 0:
        raise MPSError(f"QR factorisation failed (LAPACK info {info})")
    return q, np.triu(packed[:k])


def _transfer(env: np.ndarray, ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Push ``env[..., a, b]`` through one site: ``sum_{a,b,s} env ket[a,s,c] bra*[b,s,d]``.

    Leading axes of ``env`` are carried along as a batch.  Two GEMMs of
    O(chi^3 d) each; the result is ``env'[..., c, d]``.
    """
    half = np.tensordot(env, ket, axes=([-2], [0]))  # (..., b, s, c)
    return np.tensordot(half, bra.conj(), axes=([-3, -2], [0, 1]))  # (..., c, d)
