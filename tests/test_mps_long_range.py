"""Long-range MPS contractions on 10-qubit states, checked against dense vectors.

Every pair of qubits up to distance 9 is reduced in both operand orders,
with the orthogonality center first moved to every site of the chain, so the
transfer-matrix walk between the two qubits runs over every length and from
every starting canonical form: centers outside the pair (moved to its nearer
end), inside it (read in place), and on an adjacent pair or a single site's
neighbour (the Gram of the two-site tensor).  At width 16 the evolved states are exact and
are compared with dense simulation; at width 4 they are truncated and are
compared with the dense vector of the same truncated MPS.
"""

import itertools
import time

import numpy as np
import pytest

from repro.linalg import random_unitary
from repro.mps import MPS
from repro.semantics import simulate_statevector
from repro.semantics.statevector import apply_gate_to_statevector

from helpers import random_circuit

NUM_QUBITS = 10
NUM_GATES = 60
EXACT_SEEDS = (0, 1, 3)


def _evolve(seed: int, width: int | None) -> tuple[MPS, list]:
    """The MPS of ``random_circuit(10, 60, seed)`` and its truncation records."""
    circuit = random_circuit(NUM_QUBITS, NUM_GATES, seed=seed)
    mps = MPS.zero_state(NUM_QUBITS, max_bond=width)
    records = []
    for op in circuit.operations():
        records.extend(mps.apply_gate(op.gate.matrix, list(op.qubits)))
    return mps, records


def _dense_rdm(psi: np.ndarray, qubits: list[int]) -> np.ndarray:
    """Reduced density matrix of a normalised state vector on ``qubits``, in order."""
    psi = psi / np.linalg.norm(psi)
    tensor = np.moveaxis(psi.reshape([2] * NUM_QUBITS), qubits, range(len(qubits)))
    matrix = tensor.reshape(2 ** len(qubits), -1)
    return matrix @ matrix.conj().T


def _check_every_rdm(mps: MPS, psi: np.ndarray) -> None:
    for center in range(NUM_QUBITS):
        for site in range(NUM_QUBITS):
            mps.move_center(center)
            np.testing.assert_allclose(
                mps.reduced_density_matrix([site]), _dense_rdm(psi, [site]), atol=1e-10
            )
        for i, j in itertools.permutations(range(NUM_QUBITS), 2):
            mps.move_center(center)
            np.testing.assert_allclose(
                mps.reduced_density_matrix([i, j]), _dense_rdm(psi, [i, j]), atol=1e-10
            )


def _assert_mixed_canonical(mps: MPS) -> None:
    """Left isometries left of the center, right isometries right of it."""
    for site, tensor in enumerate(mps.tensors):
        chi_left, _, chi_right = tensor.shape
        if site < mps.center:
            matrix = tensor.reshape(chi_left * 2, chi_right)
            gram = matrix.conj().T @ matrix
        elif site > mps.center:
            matrix = tensor.reshape(chi_left, 2 * chi_right)
            gram = matrix @ matrix.conj().T
        else:
            continue
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)


@pytest.fixture
def qr_steps(monkeypatch):
    """The sites of every QR step of ``move_center``, in call order."""
    steps = []
    for name in ("_qr_step_right", "_qr_step_left"):
        step = getattr(MPS, name)

        def counted(self, site, _step=step, _name=name):
            steps.append((_name, site))
            return _step(self, site)

        monkeypatch.setattr(MPS, name, counted)
    return steps


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_exact_width_matches_dense_simulation(seed):
    mps, records = _evolve(seed, width=16)
    assert max(record.available for record in records) <= 16  # nothing truncated
    psi = simulate_statevector(random_circuit(NUM_QUBITS, NUM_GATES, seed=seed))
    np.testing.assert_allclose(mps.to_statevector(), psi, atol=1e-10)
    assert mps.norm_squared() == pytest.approx(1.0, abs=1e-12)
    _check_every_rdm(mps, psi)


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_truncated_width_matches_its_own_statevector(seed):
    mps, records = _evolve(seed, width=4)
    assert max(record.discarded_weight for record in records) > 1e-8
    assert mps.max_bond_dimension() == 4
    psi = mps.to_statevector()
    assert mps.norm_squared() == pytest.approx(np.vdot(psi, psi).real, rel=1e-12)
    _check_every_rdm(mps, psi)


def test_inner_matches_dense_overlap():
    exact, _ = _evolve(0, width=16)
    truncated, _ = _evolve(0, width=4)
    other, _ = _evolve(1, width=4)
    for bra, ket in ((exact, truncated), (truncated, exact), (truncated, other)):
        # Moving the center rescales nothing: the overlap must not depend on it.
        bra.move_center(NUM_QUBITS - 1)
        ket.move_center(0)
        expected = np.vdot(bra.to_statevector(), ket.to_statevector())
        assert bra.inner(ket) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("qubits", [(0, 9), (9, 0), (2, 7), (8, 1), (4, 5), (5, 4)])
def test_distant_and_reversed_gates_match_dense(qubits):
    mps, _ = _evolve(2, width=None)
    psi = mps.to_statevector()
    gate = random_unitary(4, rng=np.random.default_rng(sum(qubits) + 10 * qubits[0]))
    records = mps.apply_gate(gate, list(qubits))
    assert len(records) == 2 * abs(qubits[0] - qubits[1]) - 1
    psi = apply_gate_to_statevector(psi, gate, list(qubits))
    np.testing.assert_allclose(mps.to_statevector(), psi, atol=1e-10)
    np.testing.assert_allclose(
        mps.reduced_density_matrix(list(qubits)), _dense_rdm(psi, list(qubits)), atol=1e-10
    )


@pytest.mark.parametrize("width", [None, 4])
def test_routed_and_reversed_gates_keep_the_mixed_canonical_form(width):
    mps, _ = _evolve(2, width=width)
    rng = np.random.default_rng(7)
    for qubits in [(0, 9), (9, 0), (2, 7), (8, 1), (4, 5), (5, 4), (3, 4)]:
        mps.apply_gate(random_unitary(4, rng=rng), list(qubits))
        _assert_mixed_canonical(mps)
        mps.reduced_density_matrix([qubits[0]])
        _assert_mixed_canonical(mps)


@pytest.mark.parametrize("center", [NUM_QUBITS - 2, NUM_QUBITS - 1])
def test_routing_from_the_first_swap_takes_no_qr_step(center, qr_steps):
    from repro.linalg import CNOT

    mps, _ = _evolve(2, width=4)
    mps.move_center(center)
    qr_steps.clear()
    records = mps.apply_gate(CNOT, [0, NUM_QUBITS - 1])
    assert len(records) == 2 * NUM_QUBITS - 3
    assert qr_steps == []
    assert mps.center == NUM_QUBITS - 1


def test_rdm_with_the_center_in_its_span_takes_no_qr_step(qr_steps):
    mps, _ = _evolve(2, width=4)
    for i, j in itertools.combinations(range(NUM_QUBITS), 2):
        for center in range(i, j + 1):
            mps.move_center(center)
            qr_steps.clear()
            mps.reduced_density_matrix([i, j])
            mps.reduced_density_matrix([j, i])
            assert qr_steps == [] and mps.center == center
    for site in range(NUM_QUBITS):
        for center in (site - 1, site, site + 1):
            if 0 <= center < NUM_QUBITS:
                mps.move_center(center)
                qr_steps.clear()
                mps.reduced_density_matrix([site])
                assert qr_steps == [] and mps.center == center


def test_budget_expiring_inside_a_routed_gate_raises_at_the_next_swap(monkeypatch):
    """A job budget that runs out while a distant gate is being routed ends
    the walk at the next routing swap, not after the whole gate."""
    from repro.config import deadline
    from repro.errors import ResourceLimitExceeded
    from repro.linalg import CNOT

    mps = MPS.zero_state(NUM_QUBITS, max_bond=4)
    swaps = []
    swap = MPS.swap_sites

    def slow_swap(self, site, **kwargs):
        swaps.append(site)
        time.sleep(0.6)  # the first swap outlasts the whole budget
        return swap(self, site, **kwargs)

    monkeypatch.setattr(MPS, "swap_sites", slow_swap)
    with deadline(0.5):
        with pytest.raises(ResourceLimitExceeded):
            mps.apply_gate(CNOT, [0, NUM_QUBITS - 1])
    assert swaps == [NUM_QUBITS - 2]
