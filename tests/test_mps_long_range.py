"""Long-range MPS gates on 10-qubit states, checked against dense vectors.

Distant gates are routed lazily: the operand on the lower site is swapped up
next to its partner and stays there, so the evolved states carry a
non-trivial layout (the site of every logical qubit).  Every single qubit and
every pair on adjacent sites is reduced in both operand orders, with the
orthogonality center first moved to every site of the chain: centers outside
the pair (moved to its nearer end), inside it (read in place), and on a single
site's neighbour (the Gram of the two-site tensor).  At width 16 the evolved
states are exact and are compared with dense simulation, every logical pair
included (routed on an untruncated copy); at width 3 they are truncated and
are compared with the dense vector of the same truncated MPS.
"""

import itertools
import time

import numpy as np
import pytest

from repro.errors import MPSError
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


def _adjacent_pairs(mps: MPS) -> list[tuple[int, int]]:
    """Every ordered pair of logical qubits on adjacent sites."""
    qubit_at = {site: qubit for qubit, site in enumerate(mps.layout)}
    pairs = [(qubit_at[site], qubit_at[site + 1]) for site in range(NUM_QUBITS - 1)]
    return pairs + [(j, i) for i, j in pairs]


def _check_every_rdm(mps: MPS, psi: np.ndarray) -> None:
    for center in range(NUM_QUBITS):
        for qubit in range(NUM_QUBITS):
            mps.move_center(center)
            np.testing.assert_allclose(
                mps.reduced_density_matrix([qubit]), _dense_rdm(psi, [qubit]), atol=1e-10
            )
        for i, j in _adjacent_pairs(mps):
            mps.move_center(center)
            np.testing.assert_allclose(
                mps.reduced_density_matrix([i, j]), _dense_rdm(psi, [i, j]), atol=1e-10
            )


def _check_every_routed_pair(mps: MPS, psi: np.ndarray) -> None:
    """Every logical pair, routed together on an untruncated copy."""
    for i, j in itertools.permutations(range(NUM_QUBITS), 2):
        routed = mps.copy()
        routed.max_bond = None
        routed.route([i, j])
        np.testing.assert_allclose(
            routed.reduced_density_matrix([i, j]), _dense_rdm(psi, [i, j]), atol=1e-10
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
    assert mps.layout != tuple(range(NUM_QUBITS))  # routing left qubits where they moved
    _check_every_rdm(mps, psi)
    _check_every_routed_pair(mps, psi)


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_truncated_width_matches_its_own_statevector(seed):
    # Width 3: lazy routing keeps seed 3 within bond dimension 4.
    mps, records = _evolve(seed, width=3)
    assert max(record.discarded_weight for record in records) > 1e-8
    assert mps.max_bond_dimension() == 3
    psi = mps.to_statevector()
    assert mps.norm_squared() == pytest.approx(np.vdot(psi, psi).real, rel=1e-12)
    _check_every_rdm(mps, psi)


def test_inner_matches_dense_overlap():
    exact, _ = _evolve(0, width=16)
    truncated, _ = _evolve(0, width=4)
    other, _ = _evolve(0, width=2)  # the same circuit routes to the same layout
    for bra, ket in ((exact, truncated), (truncated, exact), (truncated, other)):
        # Moving the center rescales nothing: the overlap must not depend on it.
        bra.move_center(NUM_QUBITS - 1)
        ket.move_center(0)
        expected = np.vdot(bra.to_statevector(), ket.to_statevector())
        assert bra.inner(ket) == pytest.approx(expected, abs=1e-12)


def test_inner_and_overlap_error_refuse_different_layouts():
    routed, _ = _evolve(0, width=4)
    other, _ = _evolve(1, width=4)
    assert routed.layout != other.layout
    for bra, ket in ((routed, other), (other, routed)):
        with pytest.raises(MPSError, match="layout"):
            bra.inner(ket)
        with pytest.raises(MPSError, match="layout"):
            bra.overlap_error(ket)


@pytest.mark.parametrize("qubits", [(0, 9), (9, 0), (2, 7), (8, 1), (4, 5), (5, 4)])
def test_distant_and_reversed_gates_match_dense(qubits):
    mps, _ = _evolve(2, width=None)
    psi = mps.to_statevector()
    gate = random_unitary(4, rng=np.random.default_rng(sum(qubits) + 10 * qubits[0]))
    sites = [mps.layout[q] for q in qubits]
    records = mps.apply_gate(gate, list(qubits))
    assert len(records) == abs(sites[0] - sites[1])
    # The operand on the lower site moved up next to its partner; the other stayed.
    moved, stayed = sorted(qubits, key=lambda q: sites[qubits.index(q)])
    assert mps.layout[stayed] == max(sites) and mps.layout[moved] == max(sites) - 1
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


@pytest.mark.parametrize("center", [0, 1])
def test_routing_from_the_first_swap_takes_no_qr_step(center, qr_steps):
    """With the center on the first swap's pair, the center travels with
    the routed qubit: no swap and not the gate take a QR step."""
    from repro.linalg import CNOT

    mps, _ = _evolve(2, width=4)
    first, last = mps.layout.index(0), mps.layout.index(NUM_QUBITS - 1)
    mps.move_center(center)
    qr_steps.clear()
    records = mps.apply_gate(CNOT, [first, last])
    assert len(records) == NUM_QUBITS - 1
    assert qr_steps == []
    assert mps.center == NUM_QUBITS - 1
    assert mps.layout[first] == NUM_QUBITS - 2 and mps.layout[last] == NUM_QUBITS - 1


def test_rdm_with_the_center_in_its_span_takes_no_qr_step(qr_steps):
    mps, _ = _evolve(2, width=4)
    for i, j in _adjacent_pairs(mps):
        low = min(mps.layout[i], mps.layout[j])
        for center in (low, low + 1):
            mps.move_center(center)
            qr_steps.clear()
            mps.reduced_density_matrix([i, j])
            assert qr_steps == [] and mps.center == center
    for qubit, site in enumerate(mps.layout):
        for center in (site - 1, site, site + 1):
            if 0 <= center < NUM_QUBITS:
                mps.move_center(center)
                qr_steps.clear()
                mps.reduced_density_matrix([qubit])
                assert qr_steps == [] and mps.center == center


def test_a_distant_pair_must_be_routed_before_it_is_reduced():
    mps = MPS.zero_state(NUM_QUBITS)
    with pytest.raises(MPSError, match="adjacent"):
        mps.reduced_density_matrix([0, 2])
    assert mps.route([0, 2]) != [] and mps.layout[:3] == (1, 0, 2)
    np.testing.assert_allclose(mps.reduced_density_matrix([0, 2])[0, 0], 1.0)


@pytest.mark.parametrize("distance", range(1, NUM_QUBITS))
def test_a_gate_at_distance_k_makes_k_splits(distance, monkeypatch):
    """k - 1 routing swaps and the gate: one SVD each, and no swap back.
    The routed qubit stays where it moved to; the qubits it passed move
    down one site each."""
    import repro.mps.mps as mps_module
    from repro.linalg import CNOT

    mps, _ = _evolve(2, width=4)
    low = (NUM_QUBITS - 1 - distance) // 2
    qubit_at = {site: qubit for qubit, site in enumerate(mps.layout)}
    routed, partner = qubit_at[low], qubit_at[low + distance]
    passed = [qubit_at[site] for site in range(low + 1, low + distance)]
    splits = []
    split = mps_module.split_theta

    def counted(*args, **kwargs):
        splits.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(mps_module, "split_theta", counted)
    for operands in ([routed, partner], [partner, routed]):
        state = mps.copy()
        records = state.apply_gate(CNOT, operands)
        assert len(splits) == len(records) == distance
        splits.clear()
        assert state.layout[routed] == low + distance - 1
        assert state.layout[partner] == low + distance
        assert [state.layout[q] for q in passed] == list(range(low, low + distance - 1))


def test_budget_expiring_inside_a_routed_gate_raises_at_the_next_swap(monkeypatch):
    """A job budget that runs out while a distant gate is being routed ends
    the walk at the next routing swap, not after the whole gate."""
    from repro.config import deadline
    from repro.errors import ResourceLimitExceeded
    from repro.linalg import CNOT

    mps = MPS.zero_state(NUM_QUBITS, max_bond=4)
    swaps = []
    swap = MPS.swap_sites

    def slow_swap(self, site):
        swaps.append(site)
        time.sleep(0.6)  # the first swap outlasts the whole budget
        return swap(self, site)

    monkeypatch.setattr(MPS, "swap_sites", slow_swap)
    with deadline(0.5):
        with pytest.raises(ResourceLimitExceeded):
            mps.apply_gate(CNOT, [0, NUM_QUBITS - 1])
    assert swaps == [0]


def _dense_project(psi: np.ndarray, qubit: int, outcome: int) -> np.ndarray:
    """Collapse ``qubit`` of a state vector onto ``outcome`` and renormalise."""
    tensor = psi.reshape([2] * NUM_QUBITS).copy()
    index = [slice(None)] * NUM_QUBITS
    index[qubit] = 1 - outcome
    tensor[tuple(index)] = 0.0
    tensor = tensor.reshape(-1)
    return tensor / np.linalg.norm(tensor)


def test_lazy_routing_with_projections_matches_dense_simulation():
    """Random gates on distant pairs, interleaved with projections, at
    unbounded width: the state stays the dense state in logical order, and
    every qubit and every pair reduces to the dense reduction."""
    rng = np.random.default_rng(5)
    mps = MPS.zero_state(NUM_QUBITS)
    psi = np.zeros(2**NUM_QUBITS, dtype=complex)
    psi[0] = 1.0
    for step in range(48):
        if step % 8 == 7:
            qubit = int(rng.integers(NUM_QUBITS))
            outcome = int(mps.outcome_probability(qubit, 1) > 0.5)  # the likelier one
            mps.project(qubit, outcome)
            psi = _dense_project(psi, qubit, outcome)
        else:
            while True:
                a, b = (int(q) for q in rng.choice(NUM_QUBITS, size=2, replace=False))
                if abs(mps.layout[a] - mps.layout[b]) > 1:
                    break
            gate = random_unitary(4, rng=rng)
            mps.apply_gate(gate, [a, b])
            psi = apply_gate_to_statevector(psi, gate, [a, b])
        np.testing.assert_allclose(mps.to_statevector(), psi, rtol=0, atol=1e-12)
    assert mps.layout != tuple(range(NUM_QUBITS))
    _check_every_rdm(mps, psi)
    _check_every_routed_pair(mps, psi)
