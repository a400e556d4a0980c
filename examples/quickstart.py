#!/usr/bin/env python
"""Quickstart: verified error bound for the GHZ circuit of the paper.

This walks through the running example of the paper (Example 2.1 / Section 3):
the 2-qubit GHZ preparation ``H(q0); CNOT(q0, q1)`` under a bit-flip noise
model, driven through the public :mod:`repro.api` facade.  Gleipnir

1. approximates the intermediate states with an MPS tensor network,
2. computes a certified (rho, delta)-diamond norm per noisy gate, and
3. chains them with the Seq rule into a verified bound on the whole program,

which we then compare against the unconstrained worst case and the exact
error obtained by full density-matrix simulation (feasible here because the
example is tiny).

Run:  python examples/quickstart.py
"""

from repro import AnalysisConfig, Circuit, NoiseModel
from repro.api import AnalysisSession
from repro.core import exact_error, worst_case_bound


def main() -> None:
    # The GHZ preparation circuit: H(q0); CNOT(q0, q1).
    circuit = Circuit(2, name="ghz-2").h(0).cx(0, 1)

    # The paper's sample noise model: every gate suffers a bit flip with
    # probability p (on its first operand for 2-qubit gates).
    p = 1e-3
    noise = NoiseModel.uniform_bit_flip(p)

    # Analyse through the session facade.  Width 8 is already exact for two
    # qubits; derivation=True keeps the full proof tree on the outcome.
    with AnalysisSession(config=AnalysisConfig(mps_width=8)) as session:
        outcome = session.analyze(circuit, noise, derivation=True)

    print("Program:")
    print("    H(q0); CNOT(q0, q1)   on input |00>")
    print(f"Noise model: bit flip with p = {p:g} per gate\n")

    print(f"Gleipnir verified bound : {outcome.bound:.3e}")
    worst = worst_case_bound(circuit, noise)
    print(f"Worst-case bound        : {worst.value:.3e}   (= gate count x p)")
    exact = exact_error(circuit, noise)
    print(f"Exact error (full sim)  : {exact.value:.3e}\n")

    print("Per-gate contributions (the Gate rule judgments):")
    for row in outcome.gate_contributions():
        print(
            f"  {row.gate_label:>10s} on {row.qubits}: "
            f"eps = {row.epsilon:.3e}   (delta before = {row.delta_before:.1e})"
        )

    print("\nDerivation tree:")
    print(outcome.derivation.pretty())

    # The derivation can be independently re-validated: every SDP certificate
    # is checked for dual feasibility and every rule application re-audited.
    outcome.derivation.check()
    print("\nDerivation re-validated: every step is sound.")

    # The outcome is content-addressed: the fingerprint is the handle a
    # outcome store or a remote gleipnir-serve would answer for.
    print(f"\nJob fingerprint: {outcome.fingerprint[:16]}…  (status: {outcome.status})")

    assert exact.value <= outcome.bound <= worst.value + 1e-12


if __name__ == "__main__":
    main()
