"""Check that no reference bound is looser than its pinned value.

Analyses the reference-cold circuits (``random_circuit(5, 65, seed + 1000*i)``
for 24 circuits per seed, bit flip 1e-3, MPS width 16) and the reduced
Table 2 rows (the paper's bit flip 1e-4, MPS width 16) with the default SDP
configuration, and compares each certified bound with the value pinned in
``tests/fixtures/reference_bounds_admm.json``. That fixture holds the bounds
the ADMM solver certified before the interior-point solver replaced it, so
a passing run shows the solver swap made no bound looser::

    python scripts/check_reference_bounds.py                 # every pinned seed + Table 2
    python scripts/check_reference_bounds.py --seeds 7       # one seed, no Table 2 rows
    python scripts/check_reference_bounds.py --write out.json  # record this tree's bounds
    python scripts/check_reference_bounds.py --compare parent.json  # and diff with a --write file

``--compare`` takes a ``--write`` file from another tree (typically the
parent commit) and prints how many of the shared bounds got tighter, stayed
equal or got looser, with the five largest relative moves each way; the
check against the pinned values runs as without it.

Exit code 0 means every bound is at most its pinned value.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import DEFAULT_BIT_FLIP_PROBABILITY, AnalysisConfig  # noqa: E402
from repro.core.analyzer import analyze_program  # noqa: E402
from repro.noise import NoiseModel  # noqa: E402
from repro.programs.library import table2_benchmarks  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "reference_bounds_admm.json"
SEEDS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
CIRCUITS, QUBITS, GATES = 24, 5, 65
MPS_WIDTH = 16


def _random_circuit():
    spec = importlib.util.spec_from_file_location(
        "reference_test_helpers", REPO_ROOT / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_circuit


def reference_cold_bounds(seed: int) -> list[float]:
    """The certified bounds of the 24 reference-cold circuits of one seed."""
    random_circuit = _random_circuit()
    model = NoiseModel.uniform_bit_flip(1e-3)
    config = AnalysisConfig(mps_width=MPS_WIDTH)
    return [
        analyze_program(
            random_circuit(QUBITS, GATES, seed=seed + 1000 * index), model, config=config
        ).error_bound
        for index in range(CIRCUITS)
    ]


def table2_reduced_bounds() -> dict[str, float]:
    """The certified bound of every reduced Table 2 row."""
    model = NoiseModel.uniform_bit_flip(DEFAULT_BIT_FLIP_PROBABILITY)
    config = AnalysisConfig(mps_width=MPS_WIDTH)
    return {
        spec.name: analyze_program(spec.build(), model, config=config).error_bound
        for spec in table2_benchmarks("reduced")
    }


def labelled_bounds(measured: dict) -> dict[str, float]:
    """Every bound of a measurement (or ``--write`` file) under a readable label."""
    labelled = {
        f"seed {seed} circuit {index}": bound
        for seed, bounds in measured["reference_cold"].items()
        for index, bound in enumerate(bounds)
    }
    labelled.update(
        {f"table2 {name}": bound for name, bound in measured["table2_reduced"].items()}
    )
    return labelled


def print_comparison(measured: dict, baseline: dict, shown: int = 5) -> None:
    """Tighter/equal/looser counts against ``baseline`` and the largest moves."""
    ours, theirs = labelled_bounds(measured), labelled_bounds(baseline)
    moves = {
        label: (theirs[label], bound, (bound - theirs[label]) / theirs[label])
        for label, bound in ours.items()
        if label in theirs
    }
    tighter = sorted((m for m in moves.items() if m[1][1] < m[1][0]), key=lambda m: m[1][2])
    looser = sorted((m for m in moves.items() if m[1][1] > m[1][0]), key=lambda m: -m[1][2])
    equal = len(moves) - len(tighter) - len(looser)
    print(
        f"compared {len(moves)} bounds: {len(tighter)} tighter, {equal} equal, "
        f"{len(looser)} looser"
    )
    for title, side in (("tighter", tighter), ("looser", looser)):
        if side:
            print(f"largest {title} (relative move):")
        for label, (old, new, relative) in side[:shown]:
            print(f"  {label}: {old!r} -> {new!r} ({relative:+.3e})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument(
        "--write", metavar="PATH", help="write this tree's bounds to PATH instead of checking"
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        help="also compare this tree's bounds with a --write file (e.g. from the parent commit)",
    )
    args = parser.parse_args(argv)
    table2 = args.write is not None or sorted(args.seeds) == sorted(SEEDS)

    start = time.perf_counter()
    measured = {
        "reference_cold": {str(seed): reference_cold_bounds(seed) for seed in args.seeds},
        "table2_reduced": table2_reduced_bounds() if table2 else {},
    }
    seconds = time.perf_counter() - start
    if args.compare:
        print_comparison(measured, json.loads(Path(args.compare).read_text()))
    if args.write:
        Path(args.write).write_text(json.dumps(measured, indent=1) + "\n")
        print(f"wrote {args.write} in {seconds:.1f} s")
        return 0

    pinned = json.loads(FIXTURE.read_text())
    looser = []
    compared = 0
    ratios = []
    for seed, bounds in measured["reference_cold"].items():
        for index, (bound, limit) in enumerate(zip(bounds, pinned["reference_cold"][seed])):
            compared += 1
            ratios.append(bound / limit)
            if bound > limit:
                looser.append(f"seed {seed} circuit {index}: {bound!r} > {limit!r}")
    for name, bound in measured["table2_reduced"].items():
        limit = pinned["table2_reduced"][name]
        compared += 1
        ratios.append(bound / limit)
        if bound > limit:
            looser.append(f"table2 {name}: {bound!r} > {limit!r}")
    print(
        f"{compared} bounds in {seconds:.1f} s; bound/pinned ranges "
        f"{min(ratios):.9f}..{max(ratios):.9f}"
    )
    for line in looser:
        print("LOOSER", line)
    return 1 if looser else 0


if __name__ == "__main__":
    raise SystemExit(main())
