"""Command-line entry point: regenerate the paper's tables and figures.

Installed as ``gleipnir-experiments`` (see pyproject.toml)::

    gleipnir-experiments table2 --scale reduced
    gleipnir-experiments table2 --scale reduced --workers 4 --outcomes t2.jsonl
    gleipnir-experiments figure14 --scale reduced --widths 1 2 4 8 16
    gleipnir-experiments table3 --shots 8192
    gleipnir-experiments all --scale reduced --output results.md

``--scale full`` reproduces the paper-scale configuration (10–100 qubits,
MPS width 128); expect runtimes of minutes per row, as in the paper.

Every command drives one :class:`repro.api.AnalysisSession` (the shared
front door): ``--workers N`` shards the Gleipnir analyses across an engine
process pool, ``--outcomes`` makes a killed sweep re-run only its missing
jobs (the outcome store answers every job it holds), and ``--remote URL``
submits everything to a running ``gleipnir-serve`` instead of analysing
locally.
"""

from __future__ import annotations

import argparse
import sys

from ..api import add_session_arguments, session_from_args, trace_to_file
from ._session import configure_logging
from .figure14 import DEFAULT_WIDTHS, run_figure14
from .report import render_figure14, render_table2, render_table3
from .table2 import run_table2
from .table3 import run_table3

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gleipnir-experiments",
        description="Regenerate the Gleipnir paper's evaluation tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scale", choices=["reduced", "full"], default="reduced")
        sub.add_argument("--markdown", action="store_true", help="emit Markdown tables")
        sub.add_argument("--output", type=str, default=None, help="write the report to a file")
        add_session_arguments(sub)
        sub.add_argument(
            "--progress",
            action="store_true",
            help="log one line per job as results land (see --log-level)",
        )

    table2 = subparsers.add_parser("table2", help="error bounds on the benchmark suite")
    add_common(table2)
    table2.add_argument("--mps-width", type=int, default=None)
    table2.add_argument("--benchmarks", nargs="*", default=None)
    table2.add_argument("--no-lqr", action="store_true", help="skip the LQR baseline")

    figure14 = subparsers.add_parser("figure14", help="bound/runtime vs MPS size")
    add_common(figure14)
    figure14.add_argument("--widths", nargs="*", type=int, default=list(DEFAULT_WIDTHS))
    figure14.add_argument("--benchmark", type=str, default="Isingmodel45")

    table3 = subparsers.add_parser("table3", help="qubit-mapping study on the emulated device")
    add_common(table3)
    table3.add_argument("--shots", type=int, default=8192)

    everything = subparsers.add_parser("all", help="run every experiment")
    add_common(everything)
    everything.add_argument("--shots", type=int, default=8192)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    configure_logging(getattr(args, "log_level", "INFO"))
    progress = bool(getattr(args, "progress", False))
    sections: list[str] = []
    with trace_to_file(getattr(args, "trace", None)):
        with session_from_args(args) as session:
            if args.command in ("table2", "all"):
                result = run_table2(
                    scale=args.scale,
                    mps_width=getattr(args, "mps_width", None),
                    benchmarks=getattr(args, "benchmarks", None),
                    include_lqr=not getattr(args, "no_lqr", False),
                    session=session,
                    progress=progress,
                )
                sections.append(render_table2(result, markdown=args.markdown))
            if args.command in ("figure14", "all"):
                widths = getattr(args, "widths", list(DEFAULT_WIDTHS))
                benchmark = getattr(args, "benchmark", "Isingmodel45")
                result = run_figure14(
                    scale=args.scale,
                    widths=widths,
                    benchmark=benchmark,
                    session=session,
                    progress=progress,
                )
                sections.append(render_figure14(result, markdown=args.markdown))
            if args.command in ("table3", "all"):
                result = run_table3(shots=getattr(args, "shots", 8192), session=session)
                sections.append(render_table3(result, markdown=args.markdown))

    _emit("\n\n".join(sections), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
