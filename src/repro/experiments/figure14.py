"""Experiment harness for Figure 14: error bound and runtime versus MPS size.

The paper sweeps the MPS bond dimension w from 1 to 128 on ``Isingmodel45``
and shows that larger widths give (weakly) tighter bounds at the cost of
longer runtimes, with diminishing returns.  The harness reproduces that sweep
on the Ising benchmark (full scale) or on its reduced stand-in.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..api import AnalysisSession
from ..config import AnalysisConfig, DEFAULT_BIT_FLIP_PROBABILITY
from ..errors import ExperimentError
from ..noise.model import NoiseModel
from ..programs.library import benchmark_by_name
from ._session import resolve_session, stream_batch

__all__ = ["Figure14Point", "Figure14Result", "run_figure14", "DEFAULT_WIDTHS"]

#: The MPS sizes swept in the paper (Figure 14).
DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclasses.dataclass
class Figure14Point:
    """One point of the Figure 14 sweep."""

    mps_width: int
    error_bound: float
    runtime_seconds: float
    final_delta: float


@dataclasses.dataclass
class Figure14Result:
    """The whole sweep."""

    benchmark: str
    points: list[Figure14Point]
    scale: str

    def widths(self) -> list[int]:
        return [point.mps_width for point in self.points]

    def bounds(self) -> list[float]:
        return [point.error_bound for point in self.points]

    def runtimes(self) -> list[float]:
        return [point.runtime_seconds for point in self.points]


def run_figure14(
    *,
    scale: str = "reduced",
    benchmark: str = "Isingmodel45",
    widths: Sequence[int] = DEFAULT_WIDTHS,
    bit_flip_probability: float = DEFAULT_BIT_FLIP_PROBABILITY,
    config: AnalysisConfig | None = None,
    session: AnalysisSession | None = None,
    progress=None,
) -> Figure14Result:
    """Sweep the MPS width on the Ising benchmark and record bound/runtime.

    Each width is one content-addressed :class:`~repro.engine.spec.AnalysisJob`
    (the MPS width is part of the fingerprint), so the sweep shards and
    resumes like any other batch through the :mod:`repro.api` facade.
    ``progress`` receives one line per finished point as results land
    (completion order); None keeps the silent batch behaviour.
    """
    spec = benchmark_by_name(benchmark, scale)
    circuit = spec.build()
    noise_model = NoiseModel.uniform_bit_flip(bit_flip_probability)

    with resolve_session(session) as active:
        jobs = [
            active.job(
                circuit,
                noise_model,
                config=(config or AnalysisConfig()).replace(mps_width=int(width)),
                name=f"{spec.name}[w={int(width)}]",
            )
            for width in widths
        ]
        outcomes = stream_batch(active, jobs, progress)

    points: list[Figure14Point] = []
    for width, analysis in zip(widths, outcomes):
        if not analysis.ok:
            raise ExperimentError(
                f"figure-14 point w={width} {analysis.status}: {analysis.error}"
            )
        points.append(
            Figure14Point(
                mps_width=int(width),
                error_bound=analysis.bound,
                runtime_seconds=analysis.elapsed_seconds,
                final_delta=analysis.final_delta,
            )
        )
    return Figure14Result(benchmark=spec.name, points=points, scale=scale)
