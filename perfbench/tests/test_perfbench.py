"""Tests of the benchmark itself: span arithmetic, tail choice, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, self_time_by_name, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(index, name, start, end, parent=None):
    return Span(name=name, start=start, end=end, parent=parent, tid=1, index=index)


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        tree = [
            _span(0, "engine.run", 0.0, 10.0),
            _span(1, "core.prefill", 1.0, 7.0, parent=0),
            _span(2, "mps.apply_gate", 2.0, 3.0, parent=1),
            _span(3, "mps.apply_gate", 4.0, 6.5, parent=1),
            _span(4, "core.replay", 8.0, 9.0, parent=0),
        ]
        own = self_times(tree)
        assert own == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 1.0})
        assert sum(own.values()) == pytest.approx(10.0)
        assert self_time_by_name(tree)["mps.apply_gate"] == (pytest.approx(3.5), 2)

    def test_recorder_nests_and_collapses_recursion(self):
        recorder = Recorder()

        def leaf():
            return "leaf"

        wrapped_leaf = recorder.wrap("mps.leaf", leaf)

        def walk(depth):
            return walk_wrapped(depth - 1) if depth else wrapped_leaf()

        walk_wrapped = recorder.wrap("core.walk", walk)
        assert walk_wrapped(3) == "leaf"
        finished = recorder.finished()
        assert [span.name for span in finished] == ["core.walk", "mps.leaf"]
        assert finished[1].parent == finished[0].index
        assert sum(self_times(finished).values()) == pytest.approx(finished[0].duration)

    def test_installed_wrappers_are_removed(self):
        import statistics as target

        original = target.median
        points = [spans.WrapPoint("stats.median", "statistics", "median")]
        recorder = Recorder()
        with spans.Installed(recorder, points):
            assert target.median([3, 1, 2]) == 2
        assert target.median is original
        assert [span.name for span in recorder.finished()] == ["stats.median"]


class TestTailPercentile:
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = [float(value) for value in range(1, 33)]
        percentile, value = run.tail_percentile(samples)
        assert percentile == pytest.approx(100 * 22 / 32)
        assert value == 22.0
        assert sum(sample > value for sample in samples) == 10

    def test_large_sample_reaches_high_percentiles(self):
        samples = [float(value) for value in range(1000)]
        percentile, value = run.tail_percentile(samples)
        assert percentile == pytest.approx(99.0)
        assert value == 989.0

    def test_too_few_samples_fall_back_to_the_median(self):
        assert run.tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)
        assert run.tail_percentile([float(value) for value in range(20)]) == (50.0, 9.5)
        assert run.tail_percentile([float(value) for value in range(21)]) == (
            pytest.approx(100 * 11 / 21),
            10.0,
        )


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "smoke",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    code, lines = _run(workload, trace)
    assert code == 0, lines[-20:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = _run("reference-cold", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
