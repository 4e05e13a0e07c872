"""The counting run: exact, repeatable, and zero grid cells without enumeration."""

from pathlib import Path

import pytest

from pipeline import WorkloadRun
from qvgraph import simulate
from workloads import WORKLOADS


@pytest.mark.parametrize("name", ["igamma5", "gamma5"])
def test_counts_repeat_exactly(name, tmp_path: Path):
    run = WorkloadRun(WORKLOADS[name], seed=3, seconds=0.0, scratch=tmp_path)
    data, _ = simulate(run.w.params, run.w.n, run.data_seed)
    run.count(data)  # warm lazy imports and caches
    first, second = run.count(data), run.count(data)
    assert first == second
    calls, cells = first
    assert calls > 1000
    assert (cells > 0) == (name == "gamma5")
    assert run.missing == []
