"""A failing fit is counted in the result, not raised."""

from pathlib import Path

import checks
import pipeline
from qvgraph import ChainError, simulate
from workloads import WORKLOADS


def test_failed_warm_up_fit_counts_its_chains_and_skips_the_passes(monkeypatch, tmp_path: Path):
    calls = []

    def failing_fit(*args):
        calls.append(args)
        raise ChainError("chain 1 failed at sweep 3: injected", chain=1, sweep=3)

    monkeypatch.setattr(pipeline, "run_chains", failing_fit)
    run = pipeline.WorkloadRun(WORKLOADS["igamma5"], seed=1, seconds=0.0, scratch=tmp_path)
    data, _ = simulate(run.w.params, run.w.n, run.data_seed)
    setup = {"setup_s": 1.0, "scale": 1.0, "kernel_before_s": 0.05, "kernel_s": 0.05,
             "import_s": 0.5, "digest": checks.digest(data.y)}
    monkeypatch.setattr(run, "setup", lambda: [setup])

    result = run.run(trace=False)

    assert len(calls) == 1
    assert result["metrics"] == {}
    assert result["checks"].tally["chains_completed"] == [1, 2]
    assert result["checks"].failed == 1
