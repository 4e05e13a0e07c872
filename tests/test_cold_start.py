"""Cold start: what a fresh interpreter loads for the CLI and the fit path.

``import qvgraph`` loads numpy and no scipy module.  ``scipy.special`` waits
for the first log-gamma, which a fit evaluates when it builds its prior, in
the calling process before any worker is forked; ``simulate`` (except gsst)
and the ``summarize``, ``mse`` and ``export-graph`` steps never load it.
``scipy.stats``, ``integrate`` and ``interpolate`` wait for the first
verification oracle or generalised scaled Student table.  The pytest process
already holds them all, so every check here runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qvgraph

SRC = str(Path(qvgraph.__file__).resolve().parent.parent)
DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.optimize")
INFERENCE_FAMILIES = ["normal", "gamma", "inverse_gamma", "beta", "inverse_beta"]


def fresh(code: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + code,
         *map(str, args)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def loaded(prefixes: tuple, code: str, *args) -> list[str]:
    """The modules under ``prefixes`` loaded once ``code`` ran in a fresh interpreter."""
    report = ("import json, sys\n"
              f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))\n")
    proc = fresh(code + report, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def deferred_loaded(code: str, *args) -> list[str]:
    return loaded(DEFERRED, code, *args)


def test_import_loads_no_deferred_scipy_module():
    assert deferred_loaded("import qvgraph, qvgraph.cli\n") == []


_PIPELINE = """
from pathlib import Path
from qvgraph.cli import main

family, work = sys.argv[1], Path(sys.argv[2])
edges, data, samples = work / "edges.csv", work / "data.csv", work / "samples"
edges.write_text("0,2,1\\n2,0,2\\n1,2,0\\n")
steps = [
    ["simulate", "--family", family, "--s0", "2", "--c0", "5", "--edge-file", edges,
     "--n", "30", "--seed", "1", "--out", data],
    ["fit", "--data", data, "--family", family, "--out", samples,
     "--set", "iterations=40", "--set", "burn_in=20", "--set", "thinning=2",
     "--set", "chains=1", "--set", "seed=3"],
    ["summarize", "--samples", samples],
    ["mse", "--samples", samples, "--data", data],
    ["export-graph", "--samples", samples, "--out", work / "graph"],
]
for argv in steps:
    assert main([str(a) for a in argv]) == 0, argv
"""


@pytest.mark.parametrize("family", INFERENCE_FAMILIES)
def test_fit_and_post_steps_load_no_deferred_scipy_module(family, tmp_path):
    # chains=1 keeps the sweep in this interpreter rather than a forked worker
    assert deferred_loaded(_PIPELINE, family, tmp_path) == []


def test_first_deferred_calls_return_finite_values():
    proc = fresh("""
import math
import numpy as np
from qvgraph import density_normalization_check, get_family

fam = get_family("gsst")
rng = np.random.default_rng(0)
values = [fam.log_h(1.0, 3.0), fam.sample_w(1.0, 3.0, rng), fam.sample_link(0.5, 2.0, rng)]
reports = density_normalization_check("normal", 1.0, 2.0)
assert all(math.isfinite(float(v)) for v in values), values
assert all(math.isfinite(r.estimate) and r.passed for r in reports), reports
print("ok")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_SIMULATE = """
import numpy as np
import qvgraph

edges = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
qvgraph.simulate(qvgraph.ModelParams(sys.argv[1], 6.0, 10.0, edges), 30, 1)
"""


@pytest.mark.parametrize("family", INFERENCE_FAMILIES)
def test_import_and_simulate_load_no_scipy_module(family):
    assert loaded(("scipy",), _SIMULATE, family) == []


_POST_STEPS = """
from qvgraph.cli import main

samples, data, graph = sys.argv[1:]
for argv in (["summarize", "--samples", samples], ["mse", "--samples", samples, "--data", data],
             ["export-graph", "--samples", samples, "--out", graph]):
    assert main(argv) == 0, argv
"""


@pytest.mark.parametrize("family", INFERENCE_FAMILIES)
def test_post_steps_load_no_scipy_module(family, tmp_path):
    from qvgraph.cli import main

    edges, data, samples = tmp_path / "edges.csv", tmp_path / "data.csv", tmp_path / "samples"
    edges.write_text("0,2,1\n2,0,2\n1,2,0\n")
    for argv in (
        ["simulate", "--family", family, "--s0", "2", "--c0", "5", "--edge-file", edges,
         "--n", "30", "--seed", "1", "--out", data],
        ["fit", "--data", data, "--family", family, "--out", samples,
         "--set", "iterations=40", "--set", "burn_in=20", "--set", "thinning=2",
         "--set", "chains=1", "--set", "seed=3"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    assert loaded(("scipy",), _POST_STEPS, samples, data, tmp_path / "graph") == []


def test_every_fork_of_a_fit_finds_scipy_special_loaded():
    proc = fresh("""
import os
import numpy as np
from qvgraph import MCMCConfig, ModelParams, PriorConfig, run_chains, simulate

at_fork = []
os.register_at_fork(before=lambda: at_fork.append("scipy.special" in sys.modules))
edges = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
data, _ = simulate(ModelParams("gamma", 2.0, 3.0, edges), 30, 1)
assert "scipy.special" not in sys.modules
config = MCMCConfig(iterations=20, burn_in=10, thinning=1, chains=2, seed=1, workers=2)
run_chains(data, "gamma", PriorConfig.default_for("gamma"), config)
print(at_fork)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[True, True]"


def test_a_fit_binds_the_log_gamma_to_the_scipy_ufunc():
    proc = fresh("""
import numpy as np
import qvgraph
from qvgraph import MCMCConfig, ModelParams, PriorConfig, run_chains, simulate

edges = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
data, _ = simulate(ModelParams("gamma", 2.0, 3.0, edges), 30, 1)
config = MCMCConfig(iterations=20, burn_in=10, thinning=1, chains=1, seed=1)
run_chains(data, "gamma", PriorConfig.default_for("gamma"), config)
import scipy.special
print(qvgraph.families.gammaln is scipy.special.gammaln)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
