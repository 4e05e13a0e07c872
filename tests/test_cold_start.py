"""Cold start: what a fresh interpreter loads for the CLI and the fit path.

``import qvgraph`` loads numpy and ``scipy.special`` only; ``scipy.stats``,
``integrate`` and ``interpolate`` wait for the first verification oracle or
generalised scaled Student table.  The pytest process already holds them, so
every check here runs in a fresh interpreter.
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

_LOADED = (
    "import json, sys\n"
    f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({DEFERRED!r}))))\n"
)


def fresh(code: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + code,
         *map(str, args)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def deferred_loaded(code: str, *args) -> list[str]:
    proc = fresh(code + _LOADED, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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

