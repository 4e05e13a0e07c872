"""Report whether two source trees draw the same random stream.

    python3 .github/scripts/draws_digest_report.py BASE_TREE HEAD_TREE

Runs the seed-1, traced, 5-second benchmark smoke run of every workload
(``perfbench/run.py``) in each tree, each against that tree's own sources, and
prints a Markdown table of the two ``draws_digest`` values with ``equal`` or
``DIFFER``, and one table each of the two exact ``inference.py_calls_per_sweep``
and ``inference.links.grid_cells_per_sweep`` counts: the sweep is bound by
interpreter overhead, so a change that adds Python calls to it shows in the
first, and one that widens or narrows the link enumeration grids in the
second.  Tracing leaves the draws as they are.  One more row per inference
family digests a small three-node fit that keeps its latents (s0, c0, edges,
w and links of ``PosteriorSamples``), run in a subprocess on each tree's
``src``; the benchmark workloads miss the beta families and the inverse-gamma
links.  A change may alter the stream or the counts if it says so, so this
only reports: it exits 0 whatever the digests are, also when a run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SMOKE = ["--seed", "1", "--seconds", "5", "--trace", "1"]
COUNTS = ("inference.py_calls_per_sweep", "inference.links.grid_cells_per_sweep")
FAMILIES = ("normal", "gamma", "inverse_gamma", "beta", "inverse_beta")

# One small fit on the qvgraph found first on sys.path; argv: family, tree.
FAMILY_FIT = """
import hashlib, sys
from pathlib import Path
import numpy as np
import qvgraph
from qvgraph import MCMCConfig, ModelParams, PriorConfig, run_chains, simulate

family, tree = sys.argv[1], Path(sys.argv[2]).resolve()
if not Path(qvgraph.__file__).resolve().is_relative_to(tree):
    sys.exit(f"imported {qvgraph.__file__}, not the sources of {tree}")
counts = family in ("beta", "inverse_beta")
edges = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]]) if counts else (
    np.array([[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]]))
s0, c0 = {"normal": (1.0, 2.0), "gamma": (2.0, 3.0)}.get(family, (6.0, 10.0))
data, _ = simulate(ModelParams(family, s0, c0, edges), 60, 5)
config = MCMCConfig(iterations=40, burn_in=10, thinning=1, chains=2, seed=1,
                    adapt_window=5, keep_latents=True)
samples = run_chains(data, family, PriorConfig.default_for(family), config)
h = hashlib.sha256()
for a in (samples.s0, samples.c0, samples.edges, samples.w, samples.links):
    h.update(np.ascontiguousarray(a, dtype=float).tobytes())
print(h.hexdigest()[:16])
"""


def smoke_run(tree: Path, workload: str) -> tuple[str, dict]:
    """The ``draws_digest`` and each exact count of ``COUNTS`` of one traced
    smoke run, or why there are none."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, *SMOKE],
        capture_output=True, text=True, check=False,
    )
    digest = failed = f"run failed (exit {proc.returncode})"
    counts = dict.fromkeys(COUNTS, failed)
    for line in proc.stdout.splitlines():
        if line.startswith("info "):
            digest = json.loads(line[len("info "):]).get("draws_digest") or "no draws"
        elif line.startswith("{"):
            metrics = json.loads(line).get("metrics", {})
            counts = {name: repr(metrics[name]["value"]) if name in metrics else "not measured"
                      for name in COUNTS}
    return digest, counts


def family_digest(tree: Path, family: str) -> str:
    """Digest of the retained draws and latents of one small fit, or why there is none."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", FAMILY_FIT, family, str(tree)],
                          capture_output=True, text=True, check=False, env=env, cwd=tree)
    lines = proc.stdout.split()
    return lines[-1] if proc.returncode == 0 and lines else f"run failed (exit {proc.returncode})"


def main(argv) -> int:
    base, head = (Path(arg).resolve() for arg in argv)
    spec = json.loads((head / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(tree, w): smoke_run(tree, w) for w in workloads for tree in (base, head)}
    print("### Draw digests against the base commit (seed 1, 5 s traced smoke runs; "
          "p = 3 fits with latents per family)\n")
    print("| workload | base | head | |")
    print("|---|---|---|---|")
    rows = [(w, runs[base, w][0], runs[head, w][0]) for w in workloads]
    rows += [(f"family {family}", family_digest(base, family), family_digest(head, family))
             for family in FAMILIES]
    for label, old, new in rows:
        print(f"| {label} | `{old}` | `{new}` | {'equal' if old == new else 'DIFFER'} |")
    for name in COUNTS:
        print(f"\n### `{name}` against the base commit (same runs)\n")
        print("| workload | base | head | |")
        print("|---|---|---|---|")
        for w in workloads:
            old, new = runs[base, w][1][name], runs[head, w][1][name]
            print(f"| {w} | {old} | {new} | {'equal' if old == new else 'DIFFER'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
