"""Report the cold-start cost of ``import qvgraph`` and of each CLI step in two source trees.

    python3 .github/scripts/cold_start.py BASE_TREE HEAD_TREE [--out FILE]

Times, as the wall time of a fresh interpreter from start to exit,
``import qvgraph`` and each step of the CLI cold-start pipeline that CI runs:
``simulate`` (five-area preset, n = 100), ``fit`` (inverse gamma, 60 sweeps,
two chains), ``summarize``, ``mse`` and ``export-graph``.  Every step is its
own ``python -m qvgraph`` process on the tree's ``src``, in a fresh working
directory per pipeline run.  The two trees run in turn, ``RUNS`` times each,
and the tree that goes first swaps from one run to the next, so that a slow
spell of the host falls on both.  The table gives the median
and quartiles of each tree, in seconds; the times are raw wall seconds, not
rescaled.  It only reports: it exits 0 whatever the numbers, also when a
run fails.  With ``--out FILE`` the table is also written under the key
``cold_start`` of the JSON file FILE, whose other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

RUNS = 9  # per tree; the median of fewer moves with the host's speed swings
STEPS = {
    "import qvgraph": ["-c", "import qvgraph"],
    "simulate": ["-m", "qvgraph", "simulate", "--preset", "five-areas", "--n", "100",
                 "--seed", "1", "--out", "cold.csv"],
    "fit": ["-m", "qvgraph", "fit", "--data", "cold.csv", "--family", "inverse_gamma",
            "--out", "cold_samples", "--set", "iterations=60", "--set", "burn_in=20",
            "--set", "thinning=2", "--set", "seed=1"],
    "summarize": ["-m", "qvgraph", "summarize", "--samples", "cold_samples"],
    "mse": ["-m", "qvgraph", "mse", "--samples", "cold_samples", "--data", "cold.csv"],
    "export-graph": ["-m", "qvgraph", "export-graph", "--samples", "cold_samples",
                     "--out", "cold_graph"],
}


def pipeline_run(tree: Path) -> dict[str, float] | str:
    """Wall seconds of every step of one pipeline run, or why there are none."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    seconds = {}
    with tempfile.TemporaryDirectory() as work:
        for step, argv in STEPS.items():
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                                  capture_output=True, text=True, check=False)
            seconds[step] = time.perf_counter() - start
            if proc.returncode != 0:
                return f"{step} failed (exit {proc.returncode}): {proc.stderr.strip()[-200:]}"
    return seconds


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def cell(q: dict | None) -> str:
    return f"{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]" if q else "n/a"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--out", type=Path, help="JSON file to write the table into")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()

    runs, failed = {base: [], head: []}, []
    for r in range(RUNS):
        for tree in ((base, head) if r % 2 == 0 else (head, base)):
            result = pipeline_run(tree)
            if isinstance(result, str):
                failed.append(f"{tree}: {result}")
            else:
                runs[tree].append(result)

    steps = [*STEPS, "pipeline"]
    for done in runs.values():
        for run in done:
            run["pipeline"] = sum(run[step] for step in STEPS if step != "import qvgraph")
    table = {}
    for step in steps:
        row = {}
        for label, tree in (("base", base), ("head", head)):
            row[label] = quartiles([run[step] for run in runs[tree]]) if runs[tree] else None
        if row["base"] and row["head"]:
            row["change"] = f"{row['head']['median'] / row['base']['median'] - 1.0:+.1%}"
        table[step] = row

    print(f"### Cold start against the base commit (wall seconds of a fresh interpreter; "
          f"median [quartiles] of {RUNS} runs per tree, trees in turn)\n")
    print("| step | base | head | change |")
    print("|---|---|---|---|")
    for step, row in table.items():
        label = "pipeline (simulate to export-graph)" if step == "pipeline" else f"`{step}`"
        print(f"| {label} | {cell(row['base'])} | {cell(row['head'])} | {row.get('change', 'n/a')} |")
    for line in failed:
        print(f"\n{line}")

    if args.out is not None:
        versions = {name: metadata.version(name) for name in ("numpy", "scipy")}
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc["cold_start"] = {
            "topic": "cold start: wall seconds of import qvgraph and of each CLI pipeline step, "
                     "each in a fresh interpreter",
            "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                    f"numpy {versions['numpy']}, scipy {versions['scipy']}; raw wall seconds",
            "how": (f"python3 .github/scripts/cold_start.py BASE HEAD --out FILE: {RUNS} "
                    "runs per tree of import qvgraph and the CI cold-start pipeline (simulate "
                    "--preset five-areas --n 100, fit inverse_gamma 60 sweeps 2 chains, summarize, "
                    "mse, export-graph), each step a fresh python process; trees in turn, the "
                    "first swapping every run; pipeline is the sum of the five steps"),
            "runs_per_tree": {"base": len(runs[base]), "head": len(runs[head])},
            "failed": failed,
            "steps": table,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
