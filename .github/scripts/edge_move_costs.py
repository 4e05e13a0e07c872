"""Report what one call of each sweep move costs in two source trees.

    python3 .github/scripts/edge_move_costs.py BASE_TREE HEAD_TREE [--out FILE]

For each inference family, a five-area dataset of n = 500 replicates is fitted
with one chain in the calling process (``workers=1``) by a subprocess on each
tree's ``src``, with ``_update_edge``, ``_update_edge_scale``,
``_update_edge_refresh`` and ``_update_links_pair`` wrapped on
``_SweepKernel`` by ``perf_counter`` timers.  Each fit's mean per call is
rescaled to perfbench's reference host speed by the kernel of the head tree's
``perfbench/hostspeed.py`` (imported, not changed), run just before and after
the fit.  The table gives the median over the fits, in microseconds per call,
and each move's exact calls per sweep.  The two trees run in turn, twice
per family in swapped order, so that a slow spell of the host falls on both.

perfbench's traced per-layer spans read 0 once the chains run in forked
processes, so this is the per-move view of a change.  It only reports: it
exits 0 whatever the numbers, also when a run fails.  With ``--out FILE`` the
table is also written under the key ``per_move`` of the JSON file FILE,
whose other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MOVES = ("_update_edge", "_update_edge_scale", "_update_edge_refresh", "_update_links_pair")
FAMILIES = ("normal", "gamma", "inverse_gamma", "beta", "inverse_beta")
FITS = 5  # timed fits per run, after one untimed

# Times the moves of FITS one-chain fits on the qvgraph found first on
# sys.path; argv: family, tree, perfbench directory, fits.  Prints one JSON
# line: per move, the rescaled microseconds per call of each fit and the
# calls per sweep.
MOVE_FIT = """
import json, sys, time
from pathlib import Path
import qvgraph
from qvgraph import (MCMCConfig, ModelParams, PriorConfig, five_area_edge_matrix,
                     five_area_params, inference, run_chains, simulate)

family, tree, bench, fits = sys.argv[1], Path(sys.argv[2]).resolve(), sys.argv[3], int(sys.argv[4])
if not Path(qvgraph.__file__).resolve().is_relative_to(tree):
    sys.exit(f"imported {qvgraph.__file__}, not the sources of {tree}")
sys.path.insert(0, bench)
from hostspeed import REFERENCE_S, kernel_s

moves = sys.argv[5:]
params = {
    "normal": ModelParams("normal", 1.0, 2.0, five_area_edge_matrix(1.5, 0.4)),
    "gamma": ModelParams("gamma", 6.0, 10.0, five_area_edge_matrix(3.0, 0.5)),
    "inverse_gamma": five_area_params(),
    "beta": ModelParams("beta", 6.0, 10.0, five_area_edge_matrix(3.0, 1.0)),
    "inverse_beta": ModelParams("inverse_beta", 6.0, 10.0, five_area_edge_matrix(3.0, 1.0)),
}[family]
data, _ = simulate(params, 500, 7)
config = MCMCConfig(iterations=60, burn_in=20, thinning=1, chains=1, seed=1,
                    adapt_window=10, keep_latents=False, workers=1)
totals = {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = totals.setdefault(name, [0.0, 0])
            spent[0] += time.perf_counter() - start
            spent[1] += 1
    return wrapper

for name in moves:
    setattr(inference._SweepKernel, name, timed(name, getattr(inference._SweepKernel, name)))
prior = PriorConfig.default_for(family)
run_chains(data, family, prior, config)  # the first fit of a process runs slower
us, calls = {name: [] for name in moves}, {}
for _ in range(fits):
    totals.clear()
    before = kernel_s()
    run_chains(data, family, prior, config)
    scale = 2.0 * REFERENCE_S / (before + kernel_s())
    for name in moves:
        seconds, count = totals.get(name, (0.0, 0))
        calls[name] = count / config.iterations
        if count:
            us[name].append(1e6 * seconds / count * scale)
print(json.dumps({"us": us, "calls_per_sweep": calls}))
"""


def move_costs(tree: Path, family: str, bench: Path) -> dict | str:
    """Per-move fit timings of one tree and family, or why there are none."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", MOVE_FIT, family, str(tree), str(bench), str(FITS), *MOVES],
        capture_output=True, text=True, check=False, env=env, cwd=tree,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return f"run failed (exit {proc.returncode})"
    return json.loads(lines[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--out", type=Path, help="JSON file to write the table into")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    bench = head / "perfbench"

    table, failed = {}, []
    for family in FAMILIES:
        runs = {base: [], head: []}
        for order in ((base, head), (head, base)):
            for tree in order:
                runs[tree].append(move_costs(tree, family, bench))
                if isinstance(runs[tree][-1], str):
                    failed.append(f"{family} on {tree}: {runs[tree][-1]}")
        table[family] = {}
        for move in MOVES:
            row = {}
            for label, tree in (("base", base), ("head", head)):
                done = [r for r in runs[tree] if isinstance(r, dict)]
                fits = [us for r in done for us in r["us"][move]]
                row[label] = round(statistics.median(fits), 2) if fits else None
                row[f"{label}_calls_per_sweep"] = done[0]["calls_per_sweep"][move] if done else None
            table[family][move] = row

    print("### Sweep moves: microseconds per call against the base commit "
          f"(one chain in process, n = 500, five areas; median of {2 * FITS} fits, "
          "rescaled to perfbench's reference host speed)\n")
    print("| family | move | calls/sweep | base | head | change |")
    print("|---|---|---|---|---|---|")
    for family, rows in table.items():
        for move, row in rows.items():
            old, new = row["base"], row["head"]
            change = f"{new / old - 1.0:+.1%}" if old and new else "n/a"
            calls = row["head_calls_per_sweep"]
            if calls != row["base_calls_per_sweep"]:
                calls = f"{row['base_calls_per_sweep']} / {calls}"
            print(f"| {family} | `{move}` | {calls} | {old} | {new} | {change} |")
    for line in failed:
        print(f"\n{line}")

    if args.out is not None:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc["per_move"] = {
            "how": ("python3 .github/scripts/edge_move_costs.py BASE HEAD --out FILE: "
                    f"per family and tree two runs of {FITS} one-chain fits (60 sweeps, "
                    "n = 500, five areas, dataset seed 7, chain seed 1, workers=1), trees "
                    "in turn and swapped; microseconds per call, median over the fits, "
                    "rescaled by perfbench/hostspeed.py"),
            "by_family": table,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
