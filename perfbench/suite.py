"""Run every workload, each in a fresh process, and summarize across seeds.

From the repository root:

    python3 perfbench/suite.py                       # all workloads, seed 1, both modes
    python3 perfbench/suite.py --seeds 1-10 --trace 0 --out spread.json

Each run's metrics (by name and unit) and output checks are printed as
``run.py`` prints them.  With more than one seed, a table follows with each
metric's median, quartiles and spread (quartile distance over median), as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in lines[:-1]:
        if not line.startswith("info "):
            print(line)
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def spread_table(runs: list[dict]) -> list[dict]:
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in runs})
    for workload, trace in keys:
        group = [r["result"]["metrics"] for r in runs
                 if (r["workload"], r["trace"]) == (workload, trace)]
        for name, first in group[0].items():
            values = [g[name]["value"] for g in group]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            rows.append({"workload": workload, "trace": trace, "metric": name,
                         "unit": first["unit"], "n": len(values), "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else 0.0})
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            for seed in _seeds(args.seeds):
                runs.append(run_one(workload, seed, spec["run_seconds"], trace))
                print(json.dumps({k: runs[-1]["result"][k]
                                  for k in ("correct", "attempted", "failed")}))
                print()
    rows = spread_table(runs)
    if len(_seeds(args.seeds)) > 1:
        print(f"{'workload':<17} {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} spread")
        for r in rows:
            print(f"{r['workload']:<17} {r['metric']:<42} {r['median']:>12.6g} "
                  f"{r['q1']:>12.6g} {r['q3']:>12.6g} {r['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "spread": rows}, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
