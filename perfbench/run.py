"""qvgraph benchmark: one workload in one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload igamma5 --seed 1 --seconds 27 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics, each by name and unit, then the output checks and the
run's environment.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units are read from ``BENCHMARK.json`` at the repository root.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": _git_hash(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qvgraph" / "__init__.py").is_file():
        print(f"run.py: no qvgraph sources at {SRC}", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))

    # One BLAS/OpenMP thread, set before numpy is first imported, so timings
    # do not depend on how many cores the run happens to get.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qvgraph

    if Path(qvgraph.__file__).resolve().parent != (SRC / "qvgraph").resolve():
        print(f"run.py: imported qvgraph from {qvgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from pipeline import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics, checks = result["metrics"], result["checks"]
    # A run whose fit failed measures no metric; it still prints its result.
    if checks.failed == 0 and set(metrics) != set(declared):
        print(f"run.py: measured metrics {sorted(set(metrics) ^ set(declared))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    width = max(map(len, declared))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in declared.items():
        value = f"{metrics[name]:.6g}" if name in metrics else "not measured"
        print(f"  {name:<{width}}  {value} {unit}")
    print("checks (passed/attempted):")
    for name, (passed, attempted) in checks.tally.items():
        print(f"  {name:<24} {passed}/{attempted}{'' if passed == attempted else '  FAILED'}")
    for span in result["info"]["missing_spans"]:
        print(f"  missing span: {span}")
    info = {**result["info"], "environment": _environment(args.seed)}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
