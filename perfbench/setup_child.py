"""One measured set-up in a fresh interpreter: import, simulate, CSV round trip.

Started by the benchmark, never by hand:

    python3 perfbench/setup_child.py --workload NAME --seed N --scratch DIR

Prints one JSON line with the timings (seconds), the time of the reference
kernel run right after the set-up in this same process (``hostspeed.py``),
and a digest of the dataset that the fit would receive, so the parent can
check it got the same data.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import qvgraph

    from checks import digest
    from workloads import WORKLOADS, seeds

    imported = time.perf_counter()
    w = WORKLOADS[args.workload]
    data_seed, _ = seeds(args.seed)
    data, _ = qvgraph.simulate(w.params, w.n, data_seed)
    simulated = time.perf_counter()
    save_s = load_s = 0.0  # workloads without the CSV step report zero
    if w.csv_round_trip:
        path = Path(args.scratch) / "data.csv"
        qvgraph.save_dataset(data, path)
        saved = time.perf_counter()
        data = qvgraph.load_dataset(path, w.family)
        save_s, load_s = saved - simulated, time.perf_counter() - saved
    setup_s = time.perf_counter() - _START

    from hostspeed import kernel_s

    print(json.dumps({
        "setup_s": setup_s,
        "kernel_s": kernel_s(),
        "import_s": imported - _START,
        "simulate_s": simulated - imported,
        "save_dataset_s": save_s,
        "load_dataset_s": load_s,
        "digest": digest(data.y),
    }))


if __name__ == "__main__":
    main()
