"""Report whether two source trees draw the same random stream.

    python3 .github/scripts/draws_digest_report.py BASE_TREE HEAD_TREE

Runs the seed-1, untraced, 5-second benchmark smoke run of every workload
(``perfbench/run.py``) in each tree, each against that tree's own sources, and
prints a Markdown table of the two ``draws_digest`` values with ``equal`` or
``DIFFER``.  A change may alter the stream if it says so, so this only
reports: it exits 0 whatever the digests are, also when a run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SMOKE = ["--seed", "1", "--seconds", "5", "--trace", "0"]


def draws_digest(tree: Path, workload: str) -> str:
    """The ``draws_digest`` of one smoke run, or why there is none."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, *SMOKE],
        capture_output=True, text=True, check=False,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("info "):
            return json.loads(line[len("info "):]).get("draws_digest") or "no draws"
    return f"run failed (exit {proc.returncode})"


def main(argv) -> int:
    base, head = (Path(arg).resolve() for arg in argv)
    spec = json.loads((head / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("### Draw digests against the base commit (seed 1, 5 s smoke runs)\n")
    print("| workload | base | head | |")
    print("|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        old, new = draws_digest(base, workload), draws_digest(head, workload)
        print(f"| {workload} | `{old}` | `{new}` | {'equal' if old == new else 'DIFFER'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
