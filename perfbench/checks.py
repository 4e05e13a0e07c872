"""Output checks and digests.

Every check holds at any run length, so a short benchmark run can apply them
all.  Failures are counted, never raised, so that one run reports every
failing check at once.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def digest(*arrays) -> str:
    """Short SHA-256 of the arrays' bytes; ``None`` entries are skipped."""
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def samples_digest(samples) -> str:
    return digest(samples.s0, samples.c0, samples.edges, samples.w, samples.links)


def draws_in_support(samples, fam) -> bool:
    """Every retained draw is finite and inside its family's support."""
    arrays = [samples.s0, samples.c0, samples.edges, samples.w, samples.links]
    if not all(a is None or np.all(np.isfinite(a)) for a in arrays):
        return False
    if not all(fam.hyper_ok(s, c) for s, c in zip(samples.s0.flat, samples.c0.flat)):
        return False
    if not all(fam.intensity_ok(c) for c in samples.edges.flat):
        return False
    if samples.w is not None and not np.all(fam.in_mean_space(samples.w)):
        return False
    if samples.links is not None:
        intensity = samples.edges[:, :, None, :]
        if not np.all(fam.in_link_support(samples.links, intensity)):
            return False
    return True


def blocks_attempted(meta) -> bool:
    """Every sampler block of every chain attempted at least one move.

    ``run_chains`` reports a NaN acceptance rate for a block with no
    attempts; s0 and c0 must always be present.
    """
    per_chain = meta.get("acceptance") or []
    if len(per_chain) != meta.get("chains"):
        return False
    for rates in per_chain:
        if "s0" not in rates or "c0" not in rates:
            return False
        if not all(math.isfinite(r) for r in rates.values()):
            return False
    return True


def summaries_finite(summary) -> bool:
    return bool(summary) and all(
        math.isfinite(v) for s in summary.values() for v in (s.mean, s.sd, s.q025, s.q975)
    )


class Checks:
    """Pass/attempt tallies per named check, plus sampler chains."""

    def __init__(self):
        self.tally: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool, times: int = 1) -> None:
        passed, attempted = self.tally.setdefault(name, [0, 0])
        self.tally[name] = [passed + (times if ok else 0), attempted + times]

    @property
    def attempted(self) -> int:
        return sum(a for _, a in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(a - p for p, a in self.tally.values())
