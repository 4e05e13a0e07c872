"""The benchmark's workloads: scenario, run length and pipeline steps.

Each workload fixes a model, a replicate count and a sampler run; the
workload seed picks the simulated dataset and the chain seed, nothing else.
Chains are short, so every pass finishes in seconds, but each workload keeps
the scenario (family, graph, n) that makes one layer of the library dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qvgraph import (
    FamilyKind,
    MCMCConfig,
    ModelParams,
    PriorConfig,
    five_area_edge_matrix,
    five_area_params,
)

CHAINS = 2
# Fits are short (tens of sweeps) so that a run repeats them many times; a
# 20-sweep burn-in with this window still adapts the step sizes twice.
ADAPT_WINDOW = 10

# Counting-run length: one chain, a few sweeps.  The call and grid counts are
# exact, so a short run repeats them bit for bit.
COUNT_ITERATIONS = 6
COUNT_BURN_IN = 2

# Acceptance-criterion 6 truth for the normal family.
NORMAL3_EDGES = np.array([[0.0, 1.5, 0.4], [1.5, 0.0, 2.5], [0.4, 2.5, 0.0]])


@dataclass(frozen=True)
class Workload:
    name: str
    params: ModelParams
    n: int
    iterations: int
    burn_in: int
    keep_latents: bool
    csv_round_trip: bool

    @property
    def family(self) -> FamilyKind:
        return self.params.family

    @property
    def prior(self) -> PriorConfig:
        return PriorConfig.default_for(self.family)

    @property
    def sweeps(self) -> int:
        """Sweeps in one timed fit, over all chains."""
        return CHAINS * self.iterations

    def config(self, chain_seed: int) -> MCMCConfig:
        return MCMCConfig(
            iterations=self.iterations, burn_in=self.burn_in, thinning=1,
            chains=CHAINS, seed=chain_seed, keep_latents=self.keep_latents,
            adapt_window=ADAPT_WINDOW,
        )

    def counting_config(self, chain_seed: int) -> MCMCConfig:
        return MCMCConfig(
            iterations=COUNT_ITERATIONS, burn_in=COUNT_BURN_IN, thinning=1,
            chains=1, seed=chain_seed, keep_latents=False,
        )


def seeds(seed: int) -> tuple[int, int]:
    """Dataset seed and chain seed derived from the workload seed."""
    data_seed, chain_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(chain_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="igamma5",
            params=five_area_params(),
            n=500, iterations=50, burn_in=20,
            keep_latents=False, csv_round_trip=False,
        ),
        Workload(
            name="gamma5",
            params=ModelParams(FamilyKind.GAMMA, s0=6.0, c0=10.0,
                               edge_intensity=five_area_edge_matrix(3.0, 0.5)),
            n=500, iterations=40, burn_in=20,
            keep_latents=True, csv_round_trip=False,
        ),
        Workload(
            name="normal3_pipeline",
            params=ModelParams(FamilyKind.NORMAL, s0=0.5, c0=2.0,
                               edge_intensity=NORMAL3_EDGES),
            n=5000, iterations=60, burn_in=20,
            keep_latents=True, csv_round_trip=True,
        ),
    )
}
