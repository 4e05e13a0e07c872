import math

import numpy as np
import pytest

from qvgraph.model import node_pairs


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def ks_threshold(n: int, alpha: float = 1e-3) -> float:
    """Two-sided Kolmogorov-Smirnov rejection bound."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_statistic(draws: np.ndarray, cdf) -> float:
    """Max deviation between the empirical CDF of draws and a reference CDF."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    ref = np.asarray(cdf(x), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - ref).max()
    lower = np.abs(ref - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def permute_pairs(values: np.ndarray, perm) -> np.ndarray:
    """Pair columns (..., P) after relabelling the nodes so that node a is the
    old node perm[a]."""
    p = len(perm)
    old = {pair: e for e, pair in enumerate(node_pairs(p))}
    return values[..., [old[min(perm[a], perm[b]), max(perm[a], perm[b])]
                        for a, b in node_pairs(p)]]
