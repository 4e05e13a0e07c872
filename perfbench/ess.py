"""Rank-normalized split-R-hat and bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis 16(2).  Draws are given as
an array of shape (chains, draws).

A parameter with a constant chain is *frozen* (``is_frozen``).  Unlike
``qvgraph.split_chain_psrf``, which reads such a parameter as converged
(R-hat 1), R-hat and ESS here are computed from the chains as they are, so a
chain stuck apart from the others gives a large R-hat and a small ESS; they
are NaN only when every draw is the same.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def is_frozen(draws: np.ndarray) -> bool:
    """True when any chain never moved (zero within-chain variance)."""
    draws = np.asarray(draws, dtype=float)
    return bool(np.any(np.ptp(draws, axis=1) == 0.0))


def _split(draws: np.ndarray) -> np.ndarray:
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must have shape (chains, draws)")
    half = draws.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Pooled average ranks mapped through the normal quantile function."""
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    return special.ndtri((ranks - 0.375) / (x.size + 0.25))


def _rhat(x: np.ndarray) -> float:
    m, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return math.inf  # every split chain constant, but not all equal
    between = n * x.mean(axis=1).var(ddof=1)
    var_plus = (n - 1.0) / n * within + between / n
    return math.sqrt(var_plus / within)


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence (as in Stan)."""
    m, n = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1.0)
    within = chain_var.mean()
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Sum consecutive pairs while they stay positive, forcing them to be
    # non-increasing (initial positive and monotone sequences).
    tau = -1.0
    prev = math.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
        t += 2
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def _constant(x: np.ndarray) -> bool:
    return bool(np.ptp(x) == 0.0)


def rhat(draws: np.ndarray) -> float:
    """Rank-normalized split-R-hat: the larger of the bulk and folded forms."""
    x = _split(draws)
    if _constant(x):
        return math.nan
    folded = np.abs(x - np.median(x))
    return max(_rhat(_rank_normalize(x)), _rhat(_rank_normalize(folded)))


def bulk_ess(draws: np.ndarray) -> float:
    """Bulk ESS of the rank-normalized split chains."""
    x = _split(draws)
    if _constant(x):
        return math.nan
    return _ess(_rank_normalize(x))
