"""Bayesian posterior inference for the hierarchical graphical model.

The sampler augments the observations with the per-replicate anchors and link
values and cycles through five blocks in a fixed order: all link values, all
anchors (exact conjugate draws), every edge intensity, the global
concentration c0 and the global location s0.  Each family's schedule, its
link draw, edge moves and intensity proposal, is in ``_SCHEDULES``.  Links are
drawn exactly, by the completed square (normal) or by enumeration (gamma, beta,
inverse beta), or by an independence step from their prior and a log-scale
random walk (inverse gamma).  Each edge gets a random walk on its intensity, a
joint rescale with its links (normal and inverse gamma only: a discrete link
cannot be rescaled) and a refresh of its links; the walk steps by +-1 on the
integer intensities of beta and inverse beta and on the log scale otherwise.
Random-walk step sizes adapt toward a 0.44 acceptance rate during burn-in only.

A chain state stores its links (n, P) and edge intensities (P,) by node pair
in ``node_pairs(p)`` order, as ``Latents`` and ``PosteriorSamples`` do.  The
node levels s* and c* are s0 and c0 plus the ``node_sums`` of those columns;
the sweep keeps them current as it updates one pair at a time.

Enumeration builds each replicate's log-mass on a grid anchored at 0 as a
cumulative sum of the exact log-ratios of successive masses (the families'
``log_h_step``/``log_b_step``), so no log-gamma is evaluated.  Binomial links
use the whole support 0..c_jk; Poisson and negative-binomial links start from
a short grid that doubles until a geometric bound on the cut-off tail falls
below ``_ENUM_TAIL_TOL`` = 1e-12.  No grid, bounded or not, may hold more
than ``_ENUM_MAX_STATES`` = 1,000,000 values.
The grid is values-major, (values, replicates) with the replicates
contiguous.  The log-mass recurrence and the sampler's CDF are accumulated
by one add of a whole replicate row per value from 200 replicates on, and
by ``np.cumsum`` down the columns below that, where the adds' fixed call
cost would dominate; a doubled grid appends rows.  The order of additions
is that of a cumulative sum over each replicate's values, so the log-masses
and the draws do not depend on the replicate count.

The edge moves evaluate only their candidate.  After the anchors the sweep
computes, for the current state, each node's sum of log h, each pair's sum of
log b and each edge-prior term once; an accepted move stores its candidate's
sums in their place, so the current side of a ratio is never recomputed.
The sums come from the families' summaries of the node sums and link values
(``Family.h_summary``/``b_summary``), which the sweep keeps with them, so the
intensity-only moves (the edge random walk and c0) read cached summaries:
O(1) per candidate for the normal, gamma and inverse-gamma families, O(n) for
beta and inverse beta.

``run_chains`` runs its chains in parallel forked processes, one per chain up
to the usable CPUs.  Each chain draws from its own ``SeedSequence.spawn``
stream and writes its draws into output arrays in shared memory, so the
result is bit-identical to running the chains one after another, which
``MCMCConfig(workers=1)`` does in the calling process.

``import qvgraph`` loads no scipy module.  ``scipy.special`` is bound at the
first log-gamma (``families.gammaln``), and every ``PriorConfig`` evaluates
one when it is built, so a fit loads it once, in the calling process, before
``run_chains`` forks any worker; the workers inherit it.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ChainError,
    DomainError,
    EnumerationOverflowError,
)
from . import families
from .families import Family, FamilyKind, get_family
from .model import (
    Dataset,
    _as_rng,
    _expect_shape,
    draw_latents,
    log_joint_likelihood_arrays,
    node_pairs,
    node_sums,
)

__all__ = [
    "NormalS0Prior",
    "GammaS0Prior",
    "UniformOnC0S0Prior",
    "PriorConfig",
    "MCMCConfig",
    "ChainState",
    "PosteriorSamples",
    "ParamSummary",
    "log_full_conditional_s0",
    "log_full_conditional_c0",
    "log_full_conditional_cjk",
    "sample_link_conditional",
    "sample_w_conditional",
    "gibbs_sweep",
    "run_chains",
    "initial_state",
    "log_posterior",
    "split_chain_psrf",
    "frozen_parameters",
    "summarize",
    "predictive_mse",
    "link_conditional_pmf",
    "link_conditional_normal_coeffs",
]

_NEG_INF = float("-inf")


def _gamma_log_norm(a: float, b: float) -> float:
    """a log b - log Gamma(a), the log normalizing constant of a gamma with
    shape a and rate b; each prior computes it once."""
    return a * math.log(b) - float(families.gammaln(a))


def _gamma_logpdf(x: float, a: float, b: float, log_norm: float) -> float:
    """Log density of a gamma with shape a, rate b and ``_gamma_log_norm``
    ``log_norm``."""
    if x <= 0.0 or not math.isfinite(x):
        return _NEG_INF
    return log_norm + (a - 1.0) * math.log(x) - b * x


def _poisson_logpmf(k: float, lam: float) -> float:
    if k < 0 or k != round(k):
        return _NEG_INF
    return k * math.log(lam) - families.gammaln(k + 1.0) - lam


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

# Each s0-prior form owns its constant checks, its chain start and its
# random-walk proposal.  ``start(c0)`` is the first chain's s0 and
# ``start(c0, rng)`` a later chain's overdispersed one, drawn with one
# ``rng.random()``; ``propose(cur, c0, step, rng)`` returns a candidate and the
# log Jacobian of its transformed scale.

def _jitter(rng) -> float:
    """A factor e^0.5 or e^-0.5, each with probability 1/2."""
    return math.exp(0.5 if rng.random() < 0.5 else -0.5)


@dataclass(frozen=True)
class NormalS0Prior:
    """Normal prior on s0 with mean mu and precision tau."""

    mu: float = 0.0
    tau: float = 0.01

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError("s0 prior precision tau must be strictly positive")

    def logpdf(self, s0: float, c0: float) -> float:
        d = s0 - self.mu
        return 0.5 * (math.log(self.tau) - math.log(2.0 * math.pi)) - 0.5 * self.tau * d * d

    def start(self, c0: float, rng=None) -> float:
        # the prior mean, or half a prior standard deviation either side of it
        if rng is None:
            return self.mu
        return self.mu + (0.5 if rng.random() < 0.5 else -0.5) * (1.0 / math.sqrt(self.tau))

    def propose(self, cur: float, c0: float, step: float, rng) -> tuple[float, float]:
        return cur + rng.normal(0.0, step), 0.0


@dataclass(frozen=True)
class GammaS0Prior:
    """Gamma prior on a positive s0 with shape a and rate b."""

    a: float = 0.01
    b: float = 0.01

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError("s0 prior shape and rate must be strictly positive")
        object.__setattr__(self, "_log_norm", _gamma_log_norm(self.a, self.b))

    def logpdf(self, s0: float, c0: float) -> float:
        return _gamma_logpdf(s0, self.a, self.b, self._log_norm)

    def start(self, c0: float, rng=None) -> float:
        s0 = self.a / self.b  # the prior mean
        return s0 if rng is None else s0 * _jitter(rng)

    def propose(self, cur: float, c0: float, step: float, rng) -> tuple[float, float]:
        # a step on log s0
        prop = cur * math.exp(rng.normal(0.0, step))
        return prop, math.log(prop) - math.log(cur)


@dataclass(frozen=True)
class UniformOnC0S0Prior:
    """Uniform prior for s0 on (0, c0); density 1/c0 inside the interval."""

    def logpdf(self, s0: float, c0: float) -> float:
        if 0.0 < s0 < c0:
            return -math.log(c0)
        return _NEG_INF

    def start(self, c0: float, rng=None) -> float:
        s0 = 0.5 * c0  # the jitter keeps it below c0
        return s0 if rng is None else s0 * _jitter(rng)

    def propose(self, cur: float, c0: float, step: float, rng) -> tuple[float, float]:
        # a step on logit(s0 / c0), which keeps 0 < s0 < c0
        u = math.log(cur) - math.log(c0 - cur)
        prop = c0 / (1.0 + math.exp(-(u + rng.normal(0.0, step))))
        return prop, math.log(prop) + math.log(c0 - prop) - math.log(cur) - math.log(c0 - cur)


# Each family's sampler (see the module docstring): its s0 prior form and, by
# ``_SweepKernel`` method name, its link draw, the edge moves made on each pair
# in order (three rounds) and its intensity proposal.
_ALL_MOVES = ("_update_edge", "_update_edge_scale", "_update_edge_refresh") * 3
_NO_SCALE = ("_update_edge", "_update_edge_refresh") * 3
_SCHEDULES = {
    FamilyKind.NORMAL: (NormalS0Prior, "_normal_links", _ALL_MOVES, "_log_step"),
    FamilyKind.GAMMA: (GammaS0Prior, "_enumerated_links", _NO_SCALE, "_log_step"),
    FamilyKind.INVERSE_GAMMA: (GammaS0Prior, "_inverse_gamma_links", _ALL_MOVES, "_log_step"),
    FamilyKind.BETA: (UniformOnC0S0Prior, "_enumerated_links", _NO_SCALE, "_integer_step"),
    FamilyKind.INVERSE_BETA: (GammaS0Prior, "_enumerated_links", _NO_SCALE, "_integer_step"),
    FamilyKind.GSST: (NormalS0Prior, None, (), None),  # no posterior inference
}


@dataclass(frozen=True)
class PriorConfig:
    """Hyper-prior constants.

    Continuous edge intensities get a Ga(a0, b0) prior; integer intensities
    (binomial and negative-binomial link families) get a Po(d0) prior
    restricted to positive values.  c0 is Ga(ac, bc) in every family and the
    s0 prior takes the family-matched form.  Each gamma prior's log
    normalizing constant is computed once, at construction.
    """

    a0: float = 1.0
    b0: float = 1.0
    d0: float = 1.0
    ac: float = 0.01
    bc: float = 0.01
    s0_prior: NormalS0Prior | GammaS0Prior | UniformOnC0S0Prior = field(
        default_factory=GammaS0Prior
    )

    def __post_init__(self):
        for name in ("a0", "b0", "d0", "ac", "bc"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"prior constant {name} must be strictly positive")
        object.__setattr__(self, "_edge_log_norm", _gamma_log_norm(self.a0, self.b0))
        object.__setattr__(self, "_c0_log_norm", _gamma_log_norm(self.ac, self.bc))

    @classmethod
    def default_for(cls, family, **kwargs) -> "PriorConfig":
        form = _SCHEDULES[get_family(family).kind][0]
        return cls(s0_prior=form(), **kwargs)

    def validate_for(self, family) -> None:
        kind = get_family(family).kind
        expected = _SCHEDULES[kind][0]
        if type(self.s0_prior) is not expected:
            raise DomainError(
                f"s0 prior form {type(self.s0_prior).__name__} does not match the "
                f"{kind.value} family (expected {expected.__name__})"
            )

    def log_edge_prior(self, fam: Family, c: float) -> float:
        if fam.integer_intensity:
            if c < 1:
                return _NEG_INF  # intensities are kept strictly positive
            return _poisson_logpmf(c, self.d0)
        return _gamma_logpdf(c, self.a0, self.b0, self._edge_log_norm)

    def log_c0_prior(self, c0: float) -> float:
        return _gamma_logpdf(c0, self.ac, self.bc, self._c0_log_norm)

    def log_prior(self, fam: Family, s0: float, c0: float, edges: np.ndarray) -> float:
        total = self.log_c0_prior(c0) + self.s0_prior.logpdf(s0, c0)
        for c in edges:
            total += self.log_edge_prior(fam, float(c))
        return total


# ---------------------------------------------------------------------------
# Chain configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCMCConfig:
    """Chain controls of ``run_chains``, the only function that takes one.

    ``workers`` is the number of processes the chains run in: ``None`` takes
    one per chain up to the usable CPUs, ``1`` runs every chain in the
    calling process (for profilers, debuggers and tracing).  The draws are
    the same bit for bit whatever the value.
    """

    iterations: int = 105_000
    burn_in: int = 15_000
    thinning: int = 40
    chains: int = 2
    seed: int = 0
    adapt_window: int = 50
    keep_latents: bool = True
    workers: int | None = None

    def __post_init__(self):
        if not self.burn_in < self.iterations:
            raise DomainError("burn_in must be smaller than iterations")
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")
        if self.thinning < 1:
            raise DomainError("thinning must be >= 1")
        if self.chains < 1:
            raise DomainError("at least one chain is required")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.adapt_window < 1:
            raise DomainError("adapt_window must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.retained_per_chain < 1:
            raise DomainError("(iterations - burn_in) // thinning must be >= 1: the "
                              "chains would retain no draws")

    @property
    def retained_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thinning


@dataclass
class ChainState:
    """Current parameters and latents of one chain.

    ``edges`` has shape (P,) and ``links`` (n, P), both in ``node_pairs(p)``
    order, and ``w`` (n,).  ``accept`` maps block names to cumulative
    [accepted, attempted] counts and ``step_sizes`` to random-walk scales,
    to which a block's first move adds its initial scale.
    """

    family: FamilyKind
    s0: float
    c0: float
    edges: np.ndarray
    w: np.ndarray
    links: np.ndarray
    log_posterior: float = _NEG_INF
    accept: dict = field(default_factory=dict)
    step_sizes: dict = field(default_factory=dict)

    def __post_init__(self):
        edges = self.edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size == 0 or self.p * (self.p - 1) != 2 * edges.size:
            raise DomainError(f"edges must have shape (P,), P = p(p-1)/2, got {edges.shape}")
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise DomainError(f"w must have shape (n,), got {self.w.shape}")
        self.links = _expect_shape("links", self.links, (self.w.size, edges.size))

    @property
    def p(self) -> int:
        """Number of nodes, from the P = p(p-1)/2 edge intensities."""
        return (1 + math.isqrt(1 + 8 * self.edges.shape[0])) // 2


def _metropolis(state: ChainState, name: str, log_ratio: float, rng) -> bool:
    """The accept step of every scalar Metropolis block: count an attempt of
    block ``name``, reject a ratio that is not finite without drawing a
    uniform, else accept, and count it, when log U < ``log_ratio``."""
    counter = state.accept.setdefault(name, [0, 0])
    counter[1] += 1
    if math.isfinite(log_ratio) and math.log(rng.random()) < log_ratio:
        counter[0] += 1
        return True
    return False


def _edge_label(j: int, k: int) -> str:
    return f"c_{j + 1}_{k + 1}"


class _BlockNames(NamedTuple):
    """Step-size and acceptance-counter names of one pair's blocks."""

    link: str
    edge: str
    scale: str
    refresh: str


def _block_names(j: int, k: int) -> _BlockNames:
    tag = f"{j + 1}_{k + 1}"
    return _BlockNames(f"link_{tag}", f"edge_{tag}", f"scale_{tag}", f"refresh_{tag}")


_INITIAL_STEP = 0.5  # a block's random-walk scale at its first move
_INITIAL_LINK_STEP = 0.8  # that of the inverse-gamma link walk
_TARGET_ACCEPT = 0.44  # the acceptance rate burn-in adapts the scales toward


# ---------------------------------------------------------------------------
# Full conditionals for the top-level parameters
# ---------------------------------------------------------------------------

def _check_latents(state: ChainState, data: Dataset) -> None:
    """``DomainError`` unless the state's links are (n, P) for the data's n and p."""
    expected = (data.n, data.p * (data.p - 1) // 2)
    if state.links.shape != expected:
        raise DomainError(f"state links of shape {state.links.shape} do not match the "
                          f"data's (n, P) = {expected}")


def _checked_kernel(state: ChainState, data: Dataset, prior=None, link_terms=False):
    """The sampler kernel of a single-site operation on ``state``, built after
    ``_check_latents``; ``prior`` defaults to the family's.  With
    ``link_terms`` returns (kernel, s*, theta(w), c*) of the links block."""
    _check_latents(state, data)
    fam = get_family(state.family)
    kernel = _SweepKernel(fam, data, PriorConfig.default_for(fam) if prior is None else prior)
    return (kernel, *kernel._link_block_terms(state)) if link_terms else kernel


def log_full_conditional_s0(state: ChainState, data: Dataset, prior: PriorConfig,
                            s0_candidate: float) -> float:
    """Log full conditional of s0 (up to an additive constant); -inf outside
    the admissible region."""
    kernel, s_star, theta_w, c_star = _checked_kernel(state, data, prior, link_terms=True)
    return kernel._log_target_s0(float(s0_candidate), state.c0, c_star, s_star - state.s0,
                                 float(np.sum(theta_w)))


def log_full_conditional_c0(state: ChainState, data: Dataset, prior: PriorConfig,
                            c0_candidate: float) -> float:
    """Log full conditional of c0; -inf for nonpositive candidates (and for
    candidates not exceeding s0 in the beta family)."""
    kernel, s_star, _, c_star = _checked_kernel(state, data, prior, link_terms=True)
    return kernel._log_target_c0(float(c0_candidate), state.s0,
                                 kernel._edge_terms(state, s_star, c_star), c_star - state.c0)


def log_full_conditional_cjk(state: ChainState, data: Dataset, prior: PriorConfig,
                             j: int, k: int, c_candidate: float) -> float:
    """Log full conditional of the edge intensity between nodes j and k, up to
    an additive constant: the sampler's log-ratio of the candidate against the
    current intensity, links held fixed; -inf outside the support."""
    kernel, s_star, _, c_star = _checked_kernel(state, data, prior, link_terms=True)
    j, k, _ = kernel._lookup_pair(state, j, k)
    terms = kernel._edge_terms(state, s_star, c_star)
    return kernel._pair_candidate(state, j, k, s_star, c_star, float(c_candidate), None,
                                  terms)[0]


# ---------------------------------------------------------------------------
# Link-value conditionals (block IV)
# ---------------------------------------------------------------------------

def _normal_link_moments(c_jk, excl_j, excl_k, cj, ck, t_sum):
    """Completed-square mean and standard deviation of a normal link value.

    Takes the inputs in the order ``_SweepKernel._pair_terms`` returns them:
    ``excl_j``/``excl_k`` are the node sums s* with the current link value
    removed; ``t_sum`` is theta(y_j) + theta(y_k) + theta(w).
    """
    prec = 1.0 / cj + 1.0 / ck + 1.0 / c_jk
    mean = (t_sum - excl_j / cj - excl_k / ck) / prec
    return mean, 1.0 / np.sqrt(prec)


# Replicates from which a Python-level add per grid value beats one
# np.cumsum down the columns.  Each add costs a call of about 0.7 us, the
# column-wise cumsum about 5 ns per cell, and the two cross between 150 and
# 250 replicates (2-vCPU x86 host, numpy 2.4).  Both add in the same order,
# so the choice never changes a bit of the result.
_ROW_ADD_MIN_REPLICATES = 200


def _running_sum(buf):
    """``buf`` made its own cumulative sum down axis 0, in place.

    Left to right, as ``np.cumsum`` adds: with at least
    ``_ROW_ADD_MIN_REPLICATES`` columns (replicates) by one add of whole
    rows per step, each along the long, contiguous axis of a values-major
    grid; with fewer by ``np.cumsum`` itself.
    """
    if buf.shape[1] < _ROW_ADD_MIN_REPLICATES:
        return np.cumsum(buf, axis=0, out=buf)
    rows = list(buf)
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return buf


def _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum, g0=0.0):
    """Unnormalized log mass of a run of consecutive integer link values.

    ``values`` has shape (m,), the replicate-dependent inputs and ``g0``
    (the log mass at ``values[0]``) shape (r,) or scalar; the result is the
    values-major (m, r) grid.  It is the cumulative sum of the exact
    log-ratios of successive masses, ``g(s+1) - g(s) = Dlog h(a_j+s, cj) +
    Dlog h(a_k+s, ck) + Dlog b(s, c_jk) + t_sum``, so no log-gamma is
    evaluated.
    """
    s = values[:-1, None]
    g = np.empty((values.shape[0], a_j.shape[0]))
    g[0] = g0
    g[1:] = (
        fam.log_h_step(a_j + s, cj)
        + fam.log_h_step(a_k + s, ck)
        + fam.log_b_step(values[:-1], c_jk)[:, None]
        + t_sum
    )
    return _running_sum(g)


# First grid of an unbounded link conditional: small, so that links near 0
# (the gamma scenarios' usual case) cost few cells; larger links cost a few
# extensions of the grid.
_ENUM_START = 16
# Relative size of the cut-off tail below which an unbounded grid stops doubling.
_ENUM_TAIL_TOL = 1e-12
# Most values a link grid may hold, bounded or not.
_ENUM_MAX_STATES = 1_000_000


def _enum_link_grid(fam, a_j, a_k, cj, ck, c_jk, t_sum):
    """Adaptive grid of an unbounded discrete link conditional.

    The grid is anchored at 0, so no lower tail is ever cut, and starts at
    ``_ENUM_START`` steps.  It doubles until, for every replicate, the terms
    decay past the mode and the geometric tail bound (the last term times
    r / (1 - r), with r the ratio of the last two terms) drops below
    ``_ENUM_TAIL_TOL`` relative to the largest term.  Each doubling continues
    the log-ratio recurrence of ``_enum_link_logmass`` from the last value
    and appends the new values' rows to the grid instead of rebuilding it.
    Returns the values, the (m, r) log mass and each replicate's largest
    log mass.
    """
    values = np.arange(0.0, _ENUM_START + 1.0)
    g = _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum)
    while True:
        g_max = g.max(axis=0)
        last = g[-1]
        prev = g[-2]
        decreasing = last < prev
        ratio = np.exp(np.minimum(last - prev, -1e-12))
        bound = np.exp(last - g_max) * ratio / (1.0 - ratio)
        if np.all(decreasing) and np.all(bound < _ENUM_TAIL_TOL):
            return values, g, g_max
        m = 2 * (values.shape[0] - 1)
        if m > _ENUM_MAX_STATES:
            raise EnumerationOverflowError(
                f"link enumeration exceeded {_ENUM_MAX_STATES} states before reaching the tail"
            )
        more = np.arange(values[-1], m + 1.0)
        g_more = _enum_link_logmass(fam, more, a_j, a_k, cj, ck, c_jk, t_sum, last)
        values = np.arange(0.0, m + 1.0)
        g = np.concatenate([g, g_more[1:]])


def _rows_softmax_sample(g, g_max, rng):
    """One value index per replicate of the (m, r) log-mass grid ``g``,
    whose replicates' largest values are ``g_max``, drawn by inversion of the
    replicate's normalized CDF with one uniform per replicate.

    Adds in the order of a cumulative sum over each replicate's values, so
    every index is the one ``np.searchsorted`` finds on that CDF, clamped to
    the last value.
    """
    p = np.exp(g - g_max)
    p /= np.ascontiguousarray(p.T).sum(axis=1)  # numpy's pairwise sum per replicate
    cum = _running_sum(p)
    u = rng.random(g.shape[1])
    idx = (u > cum).sum(axis=0)
    return np.minimum(idx, g.shape[0] - 1)


@dataclass(slots=True)
class _EdgeTerms:
    """What the edge moves and the c0 step read of the current state besides
    s* and c*.

    theta(w) and sum M(w) are fixed in the edge block.  ``h_node[j]`` is
    sum_i log h(s*_ij, c*_j), ``b_pair[e]`` is sum_i log b(S_ie, c_e) and
    ``lp_pair[e]`` the log edge prior of c_e, for the pair in column e: the
    current side of every move's ratio, which changes only when a move is
    accepted.  ``h_stat[j]`` and ``b_stat[e]`` are the family's summaries of
    s*_j and S_e that give those sums at any intensity; ``h_s0`` summarizes
    [s0] for the c0 step.
    """

    theta_w: np.ndarray
    m_w_total: float
    h_node: list
    b_pair: list
    lp_pair: list
    h_stat: list
    b_stat: list
    h_s0: object


class _SweepKernel:
    """One-dataset sampler machinery shared by all chains, with the data
    summaries theta(y) and M(y) that every sweep reuses."""

    def __init__(self, fam: Family, data: Dataset, prior: PriorConfig):
        _, links, moves, step = _SCHEDULES[fam.kind]
        if links is None:  # gsst
            raise DomainError("posterior inference is not available for the gsst family")
        prior.validate_for(fam)
        # bound by name, so a subclass override or an earlier class patch is what sweeps call
        self._draw_links, self._propose_intensity = getattr(self, links), getattr(self, step)
        self._edge_moves = [getattr(self, move) for move in moves]
        self.fam = fam
        self.data = data
        self.prior = prior
        self.n, self.p = data.y.shape
        self.theta_y = np.asarray(fam.theta(data.y), dtype=float)
        self.theta_y_col = list(self.theta_y.T)  # the strided views theta_y[:, node]
        self.pairs = node_pairs(self.p)
        # theta(y_j) + theta(y_k) by pair column, to which each link draw adds theta(w)
        self.theta_y_pair = [self.theta_y[:, j] + self.theta_y[:, k] for j, k in self.pairs]
        m_y = np.asarray(fam.cumulant(data.y), dtype=float)
        self.theta_y_total = float(self.theta_y.sum())
        self.m_y_total = float(m_y.sum())
        self.m_y_node = m_y.sum(axis=0).tolist()
        self.column = {pair: e for e, pair in enumerate(self.pairs)}  # pair -> its column
        self.names = {pair: _block_names(*pair) for pair in self.pairs}

    def _lookup_pair(self, state: ChainState, j, k, positive=False):
        """(j, k) ordered and the pair's column; ``IndexError`` unless j and k
        are two distinct nodes, and with ``positive`` ``DomainError`` on a zero
        intensity."""
        if not (0 <= j < self.p and 0 <= k < self.p and j != k):
            raise IndexError(f"nodes ({j}, {k}) are not two distinct nodes in 0..{self.p - 1}")
        j, k = min(j, k), max(j, k)
        col = self.column[j, k]
        if positive and float(state.edges[col]) <= 0.0:
            raise DomainError("link conditional requires a positive edge intensity")
        return j, k, col

    # -- block IV: one pair of link values across all replicates -----------
    def _link_block_terms(self, state: ChainState):
        """Node sums s*, theta(w) and node intensities c* for the links block.

        The anchors and the intensities do not change within the block, so
        theta(w) and c* are computed once; the pair updates keep s* current.
        """
        return (state.s0 + node_sums(state.links, self.p),
                np.asarray(self.fam.theta(state.w), dtype=float),
                state.c0 + node_sums(state.edges, self.p))

    def _pair_terms(self, state: ChainState, j, k, s_star, theta_w, c_node, sel):
        """Inputs of the link conditionals of pair (j, k) on rows ``sel``.

        Returns the current link values (a copy), the node sums a_j, a_k
        without them, the node intensities cj, ck and
        t_sum = theta(y_j) + theta(y_k) + theta(w).
        """
        col = self.column[j, k]
        cur = np.array(state.links[sel, col], dtype=float)  # a snapshot
        t_sum = self.theta_y_pair[col][sel] + theta_w[sel]
        return cur, s_star[sel, j] - cur, s_star[sel, k] - cur, c_node[j], c_node[k], t_sum

    def _enumerate_links(self, j, k, c_jk, a_j, a_k, cj, ck, t_sum, sel):
        """Support grid, unnormalized (m, r) log mass and each replicate's
        largest log mass of discrete link conditionals.

        The one enumeration path of the sampler and of
        ``link_conditional_pmf``: the fixed grid 0..c_jk for binomial links,
        the adaptive grid otherwise.  Non-finite inputs would never reach a
        decreasing tail, so they are rejected before any grid is built.
        """
        fam = self.fam
        bad = ~(np.isfinite(a_j) & np.isfinite(a_k) & np.isfinite(t_sum))
        if np.any(bad):
            i = int(np.arange(self.n)[sel][np.argmax(bad)])
            raise DomainError(
                f"link conditional of replicate {i} on pair ({j + 1}, {k + 1}) has "
                "non-finite inputs (anchor or node sum out of range)"
            )
        if fam.kind is FamilyKind.BETA:
            count = int(round(c_jk))
            if count > _ENUM_MAX_STATES:
                raise EnumerationOverflowError(
                    f"binomial link enumeration over {count + 1} states exceeds the cap"
                )
            values = np.arange(0.0, count + 1.0)
            g = _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum)
            return values, g, g.max(axis=0)
        return _enum_link_grid(fam, a_j, a_k, cj, ck, c_jk, t_sum)

    def _update_links_pair(self, state: ChainState, j, k, rng, s_star, theta_w, c_node,
                           sel=slice(None)):
        col = self.column[j, k]
        c_jk = float(state.edges[col])
        terms = self._pair_terms(state, j, k, s_star, theta_w, c_node, sel)
        new = self._draw_links(state, j, k, rng, sel, theta_w, c_jk, terms)
        delta_s = new - terms[0]
        state.links[sel, col] = new
        s_star[sel, j] += delta_s
        s_star[sel, k] += delta_s

    # The family's link draw of pair (j, k) on rows ``sel``, from the inputs
    # ``terms`` that ``_pair_terms`` returns; each returns the new link values.
    def _normal_links(self, state: ChainState, j, k, rng, sel, theta_w, c_jk, terms):
        return rng.normal(*_normal_link_moments(c_jk, *terms[1:]))  # exact

    def _enumerated_links(self, state: ChainState, j, k, rng, sel, theta_w, c_jk, terms):
        values, g, g_max = self._enumerate_links(j, k, c_jk, *terms[1:], sel)  # exact
        return values[_rows_softmax_sample(g, g_max, rng)]

    def _inverse_gamma_links(self, state: ChainState, j, k, rng, sel, theta_w, c_jk, terms):
        # log h(s, c) = (c + 1) log s - const, log b(t, c) = (c - 1) log t - const
        cur, a_j, a_k, cj, ck, t_sum = terms
        name = self.names[j, k].link
        t_y = t_sum - theta_w[sel]
        with np.errstate(divide="ignore", invalid="ignore"):
            # independence refresh: propose from the conditional link prior
            # Ga(c_jk, scale w); the proposal cancels everything except the
            # two level-normalizer factors and the observation tilt
            # (rng.gamma(shape=c_jk, scale=w) gives the same, slower)
            prop = rng.standard_gamma(c_jk, size=cur.shape) * state.w[sel]
            log_j_prop, log_j_cur = np.log(a_j + prop), np.log(a_j + cur)
            log_k_prop, log_k_cur = np.log(a_k + prop), np.log(a_k + cur)
            delta = (
                (cj + 1.0) * (log_j_prop - log_j_cur)
                + (ck + 1.0) * (log_k_prop - log_k_cur)
                + (prop - cur) * t_y
            )
            accept = (np.log(rng.random(cur.shape[0])) < delta) & (prop > 0.0)
            cur = np.where(accept, prop, cur)
            log_j_cur = np.where(accept, log_j_prop, log_j_cur)  # log(a_j + cur)
            log_k_cur = np.where(accept, log_k_prop, log_k_cur)
            # local log-scale random walk
            eps = rng.normal(0.0, state.step_sizes.setdefault(name, _INITIAL_LINK_STEP),
                             size=cur.shape)
            prop = cur * np.exp(eps)
            log_ratio = np.log(prop) - np.log(cur)
            delta = (
                (cj + 1.0) * (np.log(a_j + prop) - log_j_cur)
                + (ck + 1.0) * (np.log(a_k + prop) - log_k_cur)
                + (c_jk - 1.0) * log_ratio
                + (prop - cur) * t_sum
                + log_ratio  # log-scale proposal Jacobian
            )
            accept = (np.log(rng.random(cur.shape[0])) < delta) & (prop > 0.0)
        counter = state.accept.setdefault(name, [0, 0])
        counter[0] += int(accept.sum())
        counter[1] += accept.size
        return np.where(accept, prop, cur)

    # -- block V: anchors ----------------------------------------------------
    def _update_anchors(self, state: ChainState, rng):
        state.w = np.asarray(self.fam.sample_w(*_anchor_params(state), rng), dtype=float)

    # -- block III: edge intensities and their links ----------------------------
    def _edge_terms(self, state: ChainState, s_star, c_star) -> _EdgeTerms:
        """The edge block's terms of the current state, from s*, c* as given.

        The sweep builds them once after the anchors; ``_commit_pair`` keeps
        them current.
        """
        fam, edges, links = self.fam, state.edges, state.links
        theta_w = np.asarray(fam.theta(state.w), dtype=float)
        m_w_total = float(np.sum(fam.cumulant(state.w)))
        h_stat = [fam.h_summary(s_star[:, node]) for node in range(self.p)]
        b_stat = [fam.b_summary(links[:, e]) for e in range(edges.size)]
        return _EdgeTerms(
            theta_w, m_w_total,
            [fam.log_h_sum(h_stat[node], c_star[node]) for node in range(self.p)],
            [fam.log_b_sum(stat, float(c)) for stat, c in zip(b_stat, edges)],
            [self.prior.log_edge_prior(fam, float(c)) for c in edges],
            h_stat, b_stat, fam.h_summary(np.array([state.s0])),
        )

    def _pair_candidate(self, state: ChainState, j, k, s_star, c_star, new_c, new_s, terms,
                        link_level=True, lp_new=None):
        """Log target ratio of moving edge (j, k) and its links to (new_c, new_s),
        with the candidate's sums; ``lp_new`` is its log edge prior if known.

        Such a move changes only the node levels j and k, the pair's link
        level and its edge prior.  Each node adds
        sum_i [log h(s*', c*') - log h(s*, c*)] + theta(y)·dS - dc·sum M(y),
        where the Jacobian cancels and theta(y), M(y) are the kernel's.
        With ``link_level`` the link level adds
        sum_i [log b(S', c') - log b(S, c)] + theta(w)·dS - dc·sum M(w), as for
        a move that keeps or rescales the links.  Only the candidate side is
        evaluated; the current side comes from ``terms``.  ``new_s=None``
        holds the links fixed: the sums come from the stored summaries, with
        no array arithmetic, and each dot product is the 0.0 it would be.

        Returns (ratio, ((log h sum, h summary) of node j, of node k,
        (log b sum, b summary) or None without the link level, log edge
        prior, dS or None)); (-inf, None) outside the support.
        """
        fam, col = self.fam, self.column[j, k]
        if lp_new is None:
            lp_new = self.prior.log_edge_prior(fam, new_c)
        if not math.isfinite(lp_new) or (fam.kind is FamilyKind.BETA and (
                (state.links[:, col] if new_s is None else new_s) > new_c).any()):
            return _NEG_INF, None
        d_c = new_c - float(state.edges[col])
        total = lp_new - terms.lp_pair[col]
        if new_s is None:
            d_s = None
            stat_j, stat_k, dot_j, dot_k = terms.h_stat[j], terms.h_stat[k], 0.0, 0.0
        else:
            d_s = new_s - state.links[:, col]
            stat_j = fam.h_summary(s_star[:, j] + d_s)
            dot_j = float(self.theta_y_col[j] @ d_s)
            stat_k = fam.h_summary(s_star[:, k] + d_s)
            dot_k = float(self.theta_y_col[k] @ d_s)
        h_j = fam.log_h_sum(stat_j, c_star[j] + d_c)
        total += (h_j - terms.h_node[j]) + dot_j - d_c * self.m_y_node[j]
        h_k = fam.log_h_sum(stat_k, c_star[k] + d_c)
        total += (h_k - terms.h_node[k]) + dot_k - d_c * self.m_y_node[k]
        b_new = None
        if link_level:
            if d_s is None:
                stat, dot = terms.b_stat[col], 0.0
            else:
                stat, dot = fam.b_summary(new_s), float(terms.theta_w @ d_s)
            b = fam.log_b_sum(stat, new_c)
            total += (b - terms.b_pair[col]) + dot - d_c * terms.m_w_total
            b_new = (b, stat)
        return total, ((h_j, stat_j), (h_k, stat_k), b_new, lp_new, d_s)

    def _commit_pair(self, state: ChainState, j, k, s_star, c_star, new_c, new_s, terms,
                     cand):
        """Write edge (j, k) and its links; keep s*, c* and ``terms`` current.

        ``new_s=None`` keeps the links.  s*, c* take the candidate's own
        additions, so the candidate sums and summaries ``cand`` (from
        ``_pair_candidate``) stored into ``terms`` are the values a
        recomputation would give; a candidate without the link level (the
        refresh) has its sum computed here.
        """
        col = self.column[j, k]
        (h_j, stat_j), (h_k, stat_k), b_new, lp_new, d_s = cand
        d_c = new_c - float(state.edges[col])
        state.edges[col] = new_c
        c_star[j] += d_c
        c_star[k] += d_c
        if new_s is not None:
            state.links[:, col] = new_s
            s_star[:, j] += d_s
            s_star[:, k] += d_s
        if b_new is None:
            stat = self.fam.b_summary(state.links[:, col])
            b_new = (self.fam.log_b_sum(stat, new_c), stat)
        terms.h_node[j], terms.h_node[k] = h_j, h_k
        terms.h_stat[j], terms.h_stat[k] = stat_j, stat_k
        terms.b_pair[col], terms.b_stat[col] = b_new
        terms.lp_pair[col] = lp_new

    # The family's proposal for the edge intensity in column ``col``, with its log Jacobian.
    def _integer_step(self, state: ChainState, name, col, rng):
        return float(state.edges[col]) + (1.0 if rng.random() < 0.5 else -1.0), 0.0

    def _log_step(self, state: ChainState, name, col, rng):
        cur = float(state.edges[col])
        prop = cur * math.exp(rng.normal(0.0, state.step_sizes.setdefault(name, _INITIAL_STEP)))
        return prop, math.log(prop) - math.log(cur)

    def _update_edge(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Random walk on the intensity alone; the links are held fixed.
        name = self.names[j, k].edge
        new_c, jac = self._propose_intensity(state, name, self.column[j, k], rng)
        ratio, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, None, terms)
        if _metropolis(state, name, ratio + jac, rng):
            self._commit_pair(state, j, k, s_star, c_star, new_c, None, terms, cand)

    # -- block refresh of one edge intensity and its link values ----------------
    def _update_edge_refresh(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Propose a new intensity together with a full redraw of the pair's
        # links from their conditional prior given the anchors; the link
        # density factors cancel, so acceptance rests on the node-level
        # terms alone.  This decouples the intensity from the tight
        # information its current links carry about it.  The ratio is -inf
        # outside the edge prior's support, where no links are drawn (the
        # draw uses the rng), and where a gamma link draw underflows to 0.
        fam = self.fam
        name = self.names[j, k].refresh
        new_c, jac = self._propose_intensity(state, name, self.column[j, k], rng)
        ratio, cand, new_s = _NEG_INF, None, None
        lp_new = self.prior.log_edge_prior(fam, new_c)
        if math.isfinite(lp_new):
            new_s = fam.sample_link(state.w, new_c, rng)  # float, shape (n,)
            if fam.kind is not FamilyKind.INVERSE_GAMMA or (new_s > 0.0).all():
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, new_s,
                                                       terms, link_level=False, lp_new=lp_new)
                    ratio += jac
        if _metropolis(state, name, ratio, rng):
            self._commit_pair(state, j, k, s_star, c_star, new_c, new_s, terms, cand)

    # -- joint rescale of one edge intensity and its link values ---------------
    def _update_edge_scale(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Deterministic scaling move (c, S_1..S_n) -> e^eps * (c, S_1..S_n);
        # breaks the ridge between an intensity and its links.
        name = self.names[j, k].scale
        eps = rng.normal(0.0, state.step_sizes.setdefault(name, _INITIAL_STEP))
        factor = math.exp(eps)
        col = self.column[j, k]
        new_c = float(state.edges[col]) * factor
        new_s = state.links[:, col] * factor
        ratio, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, new_s, terms)
        if _metropolis(state, name, ratio + (self.n + 1.0) * eps, rng):
            self._commit_pair(state, j, k, s_star, c_star, new_c, new_s, terms, cand)

    # -- block II: c0 ----------------------------------------------------------
    def _log_target_c0(self, c0, s0, terms, edge_rowsum) -> float:
        """Log full conditional of c0 up to a constant; -inf outside the
        support.  c0 enters the node levels through c* alone, so the node
        summaries of ``terms`` give every log h sum."""
        fam, prior = self.fam, self.prior
        if c0 <= 0.0 or not fam.hyper_ok(s0, c0):
            return _NEG_INF
        lp = prior.log_c0_prior(c0) + prior.s0_prior.logpdf(s0, c0)
        c_star = (c0 + edge_rowsum).tolist()
        h_sum = sum(fam.log_h_sum(stat, c) for stat, c in zip(terms.h_stat, c_star))
        return (h_sum + self.n * fam.log_h_sum(terms.h_s0, c0)
                - c0 * (self.m_y_total + terms.m_w_total) + lp)

    def _update_c0(self, state: ChainState, rng, terms, edge_rowsum):
        cur = state.c0
        prop = cur * math.exp(rng.normal(0.0, state.step_sizes.setdefault("c0", _INITIAL_STEP)))
        lo = self._log_target_c0(prop, state.s0, terms, edge_rowsum)
        # outside the support (beta: c0 <= s0) the ratio is -inf whatever lc is
        lc = self._log_target_c0(cur, state.s0, terms, edge_rowsum) if lo != _NEG_INF else 0.0
        if _metropolis(state, "c0", lo - lc + math.log(prop) - math.log(cur), rng):
            state.c0 = prop

    # -- block I: s0 -------------------------------------------------------------
    def _log_target_s0(self, s0, c0, c_star, link_rowsum, theta_w_total) -> float:
        """Log full conditional of s0 up to a constant; -inf outside the
        support.  ``link_rowsum`` is s* - s0."""
        fam = self.fam
        if not fam.hyper_ok(s0, c0):
            return _NEG_INF
        lp = self.prior.s0_prior.logpdf(s0, c0)
        h_sum = float(np.sum(fam.log_h(s0 + link_rowsum, c_star[None, :])))
        theta_total = self.theta_y_total + theta_w_total
        return h_sum + self.n * float(fam.log_h(s0, c0)) + s0 * theta_total + lp

    def _update_s0(self, state: ChainState, rng, link_rowsum, c_star, theta_w_total):
        cur = state.s0
        step = state.step_sizes.setdefault("s0", _INITIAL_STEP)
        prop, jac = self.prior.s0_prior.propose(cur, state.c0, step, rng)
        args = (state.c0, c_star, link_rowsum, theta_w_total)
        lo = self._log_target_s0(prop, *args)
        lc = self._log_target_s0(cur, *args) if lo != _NEG_INF else 0.0
        if _metropolis(state, "s0", lo - lc + jac, rng):
            state.s0 = prop

    # -- full systematic scan ------------------------------------------------------
    def sweep(self, state: ChainState, rng):
        s_star, theta_w, c_star = self._link_block_terms(state)
        for j, k in self.pairs:
            self._update_links_pair(state, j, k, rng, s_star, theta_w, c_star)
        self._update_anchors(state, rng)

        terms = self._edge_terms(state, s_star, c_star)
        for j, k in self.pairs:
            for move in self._edge_moves:
                move(state, j, k, rng, s_star, c_star, terms)

        edge_rowsum = node_sums(state.edges, self.p)
        self._update_c0(state, rng, terms, edge_rowsum)

        c_star = state.c0 + edge_rowsum
        link_rowsum = s_star - state.s0
        self._update_s0(state, rng, link_rowsum, c_star, float(np.sum(terms.theta_w)))

        return state

    def log_posterior(self, state: ChainState) -> float:
        return log_posterior(state, self.data, self.prior)  # the module-level function


# ---------------------------------------------------------------------------
# Public single-site operations
# ---------------------------------------------------------------------------

def sample_link_conditional(state: ChainState, data: Dataset, i: int, j: int, k: int,
                            rng) -> float:
    """Redraw the link value of replicate i on edge (j, k) by the sampler's link draw.

    Exact for normal (completed square) links, by enumeration for binomial,
    Poisson and negative-binomial links; inverse-gamma links take an
    independence step from the link prior and then a log-scale random walk.
    """
    kernel, *terms = _checked_kernel(state, data, link_terms=True)
    j, k, col = kernel._lookup_pair(state, j, k, positive=True)
    kernel._update_links_pair(state, j, k, rng, *terms, sel=np.array([i]))
    return float(state.links[i, col])


def _anchor_params(state: ChainState):
    """Parameters of the anchors' conjugate conditionals: s0 plus each
    replicate's link total, added pair after pair, and c0 plus the edge total."""
    link_total = state.links[:, 0].copy()
    for e in range(1, state.links.shape[1]):
        link_total += state.links[:, e]
    return state.s0 + link_total, state.c0 + float(state.edges.sum())


def sample_w_conditional(state: ChainState, data: Dataset, i: int, rng) -> float:
    """Exact conjugate draw of the anchor of replicate i given the rest."""
    fam = _checked_kernel(state, data).fam  # the kernel rejects the gsst family
    s_i, c_i = _anchor_params(state)
    value = float(fam.sample_w(float(s_i[i]), c_i, rng))
    state.w[i] = value
    return value


def link_conditional_pmf(state: ChainState, data: Dataset, i: int, j: int, k: int):
    """Normalized enumeration mass of a discrete link conditional.

    Returns (values, probabilities); available for the Poisson, binomial and
    negative-binomial link families.
    """
    fam = get_family(state.family)
    if not fam.discrete_links:
        raise DomainError(f"{fam.kind.value}: link conditional is not discrete")
    kernel, *block_terms = _checked_kernel(state, data, link_terms=True)
    j, k, col = kernel._lookup_pair(state, j, k, positive=True)
    c_jk = float(state.edges[col])
    sel = np.array([i])
    _, *terms = kernel._pair_terms(state, j, k, *block_terms, sel)
    values, g, g_max = kernel._enumerate_links(j, k, c_jk, *terms, sel)
    probs = np.exp(g[:, 0] - g_max[0])
    probs /= probs.sum()
    return values, probs


def link_conditional_normal_coeffs(state: ChainState, data: Dataset, i: int, j: int, k: int):
    """Completed-square (mean, sd) of a normal-family link conditional, from
    the sampler's own inputs."""
    fam = get_family(state.family)
    if fam.kind is not FamilyKind.NORMAL:
        raise DomainError("completed-square coefficients exist for the normal family only")
    kernel, *block_terms = _checked_kernel(state, data, link_terms=True)
    j, k, col = kernel._lookup_pair(state, j, k, positive=True)
    _, *terms = kernel._pair_terms(state, j, k, *block_terms, np.array([i]))
    mean, sd = _normal_link_moments(float(state.edges[col]), *terms)
    return float(mean[0]), float(sd)


def gibbs_sweep(state: ChainState, data: Dataset, prior: PriorConfig, rng) -> ChainState:
    """One systematic scan over links, anchors, edges, c0 and s0 in place;
    stores the log posterior of the new state in ``state.log_posterior``.
    A state with a negative or non-finite step size, latents not of the
    data's shape, outside the prior's support or with latents outside theirs
    raises ``DomainError`` before any draw; a block without a step size
    starts at its initial one."""
    bad = {name: step for name, step in state.step_sizes.items() if not 0.0 <= step < math.inf}
    if bad:
        raise DomainError(f"gibbs_sweep requires finite, non-negative step sizes; got {bad}")
    kernel = _checked_kernel(state, data, prior)
    if not math.isfinite(prior.log_prior(kernel.fam, state.s0, state.c0, state.edges)):
        raise DomainError("gibbs_sweep requires a state inside the prior's support")
    if not math.isfinite(kernel.log_posterior(state)):  # the prior is finite: a latent is out
        raise DomainError("gibbs_sweep requires latents inside their support, given a "
                          "state inside the prior's support")
    kernel.sweep(state, rng)
    state.log_posterior = kernel.log_posterior(state)
    return state


def log_posterior(state: ChainState, data: Dataset, prior: PriorConfig) -> float:
    """Log joint of data, latents and parameters under the priors;
    ``DomainError`` if the state's latents do not have the data's shape."""
    _check_latents(state, data)
    fam = get_family(state.family)
    lik = log_joint_likelihood_arrays(
        fam, data.y, state.w, state.links, state.s0, state.c0, state.edges
    )
    return lik + prior.log_prior(fam, state.s0, state.c0, state.edges)


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

def initial_state(family, data: Dataset, prior: PriorConfig, chain_index: int,
                  rng) -> ChainState:
    """Overdispersed chain start: prior-mean parameters (jittered for chains
    past the first) with latents drawn from the generative construction."""
    fam = get_family(family)
    if fam.kind is FamilyKind.GSST:
        raise DomainError("posterior inference is not available for the gsst family")
    n, p = data.y.shape

    c0 = prior.ac / prior.bc
    edge0 = max(1.0, round(prior.d0)) if fam.integer_intensity else prior.a0 / prior.b0
    if chain_index == 0:
        s0 = prior.s0_prior.start(c0)
    else:
        c0 *= _jitter(rng)
        s0 = prior.s0_prior.start(c0, rng)
        if fam.integer_intensity:
            edge0 = max(1.0, round(edge0 * _jitter(rng)))
        else:
            edge0 *= _jitter(rng)

    edges = np.full(p * (p - 1) // 2, float(edge0))
    latents = draw_latents(fam, s0, c0, edges, n, rng)
    return ChainState(family=fam.kind, s0=float(s0), c0=float(c0), edges=edges, w=latents.w,
                      links=latents.links)


def _adapt_block_steps(state: ChainState, window_start: dict, round_index: int):
    gain = 1.0 / math.sqrt(round_index)
    for name, step in state.step_sizes.items():
        if name.startswith("refresh_"):
            continue  # acceptance of block refreshes is not step-controlled
        acc, tries = state.accept.get(name, [0, 0])
        a0, t0 = window_start.get(name, (0, 0))
        d_tries = tries - t0
        if d_tries <= 0:
            continue
        rate = (acc - a0) / d_tries
        state.step_sizes[name] = step * math.exp((rate - _TARGET_ACCEPT) * gain)
    window_start.clear()
    window_start.update({n: tuple(c) for n, c in state.accept.items()})


@dataclass(eq=False)
class PosteriorSamples:
    """Retained post-burn-in draws of all parameters, by chain.

    ``edges`` is indexed (chain, draw, pair) following ``pairs``; latents are
    kept only when the run was configured to retain them.
    """

    family: FamilyKind
    node_names: list[str]
    pairs: list[tuple[int, int]]
    s0: np.ndarray
    c0: np.ndarray
    edges: np.ndarray
    w: np.ndarray | None
    links: np.ndarray | None
    meta: dict

    @property
    def chains(self) -> int:
        return self.s0.shape[0]

    @property
    def retained(self) -> int:
        return self.s0.shape[1]

    def parameter_names(self) -> list[str]:
        return ["s0", "c0"] + [_edge_label(j, k) for j, k in self.pairs]

    def parameter_array(self, name: str) -> np.ndarray:
        """Per-chain draws of one parameter, shape (chains, retained)."""
        if name == "s0":
            return self.s0
        if name == "c0":
            return self.c0
        for idx, (j, k) in enumerate(self.pairs):
            if name == _edge_label(j, k):
                return self.edges[:, :, idx]
        raise KeyError(f"unknown parameter {name!r}")

    def pooled(self, name: str) -> np.ndarray:
        return self.parameter_array(name).reshape(-1)

    def edge_matrix_mean(self) -> np.ndarray:
        """Posterior-mean edge intensities as a symmetric matrix."""
        p = len(self.node_names)
        out = np.zeros((p, p))
        out[tuple(np.array(self.pairs).T)] = self.edges.reshape(-1, len(self.pairs)).mean(axis=0)
        return out + out.T


@dataclass(frozen=True)
class _ChainRun:
    """What the chains of one ``run_chains`` call share: the kernel, the chain
    controls, the per-chain seeds and the samples, whose row m chain m owns."""

    kernel: _SweepKernel
    config: MCMCConfig
    seeds: list
    samples: PosteriorSamples


def _state_digest(state: ChainState) -> str:
    """Short SHA-256 of a state's s0, c0, edges, anchors and links."""
    h = hashlib.sha256()
    for a in (state.s0, state.c0, state.edges, state.w, state.links):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _run_chain(run: _ChainRun, m: int) -> tuple[dict, str]:
    """Run chain m and write its retained draws into row m of the samples.

    Returns the chain's stationary acceptance rates and the digest of its
    final state; a failure raises ``ChainError`` with the chain and sweep.
    """
    kernel, config, out = run.kernel, run.config, run.samples
    rng = np.random.default_rng(run.seeds[m])
    t = 0
    try:
        state = initial_state(kernel.fam, kernel.data, kernel.prior, m, rng)
        window_start: dict = {}
        adapt_round = 0
        keep_idx = 0
        for t in range(1, config.iterations + 1):
            kernel.sweep(state, rng)
            if t <= config.burn_in:
                if t % config.adapt_window == 0:
                    adapt_round += 1
                    _adapt_block_steps(state, window_start, adapt_round)
                if t == config.burn_in:
                    state.accept = {}
            elif (t - config.burn_in) % config.thinning == 0:
                out.s0[m, keep_idx] = state.s0
                out.c0[m, keep_idx] = state.c0
                out.edges[m, keep_idx] = state.edges
                if config.keep_latents:
                    out.w[m, keep_idx] = state.w
                    out.links[m, keep_idx] = state.links
                keep_idx += 1
    except Exception as exc:  # noqa: BLE001 - re-raise with chain context
        raise ChainError(
            f"chain {m} failed at sweep {t}: {exc}", chain=m, sweep=t
        ) from exc
    rates = {
        name: (c[0] / c[1] if c[1] else float("nan"))
        for name, c in sorted(state.accept.items())
    }
    return rates, _state_digest(state)


def _chain_worker(run: _ChainRun, chains, conn) -> None:
    """Body of a forked worker: run the given chains in order and send each
    one's (result, None), or (None, (message, chain, sweep, cause)) for the
    first that fails.  The cause is sent only if it survives a pickle round
    trip, so that the parent can always read what is sent."""
    for m in chains:
        try:
            conn.send((_run_chain(run, m), None))
        except ChainError as err:
            cause = err.__cause__
            try:
                pickle.loads(pickle.dumps(cause))
            except Exception:  # noqa: BLE001 - an unpicklable cause stays behind
                cause = None
            conn.send((None, (str(err), err.chain, err.sweep, cause)))
            return


def _worker_count(config: MCMCConfig) -> int:
    """Processes to run the chains in; 1 means the calling process."""
    if config.workers is not None:
        wanted = config.workers
    elif hasattr(os, "sched_getaffinity"):
        wanted = len(os.sched_getaffinity(0))
    else:
        wanted = os.cpu_count() or 1
    workers = min(wanted, config.chains)
    if workers > 1 and ("fork" not in multiprocessing.get_all_start_methods()
                        or multiprocessing.current_process().daemon):
        return 1  # no fork, or a daemonic process, which may not have children
    return workers


def _run_all(run: _ChainRun, workers: int) -> list:
    """(rates, digest) of every chain, in chain order.

    With more than one worker, worker i runs chains i, i + workers, ... in a
    forked process that inherits the run and writes its draws into the
    shared outputs.  Results are read in chain order, so the lowest-index
    failure is raised; a worker that dies fails its next chain.
    """
    chains = range(len(run.seeds))
    if workers == 1:
        return [_run_chain(run, m) for m in chains]
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_chain_worker, args=(run, chains[i::workers], writer),
                               daemon=True)
            proc.start()
            writer.close()  # the worker holds the only write end: its death ends the pipe
            procs.append(proc)
            conns.append(reader)
        results = []
        for m in chains:
            try:
                result, failure = conns[m % workers].recv()
            except EOFError:
                proc = procs[m % workers]
                proc.join()
                raise ChainError(f"chain {m} failed: its worker process exited with code "
                                 f"{proc.exitcode}", chain=m) from None
            if failure is not None:
                message, chain, sweep, cause = failure
                raise ChainError(message, chain=chain, sweep=sweep) from cause
            results.append(result)
        return results
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def _shared_empty(shape) -> np.ndarray:
    """A float array in anonymous shared memory, so that forked workers
    write into the caller's pages."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count, 1) * np.dtype(float).itemsize)
    return np.frombuffer(buffer, dtype=float, count=count).reshape(shape)


def run_chains(data: Dataset, family, prior: PriorConfig, config: MCMCConfig) -> PosteriorSamples:
    """Run independent chains from overdispersed starts; fully reproducible.

    Burn-in sweeps adapt the random-walk scales toward a 0.44 acceptance
    rate; adaptation is frozen afterwards and acceptance counters reset so
    reported rates describe the stationary phase.  Any chain failure aborts
    the run with the chain index and sweep number attached.

    Each chain draws from its own ``SeedSequence.spawn`` stream, so the
    chains run in parallel forked processes (``config.workers``) with the
    same draws, bit for bit, as in the calling process.  ``meta`` carries
    each chain's acceptance rates and a digest of its final state.
    """
    fam = get_family(family)
    data.validate_support(fam)
    kernel = _SweepKernel(fam, data, prior)  # checks the prior's s0 form
    n, p = data.y.shape
    pairs = kernel.pairs
    rows = (config.chains, config.retained_per_chain)
    latents = config.keep_latents
    samples = PosteriorSamples(
        family=fam.kind,
        node_names=list(data.node_names),
        pairs=pairs,
        s0=_shared_empty(rows),
        c0=_shared_empty(rows),
        edges=_shared_empty((*rows, len(pairs))),
        w=_shared_empty((*rows, n)) if latents else None,
        links=_shared_empty((*rows, n, len(pairs))) if latents else None,
        meta={},
    )
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    results = _run_all(_ChainRun(kernel, config, seeds, samples), _worker_count(config))
    samples.meta = {
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "thinning": config.thinning,
        "chains": config.chains,
        "seed": config.seed,
        "n": n,
        "p": p,
        "acceptance": [rates for rates, _ in results],
        "state_digest": [digest for _, digest in results],
    }
    return samples


# ---------------------------------------------------------------------------
# Summaries and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSummary:
    mean: float
    sd: float
    q025: float
    q975: float


def summarize(samples: PosteriorSamples) -> dict[str, ParamSummary]:
    """Pooled-chain posterior summaries with interpolated quantiles."""
    out = {}
    for name in samples.parameter_names():
        draws = samples.pooled(name)
        if draws.size == 0:
            raise DomainError("cannot summarize empty samples")
        sd = float(draws.std(ddof=1)) if draws.size > 1 else 0.0
        lo, hi = np.quantile(draws, [0.025, 0.975])
        out[name] = ParamSummary(float(draws.mean()), sd, float(lo), float(hi))
    return out


def split_chain_psrf(samples: PosteriorSamples) -> dict[str, float]:
    """Split-chain potential scale reduction factor per parameter.

    Each chain is halved, giving 2 * chains pieces; values close to 1
    indicate convergence (pass threshold 1.1).
    """
    out = {}
    for name in samples.parameter_names():
        arr = samples.parameter_array(name)
        half = arr.shape[1] // 2
        if half < 2:
            raise DomainError("need at least 4 retained draws per chain for the PSRF")
        pieces = np.concatenate([arr[:, :half], arr[:, half: 2 * half]], axis=0)
        within = pieces.var(axis=1, ddof=1).mean()
        if within == 0.0:
            out[name] = 1.0
            continue
        between = half * pieces.mean(axis=1).var(ddof=1)
        pooled = (half - 1.0) / half * within + between / half
        out[name] = float(np.sqrt(pooled / within))
    return out


def frozen_parameters(samples: PosteriorSamples) -> list[str]:
    """Parameters whose retained draws never change within any chain.

    ``split_chain_psrf`` reads such a parameter as 1.0, as if converged; a
    chain needs two retained draws before it can be seen not to move.
    """
    if samples.retained < 2:
        return []
    return [name for name in samples.parameter_names()
            if not np.any(np.ptp(samples.parameter_array(name), axis=1))]


def predictive_mse(samples: PosteriorSamples, data: Dataset, rng) -> float:
    """Posterior mean of the predictive mean squared error.

    For every retained draw, one replicate table is simulated from the
    node-level density under that draw's parameters and latents, and the
    squared error against the observed table is averaged.
    """
    if samples.links is None:
        raise DomainError("predictive_mse requires samples retained with latents")
    if samples.retained == 0:
        raise DomainError("predictive_mse requires at least one retained draw")
    fitted = (samples.links.shape[2], len(samples.node_names))
    if data.y.shape != fitted:
        raise DomainError(f"data of shape (n, p) = {data.y.shape} do not match the samples, "
                          f"fitted at {fitted}")
    rng = _as_rng(rng)
    fam = get_family(samples.family)
    total = 0.0
    for m in range(samples.chains):
        for t in range(samples.retained):
            s_star = samples.s0[m, t] + node_sums(samples.links[m, t], data.p)
            c_star = samples.c0[m, t] + node_sums(samples.edges[m, t], data.p)
            yf = np.asarray(fam.sample_w(s_star, c_star[None, :], rng), dtype=float)
            total += float(np.mean((yf - data.y) ** 2))
    return total / (samples.chains * samples.retained)
