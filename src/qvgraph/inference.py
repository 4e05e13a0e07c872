"""Bayesian posterior inference for the hierarchical graphical model.

The sampler augments the observations with the per-replicate anchors and link
values and cycles through five blocks in a fixed order: all link values, all
anchors, every edge intensity, the global concentration c0 and the global
location s0.  Links and anchors are conditionally independent across
replicates and are updated as vectors; anchors and the normal-family links
have exact conjugate draws, discrete links are drawn by exact enumeration,
the continuous gamma-type links and all top-level parameters use random-walk
Metropolis steps on transformed scales with step sizes adapted toward a 0.44
acceptance rate during burn-in only.

Enumeration builds each replicate's log-mass on a grid anchored at 0 as a
cumulative sum of the exact log-ratios of successive masses (the families'
``log_h_step``/``log_b_step``), so no log-gamma is evaluated.  Binomial links
use the whole support 0..c_jk; Poisson and negative-binomial links start from
a short grid that doubles until a geometric bound on the cut-off tail falls
below ``MCMCConfig.enum_tail_tol``, up to ``MCMCConfig.max_enum_states``.

The edge moves evaluate only their candidate.  After the anchors the sweep
computes, for the current state, each node's sum of log h, each pair's sum of
log b and each edge-prior term once; an accepted move stores its candidate's
sums in their place, so the current side of a ratio is never recomputed.
The sums come from the families' summaries of the node sums and link values
(``Family.h_summary``/``b_summary``), which the sweep keeps with them, so the
intensity-only moves (the edge random walk and c0) read cached summaries:
O(1) per candidate for the normal, gamma and inverse-gamma families, O(n) for
beta and inverse beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import (
    ChainError,
    DomainError,
    EnumerationOverflowError,
)
from .families import Family, FamilyKind, get_family
from .model import Dataset, ModelParams, log_joint_likelihood_arrays

__all__ = [
    "NormalS0Prior",
    "GammaS0Prior",
    "UniformOnC0S0Prior",
    "PriorConfig",
    "StepSizes",
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
    "summarize",
    "predictive_mse",
    "link_conditional_pmf",
    "link_conditional_normal_coeffs",
]

_NEG_INF = float("-inf")


def _gamma_logpdf(x: float, a: float, b: float) -> float:
    """Log density of a gamma with shape a and rate b."""
    if x <= 0.0 or not math.isfinite(x):
        return _NEG_INF
    return a * math.log(b) - special.gammaln(a) + (a - 1.0) * math.log(x) - b * x


def _poisson_logpmf(k: float, lam: float) -> float:
    if k < 0 or k != round(k):
        return _NEG_INF
    return k * math.log(lam) - special.gammaln(k + 1.0) - lam


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalS0Prior:
    """Normal prior on s0 with mean mu and precision tau."""

    mu: float = 0.0
    tau: float = 0.01

    def logpdf(self, s0: float, c0: float) -> float:
        d = s0 - self.mu
        return 0.5 * (math.log(self.tau) - math.log(2.0 * math.pi)) - 0.5 * self.tau * d * d


@dataclass(frozen=True)
class GammaS0Prior:
    """Gamma prior on a positive s0 with shape a and rate b."""

    a: float = 0.01
    b: float = 0.01

    def logpdf(self, s0: float, c0: float) -> float:
        return _gamma_logpdf(s0, self.a, self.b)


@dataclass(frozen=True)
class UniformOnC0S0Prior:
    """Uniform prior for s0 on (0, c0); density 1/c0 inside the interval."""

    def logpdf(self, s0: float, c0: float) -> float:
        if 0.0 < s0 < c0:
            return -math.log(c0)
        return _NEG_INF


_S0_PRIOR_FORMS = {
    FamilyKind.NORMAL: NormalS0Prior,
    FamilyKind.GSST: NormalS0Prior,
    FamilyKind.GAMMA: GammaS0Prior,
    FamilyKind.INVERSE_GAMMA: GammaS0Prior,
    FamilyKind.INVERSE_BETA: GammaS0Prior,
    FamilyKind.BETA: UniformOnC0S0Prior,
}


@dataclass(frozen=True)
class PriorConfig:
    """Hyper-prior constants.

    Continuous edge intensities get a Ga(a0, b0) prior; integer intensities
    (binomial and negative-binomial link families) get a Po(d0) prior
    restricted to positive values.  c0 is Ga(ac, bc) in every family and the
    s0 prior takes the family-matched form.
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
        sp = self.s0_prior
        if isinstance(sp, NormalS0Prior) and not sp.tau > 0.0:
            raise DomainError("s0 prior precision tau must be strictly positive")
        if isinstance(sp, GammaS0Prior) and not (sp.a > 0.0 and sp.b > 0.0):
            raise DomainError("s0 prior shape and rate must be strictly positive")

    @classmethod
    def default_for(cls, family, **kwargs) -> "PriorConfig":
        kind = get_family(family).kind
        form = _S0_PRIOR_FORMS[kind]
        return cls(s0_prior=form(), **kwargs)

    def validate_for(self, family) -> None:
        kind = get_family(family).kind
        expected = _S0_PRIOR_FORMS[kind]
        if not isinstance(self.s0_prior, expected):
            raise DomainError(
                f"s0 prior form {type(self.s0_prior).__name__} does not match the "
                f"{kind.value} family (expected {expected.__name__})"
            )

    def log_edge_prior(self, fam: Family, c: float) -> float:
        if fam.integer_intensity:
            if c < 1:
                return _NEG_INF  # intensities are kept strictly positive
            return _poisson_logpmf(c, self.d0)
        return _gamma_logpdf(c, self.a0, self.b0)

    def log_c0_prior(self, c0: float) -> float:
        return _gamma_logpdf(c0, self.ac, self.bc)

    def log_prior(self, fam: Family, s0: float, c0: float, edges: np.ndarray) -> float:
        total = self.log_c0_prior(c0) + self.s0_prior.logpdf(s0, c0)
        p = edges.shape[0]
        for j in range(p):
            for k in range(j + 1, p):
                total += self.log_edge_prior(fam, float(edges[j, k]))
        return total


# ---------------------------------------------------------------------------
# Chain configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSizes:
    """Initial random-walk scales per block (adapted during burn-in)."""

    s0: float = 0.5
    c0: float = 0.5
    edge: float = 0.5
    link: float = 0.8


@dataclass(frozen=True)
class MCMCConfig:
    iterations: int = 105_000
    burn_in: int = 15_000
    thinning: int = 40
    chains: int = 2
    seed: int = 0
    step_sizes: StepSizes = field(default_factory=StepSizes)
    enum_tail_tol: float = 1e-12
    adapt_window: int = 50
    max_enum_states: int = 1_000_000
    keep_latents: bool = True
    edge_moves: int = 3

    def __post_init__(self):
        if not self.burn_in < self.iterations:
            raise DomainError("burn_in must be smaller than iterations")
        if self.thinning < 1:
            raise DomainError("thinning must be >= 1")
        if self.chains < 1:
            raise DomainError("at least one chain is required")
        if self.adapt_window < 1:
            raise DomainError("adapt_window must be >= 1")
        if self.edge_moves < 1:
            raise DomainError("edge_moves must be >= 1")
        for name in ("s0", "c0", "edge", "link"):
            if not getattr(self.step_sizes, name) > 0.0:
                raise DomainError(f"step size {name} must be strictly positive")

    @property
    def retained_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thinning


@dataclass
class ChainState:
    """Current parameters and latents of one chain.

    ``accept`` maps block names to cumulative [accepted, attempted] counts;
    ``step_sizes`` holds the current per-block random-walk scales.
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

    @property
    def params(self) -> ModelParams:
        return ModelParams(
            family=self.family, s0=self.s0, c0=self.c0, edge_intensity=self.edges.copy()
        )

    def counter(self, name: str) -> list:
        return self.accept.setdefault(name, [0, 0])


def _pairs(p: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(p) for k in range(j + 1, p)]


def _edge_label(j: int, k: int) -> str:
    return f"c_{j + 1}_{k + 1}"


# ---------------------------------------------------------------------------
# Data summaries shared by the conditionals
# ---------------------------------------------------------------------------

class _Precomp:
    """Per-dataset quantities reused across sweeps."""

    def __init__(self, fam: Family, data: Dataset):
        self.fam = fam
        self.y = data.y
        self.n, self.p = data.y.shape
        self.theta_y = np.asarray(fam.theta(data.y), dtype=float)
        self.m_y = np.asarray(fam.cumulant(data.y), dtype=float)
        self.theta_y_total = float(self.theta_y.sum())
        self.m_y_total = float(self.m_y.sum())
        self.m_y_node = self.m_y.sum(axis=0)
        self.pairs = _pairs(self.p)


# ---------------------------------------------------------------------------
# Full conditionals for the top-level parameters
# ---------------------------------------------------------------------------

def _cond_s0_core(fam, prior, cand, c0, c_star, link_rowsum, n, theta_total) -> float:
    if not fam.hyper_ok(cand, c0):
        return _NEG_INF
    lp = prior.s0_prior.logpdf(cand, c0)
    if lp == _NEG_INF:
        return _NEG_INF
    s_star = cand + link_rowsum
    h_sum = float(np.sum(fam.log_h(s_star, c_star[None, :])))
    return h_sum + n * float(fam.log_h(cand, c0)) + cand * theta_total + lp


def _cond_c0_core(fam, prior, cand, s0, h_stat, h_s0, edge_rowsum, n, m_total) -> float:
    """``h_stat`` holds each node's ``h_summary`` of s*, ``h_s0`` the
    ``h_summary`` of the one-element array [s0]."""
    if cand <= 0.0 or not fam.hyper_ok(s0, cand):
        return _NEG_INF
    lp = prior.log_c0_prior(cand) + prior.s0_prior.logpdf(s0, cand)
    c_star = (cand + edge_rowsum).tolist()
    h_sum = sum(fam.log_h_sum(stat, c) for stat, c in zip(h_stat, c_star))
    return h_sum + n * fam.log_h_sum(h_s0, cand) - cand * m_total + lp


def log_full_conditional_s0(state: ChainState, data: Dataset, prior: PriorConfig,
                            s0_candidate: float) -> float:
    """Log full conditional of s0 (up to an additive constant); -inf outside
    the admissible region."""
    fam = get_family(state.family)
    pre = _Precomp(fam, data)
    link_rowsum = state.links.sum(axis=2)
    c_star = state.c0 + state.edges.sum(axis=1)
    theta_total = pre.theta_y_total + float(np.sum(fam.theta(state.w)))
    return _cond_s0_core(
        fam, prior, float(s0_candidate), state.c0, c_star, link_rowsum, pre.n, theta_total
    )


def log_full_conditional_c0(state: ChainState, data: Dataset, prior: PriorConfig,
                            c0_candidate: float) -> float:
    """Log full conditional of c0; -inf for nonpositive candidates (and for
    candidates not exceeding s0 in the beta family)."""
    fam = get_family(state.family)
    pre = _Precomp(fam, data)
    edge_rowsum = state.edges.sum(axis=1)
    s_star = state.s0 + state.links.sum(axis=2)
    h_stat = [fam.h_summary(s_star[:, node]) for node in range(pre.p)]
    m_total = pre.m_y_total + float(np.sum(fam.cumulant(state.w)))
    return _cond_c0_core(
        fam, prior, float(c0_candidate), state.s0, h_stat, fam.h_summary(np.array([state.s0])),
        edge_rowsum, pre.n, m_total,
    )


def log_full_conditional_cjk(state: ChainState, data: Dataset, prior: PriorConfig,
                             j: int, k: int, c_candidate: float) -> float:
    """Log full conditional of the edge intensity between nodes j and k, up to
    an additive constant: the sampler's log-ratio of the candidate against the
    current intensity, links held fixed; -inf outside the support."""
    if j == k:
        raise IndexError("edge conditional requires two distinct nodes")
    j, k = min(j, k), max(j, k)
    kernel = _SweepKernel(get_family(state.family), data, prior, MCMCConfig())
    s_star = state.s0 + state.links.sum(axis=2)
    c_star = state.c0 + state.edges.sum(axis=1)
    return kernel._pair_log_ratio(state, j, k, s_star, c_star, float(c_candidate), None,
                                  kernel._w_terms(state))


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


def _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum, g0=0.0):
    """Unnormalized log mass of a run of consecutive integer link values.

    ``values`` has shape (m,), the replicate-dependent inputs and ``g0``
    (the log mass at ``values[0]``) shape (r,) or scalar; the result has
    shape (r, m).  It is the cumulative sum of the exact log-ratios of
    successive masses, ``g(s+1) - g(s) = Dlog h(a_j+s, cj) + Dlog h(a_k+s, ck)
    + Dlog b(s, c_jk) + t_sum``, so no log-gamma is evaluated.
    """
    s = values[None, :-1]
    g = np.empty((a_j.shape[0], values.shape[0]))
    g[:, 0] = g0
    g[:, 1:] = (
        fam.log_h_step(a_j[:, None] + s, cj)
        + fam.log_h_step(a_k[:, None] + s, ck)
        + fam.log_b_step(values[:-1], c_jk)[None, :]
        + t_sum[:, None]
    )
    return np.cumsum(g, axis=1, out=g)


# First grid of an unbounded link conditional: small, so that links near 0
# (the gamma scenarios' usual case) cost few cells; larger links cost a few
# extensions of the grid.
_ENUM_START = 16


def _enum_link_grid(fam, a_j, a_k, cj, ck, c_jk, t_sum, tail_tol, cap):
    """Adaptive grid of an unbounded discrete link conditional.

    The grid is anchored at 0, so no lower tail is ever cut, and starts at
    ``_ENUM_START`` steps.  It doubles until, for every replicate, the terms
    decay past the mode and the geometric tail bound (the last term times
    r / (1 - r), with r the ratio of the last two terms) drops below
    ``tail_tol`` relative to the largest term.  Each doubling continues the
    log-ratio recurrence of ``_enum_link_logmass`` from the last value
    instead of rebuilding the grid.
    """
    values = np.arange(0.0, _ENUM_START + 1.0)
    g = _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum)
    while True:
        g_max = g.max(axis=1)
        last = g[:, -1]
        prev = g[:, -2]
        decreasing = last < prev
        ratio = np.exp(np.minimum(last - prev, -1e-12))
        bound = np.exp(last - g_max) * ratio / (1.0 - ratio)
        if np.all(decreasing) and np.all(bound < tail_tol):
            return values, g
        m = 2 * (values.shape[0] - 1)
        if m > cap:
            raise EnumerationOverflowError(
                f"link enumeration exceeded {cap} states before reaching the tail"
            )
        more = np.arange(values[-1], m + 1.0)
        g_more = _enum_link_logmass(fam, more, a_j, a_k, cj, ck, c_jk, t_sum, last)
        values = np.arange(0.0, m + 1.0)
        g = np.concatenate([g, g_more[:, 1:]], axis=1)


def _rows_softmax_sample(g, rng):
    gm = g.max(axis=1, keepdims=True)
    p = np.exp(g - gm)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    u = rng.random(g.shape[0])
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, g.shape[1] - 1)


@dataclass(slots=True)
class _EdgeTerms:
    """What the edge moves and the c0 step read of the current state besides
    s* and c*.

    theta(w) and sum M(w) are fixed in the edge block.  ``h_node[j]`` is
    sum_i log h(s*_ij, c*_j), ``b_pair[j, k]`` is sum_i log b(S_ijk, c_jk) and
    ``lp_pair[j, k]`` the log edge prior of c_jk: the current side of every
    move's ratio, which changes only when a move is accepted.  ``h_stat[j]``
    and ``b_stat[j, k]`` are the family's summaries of s*_j and S_jk that give
    those sums at any intensity; ``h_s0`` summarizes [s0] for the c0 step.
    """

    theta_w: np.ndarray
    m_w_total: float
    h_node: list
    b_pair: dict
    lp_pair: dict
    h_stat: list
    b_stat: dict
    h_s0: object


class _SweepKernel:
    """One-dataset sampler machinery shared by all chains."""

    def __init__(self, fam: Family, data: Dataset, prior: PriorConfig, config: MCMCConfig):
        if fam.kind is FamilyKind.GSST:
            raise DomainError("posterior inference is not available for the gsst family")
        prior.validate_for(fam)
        self.fam = fam
        self.data = data
        self.prior = prior
        self.config = config
        self.pre = _Precomp(fam, data)
        self.n = self.pre.n
        self.p = self.pre.p
        self.pairs = self.pre.pairs

    # -- block IV: one pair of link values across all replicates -----------
    def _link_block_terms(self, state: ChainState):
        """Node sums s*, theta(w) and node intensities c* for the links block.

        The anchors and the intensities do not change within the block, so
        theta(w) and c* are computed once; the pair updates keep s* current.
        """
        s_star = state.s0 + state.links.sum(axis=2)
        theta_w = np.asarray(self.fam.theta(state.w), dtype=float)
        c_node = [state.c0 + state.edges[:, j].sum() for j in range(self.p)]
        return s_star, theta_w, c_node

    def _pair_terms(self, state: ChainState, j, k, s_star, theta_w, c_node, sel):
        """Inputs of the link conditionals of pair (j, k) on rows ``sel``.

        Returns the current link values (a copy), the node sums a_j, a_k
        without them, the node intensities cj, ck and
        t_sum = theta(y_j) + theta(y_k) + theta(w).
        """
        cur = np.array(state.links[sel, j, k], dtype=float)  # snapshot, not a view
        t_sum = self.pre.theta_y[sel, j] + self.pre.theta_y[sel, k] + theta_w[sel]
        return cur, s_star[sel, j] - cur, s_star[sel, k] - cur, c_node[j], c_node[k], t_sum

    def _enumerate_links(self, j, k, c_jk, a_j, a_k, cj, ck, t_sum, sel):
        """Support grid and unnormalized log mass of discrete link conditionals.

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
            if count > self.config.max_enum_states:
                raise EnumerationOverflowError(
                    f"binomial link enumeration over {count + 1} states exceeds the cap"
                )
            values = np.arange(0.0, count + 1.0)
            return values, _enum_link_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum)
        return _enum_link_grid(
            fam, a_j, a_k, cj, ck, c_jk, t_sum,
            self.config.enum_tail_tol, self.config.max_enum_states,
        )

    def _update_links_pair(self, state: ChainState, j, k, rng, s_star, theta_w, c_node,
                           idx=None):
        fam = self.fam
        c_jk = float(state.edges[j, k])
        if c_jk == 0.0:
            return
        sel = slice(None) if idx is None else idx
        orig, a_j, a_k, cj, ck, t_sum = self._pair_terms(
            state, j, k, s_star, theta_w, c_node, sel
        )
        cur = orig

        if fam.kind is FamilyKind.NORMAL:
            mean, sd = _normal_link_moments(c_jk, a_j, a_k, cj, ck, t_sum)
            new = rng.normal(mean, sd)
        elif fam.discrete_links:
            values, g = self._enumerate_links(j, k, c_jk, a_j, a_k, cj, ck, t_sum, sel)
            new = values[_rows_softmax_sample(g, rng)]
        elif fam.kind is FamilyKind.INVERSE_GAMMA:
            # log h(s, c) = (c + 1) log s - const, log b(t, c) = (c - 1) log t - const
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
                step = state.step_sizes[f"link_{j + 1}_{k + 1}"]
                eps = rng.normal(0.0, step, size=cur.shape)
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
            new = np.where(accept, prop, cur)
            counter = state.counter(f"link_{j + 1}_{k + 1}")
            counter[0] += int(accept.sum())
            counter[1] += int(accept.size)
        else:  # pragma: no cover - guarded in __init__
            raise DomainError(f"no link conditional for family {fam.kind.value}")

        delta_s = new - orig
        state.links[sel, j, k] = new
        state.links[sel, k, j] = new
        s_star[sel, j] += delta_s
        s_star[sel, k] += delta_s

    # -- block V: anchors ----------------------------------------------------
    def _update_anchors(self, state: ChainState, rng):
        state.w = np.asarray(self.fam.sample_w(*_anchor_params(state), rng), dtype=float)

    # -- block III: edge intensities and their links ----------------------------
    def _w_terms(self, state: ChainState):
        """theta(w) and sum M(w), the anchor terms of the link level."""
        fam = self.fam
        return np.asarray(fam.theta(state.w), dtype=float), float(np.sum(fam.cumulant(state.w)))

    def _edge_terms(self, state: ChainState, s_star, c_star, w_terms=None) -> _EdgeTerms:
        """The edge block's terms of the current state, from s*, c* as given.

        The sweep builds them once after the anchors; ``_commit_pair`` keeps
        them current.  ``w_terms`` defaults to ``_w_terms(state)``.
        """
        fam, edges, links = self.fam, state.edges, state.links
        theta_w, m_w_total = self._w_terms(state) if w_terms is None else w_terms
        h_stat = [fam.h_summary(s_star[:, node]) for node in range(self.p)]
        b_stat = {(j, k): fam.b_summary(links[:, j, k]) for j, k in self.pairs}
        return _EdgeTerms(
            theta_w, m_w_total,
            [fam.log_h_sum(h_stat[node], c_star[node]) for node in range(self.p)],
            {pair: fam.log_b_sum(b_stat[pair], float(edges[pair])) for pair in self.pairs},
            {pair: self.prior.log_edge_prior(fam, float(edges[pair])) for pair in self.pairs},
            h_stat, b_stat, fam.h_summary(np.array([state.s0])),
        )

    def _pair_candidate(self, state: ChainState, j, k, s_star, c_star, new_c, new_s, terms,
                        link_level=True):
        """Log target ratio of moving edge (j, k) and its links to (new_c, new_s),
        with the candidate's sums.

        Such a move changes only the node levels j and k, the pair's link
        level and its edge prior.  Each node adds
        sum_i [log h(s*', c*') - log h(s*, c*)] + theta(y)·dS - dc·sum M(y),
        where the Jacobian cancels and theta(y), M(y) come from ``_Precomp``.
        With ``link_level`` the link level adds
        sum_i [log b(S', c') - log b(S, c)] + theta(w)·dS - dc·sum M(w), as for
        a move that keeps or rescales the links.  Only the candidate side is
        evaluated; the current side comes from ``terms``.  ``new_s=None``
        holds the links fixed: the sums come from the stored summaries, with
        no dS arithmetic and each dot product 0.0.

        Returns (ratio, ((log h sum, h summary) of node j, of node k,
        (log b sum, b summary) or None without the link level, log edge
        prior)); (-inf, None) outside the support.
        """
        fam, pre = self.fam, self.pre
        lp_new = self.prior.log_edge_prior(fam, new_c)
        links = state.links[:, j, k] if new_s is None else new_s
        if not math.isfinite(lp_new) or (
            fam.kind is FamilyKind.BETA and np.any(links > new_c)
        ):
            return _NEG_INF, None
        d_c = new_c - float(state.edges[j, k])
        d_s = None if new_s is None else new_s - state.links[:, j, k]
        total = lp_new - terms.lp_pair[j, k]
        h_new = []
        for node in (j, k):
            if d_s is None:
                stat, dot = terms.h_stat[node], 0.0
            else:
                stat = fam.h_summary(s_star[:, node] + d_s)
                dot = float(pre.theta_y[:, node] @ d_s)
            h = fam.log_h_sum(stat, c_star[node] + d_c)
            total += (h - terms.h_node[node]) + dot - d_c * pre.m_y_node[node]
            h_new.append((h, stat))
        b_new = None
        if link_level:
            if d_s is None:
                stat, dot = terms.b_stat[j, k], 0.0
            else:
                stat, dot = fam.b_summary(new_s), float(terms.theta_w @ d_s)
            b = fam.log_b_sum(stat, new_c)
            total += (b - terms.b_pair[j, k]) + dot - d_c * terms.m_w_total
            b_new = (b, stat)
        return total, (h_new[0], h_new[1], b_new, lp_new)

    def _pair_log_ratio(self, state: ChainState, j, k, s_star, c_star, new_c, new_s,
                        w_terms=None) -> float:
        """Log target ratio of a move on edge (j, k) outside the sweep.

        The current side is built from ``state``, ``s_star`` and ``c_star`` by
        ``_edge_terms``, as the sweep builds it once per edge block, and
        ``_pair_candidate`` evaluates only the candidate.  With ``w_terms``
        (the value of ``_w_terms``) the link level is included.
        """
        terms = self._edge_terms(state, s_star, c_star, w_terms)
        return self._pair_candidate(state, j, k, s_star, c_star, new_c, new_s, terms,
                                    w_terms is not None)[0]

    def _commit_pair(self, state: ChainState, j, k, s_star, c_star, new_c, new_s,
                     terms=None, cand=None):
        """Write edge (j, k) and its links with their mirrors; keep s*, c* current.

        ``new_s=None`` keeps the links.  s*, c* take the candidate's own
        additions, so the candidate sums and summaries ``cand`` stored into
        ``terms`` are the values a recomputation would give; a candidate
        without the link level (the refresh) has its sum computed here.
        """
        d_c = new_c - float(state.edges[j, k])
        state.edges[j, k] = state.edges[k, j] = new_c
        c_star[j] += d_c
        c_star[k] += d_c
        if new_s is not None:
            d_s = new_s - state.links[:, j, k]
            state.links[:, j, k] = state.links[:, k, j] = new_s
            s_star[:, j] += d_s
            s_star[:, k] += d_s
        if terms is not None:
            (h_j, stat_j), (h_k, stat_k), b_new, lp_new = cand
            if b_new is None:
                stat = self.fam.b_summary(state.links[:, j, k])
                b_new = (self.fam.log_b_sum(stat, new_c), stat)
            terms.h_node[j], terms.h_node[k] = h_j, h_k
            terms.h_stat[j], terms.h_stat[k] = stat_j, stat_k
            terms.b_pair[j, k], terms.b_stat[j, k] = b_new
            terms.lp_pair[j, k] = lp_new

    def _propose_intensity(self, state: ChainState, name, cur, rng):
        """Random-walk proposal for an edge intensity and its log Jacobian:
        a step of +-1 for integer intensities, a log-scale step otherwise."""
        if self.fam.integer_intensity:
            return cur + (1.0 if rng.random() < 0.5 else -1.0), 0.0
        prop = cur * math.exp(rng.normal(0.0, state.step_sizes[name]))
        return prop, math.log(prop) - math.log(cur)

    def _update_edge(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Random walk on the intensity alone; the links are held fixed.
        name = f"edge_{j + 1}_{k + 1}"
        counter = state.counter(name)
        new_c, jac = self._propose_intensity(state, name, float(state.edges[j, k]), rng)
        counter[1] += 1
        ratio, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, None, terms)
        if ratio == _NEG_INF:
            return
        if math.log(rng.random()) < ratio + jac:
            counter[0] += 1
            self._commit_pair(state, j, k, s_star, c_star, new_c, None, terms, cand)

    # -- block refresh of one edge intensity and its link values ----------------
    def _update_edge_refresh(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Propose a new intensity together with a full redraw of the pair's
        # links from their conditional prior given the anchors; the link
        # density factors cancel, so acceptance rests on the node-level
        # terms alone.  This decouples the intensity from the tight
        # information its current links carry about it.
        fam = self.fam
        name = f"refresh_{j + 1}_{k + 1}"
        counter = state.counter(name)
        new_c, jac = self._propose_intensity(state, name, float(state.edges[j, k]), rng)
        counter[1] += 1
        if not math.isfinite(self.prior.log_edge_prior(fam, new_c)):
            return  # checked before the links are drawn, which uses the rng
        new_s = np.asarray(fam.sample_link(state.w, new_c, rng), dtype=float)
        if fam.kind is FamilyKind.INVERSE_GAMMA and not np.all(new_s > 0.0):
            return  # gamma draws can underflow at tiny intensities
        with np.errstate(divide="ignore", invalid="ignore"):
            delta, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, new_s,
                                               terms, link_level=False)
            delta += jac
        if math.isfinite(delta) and math.log(rng.random()) < delta:
            counter[0] += 1
            self._commit_pair(state, j, k, s_star, c_star, new_c, new_s, terms, cand)

    # -- joint rescale of one edge intensity and its link values ---------------
    def _update_edge_scale(self, state: ChainState, j, k, rng, s_star, c_star, terms):
        # Deterministic scaling move (c, S_1..S_n) -> e^eps * (c, S_1..S_n);
        # breaks the ridge between an intensity and its links.  Only applies
        # to continuous-link families.
        name = f"scale_{j + 1}_{k + 1}"
        counter = state.counter(name)
        eps = rng.normal(0.0, state.step_sizes[name])
        factor = math.exp(eps)
        new_c = float(state.edges[j, k]) * factor
        new_s = state.links[:, j, k] * factor
        counter[1] += 1
        ratio, cand = self._pair_candidate(state, j, k, s_star, c_star, new_c, new_s, terms)
        if ratio == _NEG_INF:
            return
        if math.log(rng.random()) < ratio + (self.n + 1.0) * eps:
            counter[0] += 1
            self._commit_pair(state, j, k, s_star, c_star, new_c, new_s, terms, cand)

    # -- block II: c0 ----------------------------------------------------------
    def _update_c0(self, state: ChainState, rng, terms, edge_rowsum):
        # c0 enters the node levels through c* alone: the node summaries of
        # the edge block's terms give every log h sum.
        counter = state.counter("c0")
        step = state.step_sizes["c0"]
        cur = state.c0
        prop = cur * math.exp(rng.normal(0.0, step))
        counter[1] += 1
        args = (state.s0, terms.h_stat, terms.h_s0, edge_rowsum, self.n,
                self.pre.m_y_total + terms.m_w_total)
        lo = _cond_c0_core(self.fam, self.prior, prop, *args)
        if lo == _NEG_INF:
            return
        lc = _cond_c0_core(self.fam, self.prior, cur, *args)
        if math.log(rng.random()) < lo - lc + math.log(prop) - math.log(cur):
            counter[0] += 1
            state.c0 = prop

    # -- block I: s0 -------------------------------------------------------------
    def _update_s0(self, state: ChainState, rng, link_rowsum, c_star, theta_w_total):
        fam = self.fam
        counter = state.counter("s0")
        step = state.step_sizes["s0"]
        cur = state.s0
        theta_total = self.pre.theta_y_total + theta_w_total
        counter[1] += 1

        if isinstance(self.prior.s0_prior, NormalS0Prior):
            prop = cur + rng.normal(0.0, step)
            jac = 0.0
        elif isinstance(self.prior.s0_prior, UniformOnC0S0Prior):
            # random walk on logit(s0/c0); the transform keeps 0 < s0 < c0
            u = math.log(cur) - math.log(state.c0 - cur)
            u_new = u + rng.normal(0.0, step)
            prop = state.c0 / (1.0 + math.exp(-u_new))
            jac = (math.log(prop) + math.log(state.c0 - prop)
                   - math.log(cur) - math.log(state.c0 - cur))
        else:
            prop = cur * math.exp(rng.normal(0.0, step))
            jac = math.log(prop) - math.log(cur)

        args = (state.c0, c_star, link_rowsum, self.n, theta_total)
        lo = _cond_s0_core(fam, self.prior, prop, *args)
        if lo == _NEG_INF:
            return
        lc = _cond_s0_core(fam, self.prior, cur, *args)
        if math.log(rng.random()) < lo - lc + jac:
            counter[0] += 1
            state.s0 = prop

    # -- full systematic scan ------------------------------------------------------
    def sweep(self, state: ChainState, rng):
        fam = self.fam
        s_star, theta_w, c_node = self._link_block_terms(state)
        for j, k in self.pairs:
            self._update_links_pair(state, j, k, rng, s_star, theta_w, c_node)
        self._update_anchors(state, rng)

        c_star = state.c0 + state.edges.sum(axis=1)
        terms = self._edge_terms(state, s_star, c_star)
        scaling = not fam.discrete_links
        for j, k in self.pairs:
            for _ in range(self.config.edge_moves):
                self._update_edge(state, j, k, rng, s_star, c_star, terms)
                if scaling:
                    self._update_edge_scale(state, j, k, rng, s_star, c_star, terms)
                self._update_edge_refresh(state, j, k, rng, s_star, c_star, terms)

        edge_rowsum = state.edges.sum(axis=1)
        self._update_c0(state, rng, terms, edge_rowsum)

        c_star = state.c0 + edge_rowsum
        link_rowsum = s_star - state.s0
        self._update_s0(state, rng, link_rowsum, c_star, float(np.sum(terms.theta_w)))

        state.log_posterior = self.log_posterior(state)
        return state

    def log_posterior(self, state: ChainState) -> float:
        return log_posterior(state, self.data, self.prior)  # the module-level function


# ---------------------------------------------------------------------------
# Public single-site operations
# ---------------------------------------------------------------------------

def _default_steps(config: MCMCConfig, p: int) -> dict:
    steps = {"s0": config.step_sizes.s0, "c0": config.step_sizes.c0}
    for j, k in _pairs(p):
        steps[f"edge_{j + 1}_{k + 1}"] = config.step_sizes.edge
        steps[f"link_{j + 1}_{k + 1}"] = config.step_sizes.link
        steps[f"scale_{j + 1}_{k + 1}"] = config.step_sizes.edge
        steps[f"refresh_{j + 1}_{k + 1}"] = config.step_sizes.edge
    return steps


def _ensure_steps(state: ChainState, config: MCMCConfig):
    if not state.step_sizes:
        state.step_sizes = _default_steps(config, state.edges.shape[0])


def sample_link_conditional(state: ChainState, data: Dataset, i: int, j: int, k: int,
                            rng, config: MCMCConfig | None = None) -> float:
    """Redraw the link value of replicate i on edge (j, k), mirroring it.

    Exact for normal (completed square) and binomial links, adaptive
    enumeration for Poisson/negative-binomial links, random-walk Metropolis
    on the log scale for gamma links.
    """
    config = config or MCMCConfig()
    kernel = _SweepKernel(get_family(state.family), data, PriorConfig.default_for(state.family), config)
    _ensure_steps(state, config)
    if float(state.edges[j, k]) <= 0.0:
        raise DomainError("link conditional requires a positive edge intensity")
    kernel._update_links_pair(state, min(j, k), max(j, k), rng,
                              *kernel._link_block_terms(state), idx=np.array([i]))
    return float(state.links[i, j, k])


def _anchor_params(state: ChainState):
    """Parameters of the anchors' conjugate conditionals: s0 plus each
    replicate's link total, and c0 plus the edge total."""
    tri = np.triu_indices(state.edges.shape[0], k=1)
    s_i = state.s0 + state.links[:, tri[0], tri[1]].sum(axis=1)
    return s_i, state.c0 + float(state.edges[tri].sum())


def sample_w_conditional(state: ChainState, data: Dataset, i: int, rng) -> float:
    """Exact conjugate draw of the anchor of replicate i given the rest."""
    fam = get_family(state.family)
    if fam.kind is FamilyKind.GSST:
        raise DomainError("posterior inference is not available for the gsst family")
    s_i, c_i = _anchor_params(state)
    value = float(fam.sample_w(float(s_i[i]), c_i, rng))
    state.w[i] = value
    return value


def link_conditional_pmf(state: ChainState, data: Dataset, i: int, j: int, k: int,
                         config: MCMCConfig | None = None):
    """Normalized enumeration mass of a discrete link conditional.

    Returns (values, probabilities); available for the Poisson, binomial and
    negative-binomial link families.
    """
    config = config or MCMCConfig()
    fam = get_family(state.family)
    if not fam.discrete_links:
        raise DomainError(f"{fam.kind.value}: link conditional is not discrete")
    if j > k:
        j, k = k, j
    c_jk = float(state.edges[j, k])
    if c_jk <= 0.0:
        raise DomainError("link conditional requires a positive edge intensity")
    kernel = _SweepKernel(fam, data, PriorConfig.default_for(fam), config)
    sel = np.array([i])
    _, *terms = kernel._pair_terms(state, j, k, *kernel._link_block_terms(state), sel)
    values, g = kernel._enumerate_links(j, k, c_jk, *terms, sel)
    g = g[0]
    g -= g.max()
    probs = np.exp(g)
    probs /= probs.sum()
    return values, probs


def link_conditional_normal_coeffs(state: ChainState, data: Dataset, i: int, j: int, k: int):
    """Completed-square (mean, sd) of a normal-family link conditional, from
    the sampler's own inputs."""
    fam = get_family(state.family)
    if fam.kind is not FamilyKind.NORMAL:
        raise DomainError("completed-square coefficients exist for the normal family only")
    j, k = min(j, k), max(j, k)
    kernel = _SweepKernel(fam, data, PriorConfig.default_for(fam), MCMCConfig())
    _, *terms = kernel._pair_terms(state, j, k, *kernel._link_block_terms(state), np.array([i]))
    mean, sd = _normal_link_moments(float(state.edges[j, k]), *terms)
    return float(mean[0]), float(sd)


def gibbs_sweep(state: ChainState, data: Dataset, prior: PriorConfig,
                config: MCMCConfig, rng) -> ChainState:
    """One systematic scan over links, anchors, edges, c0 and s0 in place."""
    kernel = _SweepKernel(get_family(state.family), data, prior, config)
    _ensure_steps(state, config)
    return kernel.sweep(state, rng)


def log_posterior(state: ChainState, data: Dataset, prior: PriorConfig) -> float:
    """Log joint of data, latents and parameters under the priors."""
    fam = get_family(state.family)
    lik = log_joint_likelihood_arrays(
        fam, data.y, state.w, state.links, state.s0, state.c0, state.edges
    )
    return lik + prior.log_prior(fam, state.s0, state.c0, state.edges)


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

def initial_state(family, data: Dataset, prior: PriorConfig, config: MCMCConfig,
                  chain_index: int, rng) -> ChainState:
    """Overdispersed chain start: prior-mean parameters (jittered for chains
    past the first) with latents drawn from the generative construction."""
    fam = get_family(family)
    if fam.kind is FamilyKind.GSST:
        raise DomainError("posterior inference is not available for the gsst family")
    n, p = data.y.shape

    c0 = prior.ac / prior.bc
    sp = prior.s0_prior
    if isinstance(sp, NormalS0Prior):
        s0 = sp.mu
    elif isinstance(sp, GammaS0Prior):
        s0 = sp.a / sp.b
    else:
        s0 = 0.5 * c0
    edge0 = max(1.0, round(prior.d0)) if fam.integer_intensity else prior.a0 / prior.b0

    if chain_index > 0:
        def factor():
            return math.exp(0.5 if rng.random() < 0.5 else -0.5)

        c0 *= factor()
        if isinstance(sp, NormalS0Prior):
            s0 += (0.5 if rng.random() < 0.5 else -0.5) * (1.0 / math.sqrt(sp.tau))
        elif isinstance(sp, GammaS0Prior):
            s0 *= factor()
        else:
            s0 = 0.5 * c0 * factor()
            s0 = min(s0, 0.95 * c0)
        if fam.integer_intensity:
            edge0 = max(1.0, round(edge0 * factor()))
        else:
            edge0 *= factor()

    edges = np.full((p, p), float(edge0))
    np.fill_diagonal(edges, 0.0)

    w = np.asarray(fam.sample_w(s0, c0, rng, size=n), dtype=float)
    links = np.zeros((n, p, p))
    for j, k in _pairs(p):
        draw = np.asarray(fam.sample_link(w, edges[j, k], rng), dtype=float)
        links[:, j, k] = draw
        links[:, k, j] = draw

    state = ChainState(
        family=fam.kind, s0=float(s0), c0=float(c0), edges=edges, w=w, links=links,
        step_sizes=_default_steps(config, p),
    )
    return state


def _adapt_block_steps(state: ChainState, window_start: dict, round_index: int,
                       target: float = 0.44):
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
        state.step_sizes[name] = step * math.exp((rate - target) * gain)
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
        means = self.edges.reshape(-1, len(self.pairs)).mean(axis=0)
        for idx, (j, k) in enumerate(self.pairs):
            out[j, k] = out[k, j] = means[idx]
        return out


def run_chains(data: Dataset, family, prior: PriorConfig, config: MCMCConfig) -> PosteriorSamples:
    """Run independent chains from overdispersed starts; fully reproducible.

    Burn-in sweeps adapt the random-walk scales toward a 0.44 acceptance
    rate; adaptation is frozen afterwards and acceptance counters reset so
    reported rates describe the stationary phase.  Any chain failure aborts
    the run with the chain index and sweep number attached.
    """
    fam = get_family(family)
    data.validate_support(fam)
    prior.validate_for(fam)
    kernel = _SweepKernel(fam, data, prior, config)
    n, p = data.y.shape
    pairs = kernel.pairs
    kept = config.retained_per_chain

    s0_out = np.empty((config.chains, kept))
    c0_out = np.empty((config.chains, kept))
    edges_out = np.empty((config.chains, kept, len(pairs)))
    w_out = np.empty((config.chains, kept, n)) if config.keep_latents else None
    links_out = (
        np.empty((config.chains, kept, n, len(pairs))) if config.keep_latents else None
    )

    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    acceptance = []
    tri = np.array(pairs)

    for m in range(config.chains):
        rng = np.random.default_rng(seeds[m])
        t = 0
        try:
            state = initial_state(fam, data, prior, config, m, rng)
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
                    s0_out[m, keep_idx] = state.s0
                    c0_out[m, keep_idx] = state.c0
                    edges_out[m, keep_idx] = state.edges[tri[:, 0], tri[:, 1]]
                    if config.keep_latents:
                        w_out[m, keep_idx] = state.w
                        links_out[m, keep_idx] = state.links[:, tri[:, 0], tri[:, 1]]
                    keep_idx += 1
        except Exception as exc:  # noqa: BLE001 - re-raise with chain context
            raise ChainError(
                f"chain {m} failed at sweep {t}: {exc}", chain=m, sweep=t
            ) from exc
        rates = {
            name: (c[0] / c[1] if c[1] else float("nan"))
            for name, c in sorted(state.accept.items())
        }
        acceptance.append(rates)

    meta = {
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "thinning": config.thinning,
        "chains": config.chains,
        "seed": config.seed,
        "n": n,
        "p": p,
        "acceptance": acceptance,
    }
    return PosteriorSamples(
        family=fam.kind,
        node_names=list(data.node_names),
        pairs=pairs,
        s0=s0_out,
        c0=c0_out,
        edges=edges_out,
        w=w_out,
        links=links_out,
        meta=meta,
    )


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


def predictive_mse(samples: PosteriorSamples, data: Dataset, rng) -> float:
    """Posterior mean of the predictive mean squared error.

    For every retained draw, one replicate table is simulated from the
    node-level density under that draw's parameters and latents, and the
    squared error against the observed table is averaged.
    """
    if samples.links is None:
        raise DomainError("predictive_mse requires samples retained with latents")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    fam = get_family(samples.family)
    n, p = data.y.shape
    pairs = samples.pairs
    incidence = np.zeros((len(pairs), p))
    for idx, (j, k) in enumerate(pairs):
        incidence[idx, j] = 1.0
        incidence[idx, k] = 1.0

    total = 0.0
    count = 0
    for m in range(samples.chains):
        for t in range(samples.retained):
            s_star = samples.s0[m, t] + samples.links[m, t] @ incidence
            c_star = samples.c0[m, t] + samples.edges[m, t] @ incidence
            yf = np.asarray(fam.sample_w(s_star, c_star[None, :], rng), dtype=float)
            total += float(np.mean((yf - data.y) ** 2))
            count += 1
    return total / count
