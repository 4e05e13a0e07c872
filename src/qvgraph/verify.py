"""Independent verification oracles for the model and the sampler.

Every oracle here deliberately avoids the density code under test: joint
densities are recomposed from scipy.stats primitives, normalization audits
integrate the exported log densities numerically, and Monte-Carlo checks
compare forward simulations against the closed-form moment and correlation
formulas under a 3-standard-error rule (widened to 4 when a bundle carries
more than 20 simultaneous checks).

``scipy.stats`` and ``scipy.integrate`` are imported inside the oracles that
use them, on their first call, so ``import qvgraph`` (which imports this
module) loads neither; no fit or post-processing step needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import FamilyKind, get_family
from .inference import (
    ChainState,
    GammaS0Prior,
    NormalS0Prior,
    PriorConfig,
    UniformOnC0S0Prior,
    link_conditional_normal_coeffs,
    link_conditional_pmf,
    log_full_conditional_c0,
    log_full_conditional_cjk,
    log_full_conditional_s0,
)
from .model import Dataset, ModelParams, _as_rng, marginal_moments, pairwise_correlation, simulate

__all__ = [
    "OracleReport",
    "mc_moment_check",
    "mc_correlation_check",
    "conditional_consistency_check",
    "density_normalization_check",
    "default_check_suite",
    "scipy_log_joint",
    "scipy_link_logpdf",
]


@dataclass(frozen=True)
class OracleReport:
    """One verification result.

    ``passed`` is True when |estimate - target| <= 3 * mc_standard_error
    (4 when the surrounding bundle exceeds 20 checks), or when the absolute
    deviation is below ``tolerance`` for checks with a stated tolerance.
    """

    check_name: str
    target_value: float
    estimate: float
    mc_standard_error: float
    passed: bool
    tolerance: float | None = None

    @classmethod
    def from_mc(cls, name, target, estimate, se, bundle_size=1):
        widen = 4.0 if bundle_size > 20 else 3.0
        ok = abs(estimate - target) <= widen * se
        return cls(name, float(target), float(estimate), float(se), bool(ok))

    @classmethod
    def from_abs(cls, name, target, estimate, tolerance):
        ok = abs(estimate - target) <= tolerance
        return cls(name, float(target), float(estimate), 0.0, bool(ok), float(tolerance))


# ---------------------------------------------------------------------------
# Monte-Carlo checks of the closed-form moments and correlations
# ---------------------------------------------------------------------------

def mc_moment_check(params: ModelParams, replicates: int, rng) -> list[OracleReport]:
    """Empirical node means/variances vs the closed forms, one report each."""
    if params.family is FamilyKind.GSST:
        raise DomainError("moment check requires a family with exact samplers")
    if replicates < 10_000:
        raise DomainError("moment check needs at least 10^4 replicates")
    rng = _as_rng(rng)
    mean, variance = marginal_moments(params)
    data, _ = simulate(params, replicates, rng)
    y = data.y
    n = replicates
    bundle = 2 * params.p
    reports = []
    for j in range(params.p):
        col = y[:, j]
        est_mean = float(col.mean())
        est_var = float(col.var(ddof=1))
        se_mean = math.sqrt(est_var / n)
        centered = col - est_mean
        m4 = float(np.mean(centered**4))
        se_var = math.sqrt(max(m4 - est_var**2, 0.0) / n)
        reports.append(
            OracleReport.from_mc(f"mean[node {j + 1}]", mean, est_mean, se_mean, bundle)
        )
        reports.append(
            OracleReport.from_mc(f"variance[node {j + 1}]", variance, est_var, se_var, bundle)
        )
    return reports


def mc_correlation_check(params: ModelParams, replicates: int, rng) -> list[OracleReport]:
    """Empirical pairwise correlations vs the closed form, on the Fisher scale."""
    if params.family is FamilyKind.GSST:
        raise DomainError("correlation check requires a family with exact samplers")
    rng = _as_rng(rng)
    data, _ = simulate(params, replicates, rng)
    emp = np.corrcoef(data.y.T)
    se = 1.0 / math.sqrt(replicates - 3)
    p = params.p
    bundle = p * (p - 1) // 2
    reports = []
    for j in range(p):
        for k in range(j + 1, p):
            target = pairwise_correlation(params, j, k)
            reports.append(
                OracleReport.from_mc(
                    f"fisher_z[corr {j + 1},{k + 1}]",
                    math.atanh(target),
                    math.atanh(float(emp[j, k])),
                    se,
                    bundle,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Independent joint density through scipy.stats
# ---------------------------------------------------------------------------

def scipy_link_logpdf(family, s, w, c):
    """Link log density (or mass) of s given anchor w and intensity c, via scipy.stats."""
    from scipy import stats

    kind = get_family(family).kind
    if kind is FamilyKind.NORMAL:
        return stats.norm.logpdf(s, c * w, c**0.5)
    if kind is FamilyKind.GAMMA:
        return stats.poisson.logpmf(np.round(s).astype(int), c * w)
    if kind is FamilyKind.INVERSE_GAMMA:
        return stats.gamma.logpdf(s, c, scale=w)
    if kind is FamilyKind.BETA:
        return stats.binom.logpmf(np.round(s).astype(int), int(round(c)), w)
    if kind is FamilyKind.INVERSE_BETA:
        return stats.nbinom.logpmf(np.round(s).astype(int), c, 1.0 / (w + 1.0))
    raise DomainError(f"no scipy joint for family {kind.value}")


def scipy_log_joint(family, y, w, links, s0, c0, edges, prior: PriorConfig) -> float:
    """Joint log density of data, latents, and parameters via scipy.stats.

    ``links`` (n, P) and ``edges`` (P,) hold one column per node pair (j, k),
    j < k, in row-major order.  Recomposes the three hierarchy levels and the
    priors from named distributions; shares nothing with the package's own
    density code beyond the family tags.
    """
    from scipy import stats

    kind = get_family(family).kind
    n, p = y.shape
    total = 0.0

    def level_logpdf(x, s, c):
        if kind is FamilyKind.NORMAL:
            return stats.norm.logpdf(x, s / c, c**-0.5)
        if kind is FamilyKind.GAMMA:
            return stats.gamma.logpdf(x, s, scale=1.0 / c)
        if kind is FamilyKind.INVERSE_GAMMA:
            return stats.invgamma.logpdf(x, c + 1.0, scale=s)
        if kind is FamilyKind.BETA:
            return stats.beta.logpdf(x, s, c - s)
        if kind is FamilyKind.INVERSE_BETA:
            return stats.betaprime.logpdf(x, s, c + 1.0)
        raise DomainError(f"no scipy joint for family {kind.value}")

    total += float(np.sum(level_logpdf(w, s0, c0)))
    for e, c in enumerate(edges):
        total += float(np.sum(scipy_link_logpdf(kind, links[:, e], w, c)))
    pairs = [(j, k) for j in range(p) for k in range(j + 1, p)]
    incidence = np.array([[node in pair for node in range(p)] for pair in pairs], dtype=float)
    s_star = s0 + links @ incidence
    c_star = c0 + edges @ incidence
    for j in range(p):
        total += float(np.sum(level_logpdf(y[:, j], s_star[:, j], c_star[j])))

    total += float(stats.gamma.logpdf(c0, prior.ac, scale=1.0 / prior.bc))
    sp = prior.s0_prior
    if isinstance(sp, NormalS0Prior):
        total += float(stats.norm.logpdf(s0, sp.mu, sp.tau**-0.5))
    elif isinstance(sp, GammaS0Prior):
        total += float(stats.gamma.logpdf(s0, sp.a, scale=1.0 / sp.b))
    elif isinstance(sp, UniformOnC0S0Prior):
        total += float(stats.uniform.logpdf(s0, 0.0, c0))
    fam = get_family(kind)
    for c in edges:
        if fam.integer_intensity:
            total += float(stats.poisson.logpmf(int(round(c)), prior.d0))
        else:
            total += float(stats.gamma.logpdf(c, prior.a0, scale=1.0 / prior.b0))
    return total


# ---------------------------------------------------------------------------
# Conditional-vs-joint consistency harness
# ---------------------------------------------------------------------------

def _default_small_instance(kind: FamilyKind) -> ModelParams:
    """The two-node instance the consistency check simulates on 2 replicates."""
    counts = get_family(kind).integer_intensity
    c = 2.0 if counts else 1.5
    s0, c0 = (6.0, 10.0) if counts else (1.0, 2.0) if kind is FamilyKind.NORMAL else (2.0, 3.0)
    return ModelParams(kind, s0, c0, np.array([[0.0, c], [c, 0.0]]))


def _candidate_pairs(kind: FamilyKind, which: str, state: ChainState):
    if which == "s0":
        if kind is FamilyKind.BETA:
            return 0.3 * state.c0, 0.7 * state.c0
        if kind is FamilyKind.NORMAL:
            return state.s0 - 0.8, state.s0 + 0.6
        return 0.6 * state.s0, 1.7 * state.s0
    if which == "c0":
        if kind is FamilyKind.BETA:
            return state.s0 + 1.0, state.s0 + 4.0
        return 0.6 * state.c0, 1.8 * state.c0
    fam = get_family(kind)
    if fam.integer_intensity:
        floor = max(1.0, float(state.links[:, 0].max()))
        return floor, floor + 2.0
    return 0.7, 2.9


# Largest |conditional difference - joint difference| a check passes with.
_CONSISTENCY_TOL = 1e-8


def conditional_consistency_check(family, rng) -> list[OracleReport]:
    """Verify each full conditional against the independent scipy joint.

    Simulates a fixed two-node instance on 2 replicates.  For s0, c0 and the
    edge intensity, compares the log-conditional difference between two
    candidates with the joint's difference, to within 1e-8; then checks
    enumeration samplers against brute-force normalized mass and extracts the
    completed-square coefficients of the normal link conditional by
    quadratic fitting.
    """
    rng = _as_rng(rng)
    fam = get_family(family)
    if fam.kind is FamilyKind.GSST:
        raise DomainError("no posterior conditionals are implemented for gsst")
    params = _default_small_instance(fam.kind)
    prior = PriorConfig.default_for(fam.kind)
    data, latents = simulate(params, 2, rng)
    state = ChainState(family=fam.kind, s0=params.s0, c0=params.c0, edges=params.edges,
                       w=latents.w, links=latents.links)
    # (name, the conditional at a candidate, (s0, c0, edges) of the joint at
    # it); the edge is the instance's one pair (0, 1)
    checks = (
        ("s0", lambda v: log_full_conditional_s0(state, data, prior, v),
         lambda v: (v, state.c0, state.edges)),
        ("c0", lambda v: log_full_conditional_c0(state, data, prior, v),
         lambda v: (state.s0, v, state.edges)),
        ("edge", lambda v: log_full_conditional_cjk(state, data, prior, 0, 1, v),
         lambda v: (state.s0, state.c0, np.array([v]))),
    )
    reports = []
    for name, conditional, at in checks:
        a, b = _candidate_pairs(fam.kind, name, state)
        joint_a, joint_b = (scipy_log_joint(fam.kind, data.y, state.w, state.links, *at(v), prior)
                            for v in (a, b))
        reports.append(OracleReport.from_abs(
            f"{fam.kind.value}: {name} conditional vs joint",
            joint_a - joint_b, conditional(a) - conditional(b), _CONSISTENCY_TOL))

    if fam.discrete_links:
        reports.append(_enumeration_tv_report(fam.kind, state, data, prior))
    if fam.kind is FamilyKind.NORMAL:
        reports.extend(_normal_link_quadratic_report(state, data, prior))
    return reports


def _enumeration_tv_report(kind, state: ChainState, data: Dataset,
                           prior: PriorConfig) -> OracleReport:
    """Total variation between enumeration mass and brute-force normalization."""
    values, probs = link_conditional_pmf(state, data, 0, 0, 1)
    fam = get_family(kind)
    upper = int(values[-1]) if fam.kind is FamilyKind.BETA else max(200, int(values[-1]))
    grid = np.arange(0.0, upper + 1.0)
    logs = np.empty(grid.size)
    links = state.links.copy()
    for idx, v in enumerate(grid):
        links[0, 0] = v
        logs[idx] = scipy_log_joint(kind, data.y, state.w, links, state.s0,
                                    state.c0, state.edges, prior)
    logs -= logs.max()
    brute = np.exp(logs)
    brute /= brute.sum()
    ours = np.zeros(grid.size)
    ours[np.asarray(values, dtype=int)] = probs
    tv = 0.5 * float(np.abs(ours - brute).sum())
    return OracleReport.from_abs(
        f"{kind.value}: link enumeration vs brute force (TV)", 0.0, tv, 1e-10)


def _normal_link_quadratic_report(state: ChainState, data: Dataset,
                                  prior: PriorConfig) -> list[OracleReport]:
    """Extract the quadratic coefficients of the normal link conditional."""
    mean, sd = link_conditional_normal_coeffs(state, data, 0, 0, 1)
    links = state.links.copy()

    def joint_at(t):
        links[0, 0] = t
        return scipy_log_joint(FamilyKind.NORMAL, data.y, state.w, links,
                               state.s0, state.c0, state.edges, prior)

    t0 = state.links[0, 0]
    h = 0.5
    g_m, g_0, g_p = joint_at(t0 - h), joint_at(t0), joint_at(t0 + h)
    curv = (g_p + g_m - 2.0 * g_0) / (h * h)
    slope = (g_p - g_m) / (2.0 * h)
    sd_fit = math.sqrt(-1.0 / curv)
    mean_fit = t0 - slope / curv
    return [
        OracleReport.from_abs("normal: link conditional mean (quadratic fit)",
                              mean_fit, mean, 1e-8),
        OracleReport.from_abs("normal: link conditional sd (quadratic fit)",
                              sd_fit, sd, 1e-8),
    ]


# ---------------------------------------------------------------------------
# Density normalization audits
# ---------------------------------------------------------------------------

_INTEGRATION_BOUNDS = {
    FamilyKind.NORMAL: (-np.inf, np.inf),
    FamilyKind.GAMMA: (0.0, np.inf),
    FamilyKind.INVERSE_GAMMA: (0.0, np.inf),
    FamilyKind.BETA: (0.0, 1.0),
    FamilyKind.INVERSE_BETA: (0.0, np.inf),
    FamilyKind.GSST: (-np.inf, np.inf),
}


def density_normalization_check(family, s, c) -> list[OracleReport]:
    """Numerically integrate the level density and one link density to 1.

    Continuous densities are integrated by adaptive quadrature (tolerance
    1e-6 at the anchor level, 1e-8 at the link level); discrete link masses
    are summed until the tail drops below 1e-12.
    """
    from scipy import integrate

    fam = get_family(family)
    lo, hi = _INTEGRATION_BOUNDS[fam.kind]
    reports = []

    def split_quad(f, low, high, split):
        # splitting an infinite-range integral at the density peak keeps
        # adaptive quadrature from overlooking concentrated mass
        left, _ = integrate.quad(f, low, split, limit=400)
        right, _ = integrate.quad(f, split, high, limit=400)
        return left + right

    mean = s / c
    value = split_quad(lambda x: math.exp(float(fam.log_w_density(x, s, c))), lo, hi, mean)
    reports.append(OracleReport.from_abs(
        f"{fam.kind.value}: level density normalizes at (s={s}, c={c})",
        1.0, value, 1e-6))

    w_at = mean if fam.in_mean_space(np.asarray(mean)) else 0.5
    c_link = round(c) if fam.integer_intensity else c
    if fam.discrete_links:
        total = 0.0
        k = 0
        upper = int(c_link) if fam.kind is FamilyKind.BETA else None
        while True:
            term = math.exp(float(fam.log_link_density(k, w_at, c_link)))
            total += term
            k += 1
            if upper is not None and k > upper:
                break
            if upper is None and k > 10 and term < 1e-12:
                break
    else:
        total = split_quad(
            lambda t: math.exp(float(fam.log_link_density(t, w_at, c_link))),
            lo, hi, c_link * w_at)
    reports.append(OracleReport.from_abs(
        f"{fam.kind.value}: link density normalizes at (w={w_at:.3g}, c={c_link})",
        1.0, total, 1e-8))
    return reports


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------

def default_check_suite(family, seed: int, replicates: int = 100_000) -> list[OracleReport]:
    """The standard verification battery for one family."""
    fam = get_family(family)
    rng = np.random.default_rng(seed)
    kind = fam.kind

    if fam.integer_intensity:
        edges = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    else:
        edges = np.array([[0.0, 1.5, 0.4], [1.5, 0.0, 2.5], [0.4, 2.5, 0.0]])
    s0, c0 = (1.0, 2.0) if kind is FamilyKind.NORMAL else (6.0, 10.0)
    params = ModelParams(kind, s0, c0, edges)

    reports = []
    if kind is not FamilyKind.GSST:
        # simulation-scale checks need the exact samplers
        reports.extend(mc_moment_check(params, replicates, rng))
        reports.extend(mc_correlation_check(params, replicates, rng))
    reports.extend(density_normalization_check(kind, s0, c0))
    if kind is not FamilyKind.GSST:
        reports.extend(conditional_consistency_check(kind, rng))
    return reports
