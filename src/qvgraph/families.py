"""Exponential-family members with quadratic variance function.

The six mean-parameterized families implemented here share a common density
template built from five ingredients: the canonical parameter map ``theta(w)``,
the cumulant transform evaluated along it ``M(theta(w))``, the Jacobian of the
map, a link-level coefficient function ``b(s, c)`` and a level normalizer
``h(s, c)``.  Two density shapes are composed from them:

* anchor/node level:  ``h(s, c) * exp(theta(w)*s - c*M(theta(w))) * |J(w)|``
* link level:         ``b(s, c) * exp(theta(w)*s - c*M(theta(w)))``

The discrete-link families (``gamma``, ``beta``, ``inverse_beta``) have two
further ingredients, the log-ratios at successive integer arguments
``log_h_step(s, c) = log h(s+1, c) - log h(s, c)`` and
``log_b_step(s, c) = log b(s+1, c) - log b(s, c)``.  Each is a difference of
plain logs, so a run of link masses is a cumulative sum of them with no
log-gamma call.

Every family fixes a variance function ``V(mu) = nu0 + nu1*mu + nu2*mu**2``
that ties conditional link moments to the mean: ``E(S|w) = c*w`` and
``Var(S|w) = c*V(w)``.

All computations are carried out in log space.  Methods on the family objects
are vectorized and do not validate their inputs; the module-level functions
mirror them with strict scalar domain checking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, GridConvergenceError

__all__ = [
    "FamilyKind",
    "VarianceCoefficients",
    "Family",
    "get_family",
    "variance_function",
    "canonical_maps",
    "log_b",
    "log_h",
    "log_w_density",
    "log_link_density",
    "sample_w",
    "sample_link",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)


def gammaln(x):
    """log |Gamma(x)|, elementwise.  Importing scipy.special takes about 0.2 s,
    half of a cold start, so the first call imports it and rebinds this
    module's ``gammaln`` to ``scipy.special.gammaln`` itself: every later
    call, also in the workers a fit forks, is the ufunc."""
    global gammaln
    from scipy.special import gammaln

    return gammaln(x)


class FamilyKind(str, Enum):
    """Tag selecting one of the six quadratic-variance family members."""

    NORMAL = "normal"
    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse_gamma"
    BETA = "beta"
    INVERSE_BETA = "inverse_beta"
    GSST = "gsst"


@dataclass(frozen=True)
class VarianceCoefficients:
    """Coefficients of the quadratic variance function V(mu)."""

    nu0: float
    nu1: float
    nu2: float

    def __call__(self, mu):
        return self.nu0 + self.nu1 * mu + self.nu2 * mu * mu


class Family:
    """Base class for the six family members.

    Subclasses provide the canonical maps, the two log coefficient functions
    ``log_b``/``log_h`` and exact (or numeric, for the scaled-Student member)
    samplers for the anchor level and the link level.

    Sums over replicates at one intensity go through summaries, so that a
    move changing only the intensity re-sums without the values:
    ``h_summary(s)`` and ``b_summary(s)`` summarize a 1-d array of node sums
    or link values, and ``log_h_sum(summary, c)`` and ``log_b_sum(summary,
    c)`` return sum_i log h(s_i, c) and sum_i log b(s_i, c) from them.  By
    default the summary is a copy of the values and the sum the array sum,
    O(n).  The normal, gamma and inverse-gamma members use closed forms in
    one or two numbers (sum s**2; sum s and sum gammaln(s); sum log s), O(1)
    in c, which give -inf or nan at an out-of-support c, as the array sum
    does, rather than raise.  The summaries take ndarrays and sum with the
    array's own ``sum``: the reduction of ``np.sum``, without its dispatch
    layer.
    """

    kind: FamilyKind
    coefficients: VarianceCoefficients
    mean_space: str
    link_support: str
    discrete_links: bool = False
    integer_intensity: bool = False

    # -- canonical maps ---------------------------------------------------
    def theta(self, w):
        raise NotImplementedError

    def cumulant(self, w):
        """Cumulant transform evaluated at theta(w)."""
        raise NotImplementedError

    def log_jacobian(self, w):
        """log |d theta / d w|."""
        raise NotImplementedError

    # -- coefficient functions --------------------------------------------
    def log_b(self, s, c):
        raise NotImplementedError

    def log_h(self, s, c):
        raise NotImplementedError

    def log_b_step(self, s, c):
        """log b(s + 1, c) - log b(s, c); discrete-link families only."""
        raise NotImplementedError

    def log_h_step(self, s, c):
        """log h(s + 1, c) - log h(s, c); discrete-link families only."""
        raise NotImplementedError

    def h_summary(self, s):
        """What ``log_h_sum`` needs of a 1-d array of node sums."""
        return np.array(s, dtype=float)

    b_summary = h_summary  # what ``log_b_sum`` needs of link values

    def log_h_sum(self, summary, c) -> float:
        """sum_i log h(s_i, c) from ``h_summary(s)``."""
        return float(self.log_h(summary, c).sum())

    def log_b_sum(self, summary, c) -> float:
        """sum_i log b(s_i, c) from ``b_summary(s)``."""
        return float(self.log_b(summary, c).sum())

    # -- densities ---------------------------------------------------------
    def log_w_density(self, w, s, c):
        """Log density of the anchor/node level at w with parameters (s, c)."""
        return self.log_h(s, c) + self.theta(w) * s - c * self.cumulant(w) + self.log_jacobian(w)

    def log_link_density(self, s, w, c):
        """Log density (or mass) of a link value s given the anchor w."""
        return self.log_b(s, c) + self.theta(w) * s - c * self.cumulant(w)

    def variance(self, mu):
        return self.coefficients(mu)

    # -- samplers -----------------------------------------------------------
    def sample_w(self, s, c, rng, size=None):
        raise NotImplementedError

    def sample_link(self, w, c, rng):
        raise NotImplementedError

    # -- domains ------------------------------------------------------------
    def in_mean_space(self, w):
        raise NotImplementedError

    def hyper_ok(self, s, c) -> bool:
        """Whether (s, c) is admissible for log_h / the anchor density."""
        raise NotImplementedError

    def in_link_support(self, s, c):
        raise NotImplementedError

    def intensity_ok(self, c) -> bool:
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            return False
        if self.integer_intensity and c != round(c):
            return False
        return True

    # -- strict checks (raise DomainError) -----------------------------------
    def check_mean(self, w):
        if not np.all(self.in_mean_space(np.asarray(w, dtype=float))):
            raise DomainError(f"{self.kind.value}: value outside mean space {self.mean_space}")

    def check_hyper(self, s, c):
        if not self.hyper_ok(s, c):
            raise DomainError(
                f"{self.kind.value}: inadmissible parameters (s={s}, c={c})"
            )

    def check_intensity(self, c):
        if not self.intensity_ok(c):
            kind = "positive integer" if self.integer_intensity else "positive real"
            raise DomainError(f"{self.kind.value}: edge intensity must be a {kind}, got {c}")

    def check_link_value(self, s, c):
        if not np.all(self.in_link_support(np.asarray(s, dtype=float), c)):
            raise DomainError(
                f"{self.kind.value}: link value outside support {self.link_support}"
            )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Family {self.kind.value}>"


def _is_integer(x):
    x = np.asarray(x, dtype=float)
    return np.isfinite(x) & (x == np.round(x))


def _open_unit(b):
    """Beta draws kept inside (0, 1): a draw that rounds to 0 or 1 (a tiny
    shape parameter) becomes the nearest float inside; others are unchanged."""
    return np.clip(b, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


# Scalar counterparts of np.log, gammaln and s**2 / (2c) for the
# closed-form sums: -inf or nan where the array routines give them, no error.
def _log(x) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _lgamma(x) -> float:
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):  # a pole or overflow
        return float(gammaln(x))


def _half_sq_over(sum_sq, c) -> float:
    # sum_sq >= 0; at c == 0 numpy gives inf, or nan for 0/0
    return sum_sq / (2.0 * c) if c else math.inf * sum_sq


class NormalFamily(Family):
    """Normal marginals with normal links; V(mu) = 1."""

    kind = FamilyKind.NORMAL
    coefficients = VarianceCoefficients(1.0, 0.0, 0.0)
    mean_space = "(-inf, inf)"
    link_support = "(-inf, inf)"

    def theta(self, w):
        return np.asarray(w, dtype=float)

    def cumulant(self, w):
        w = np.asarray(w, dtype=float)
        return 0.5 * w * w

    def log_jacobian(self, w):
        return np.zeros_like(np.asarray(w, dtype=float))

    def log_b(self, s, c):
        s = np.asarray(s, dtype=float)
        return -0.5 * (_LOG_2PI + np.log(c)) - s * s / (2.0 * c)

    def log_h(self, s, c):
        s = np.asarray(s, dtype=float)
        return 0.5 * (np.log(c) - _LOG_2PI) - s * s / (2.0 * c)

    def h_summary(self, s):
        # a sum, not a dot product: the sum must not depend on whether s is
        # a strided column or a contiguous copy
        return s.shape[0], float((s * s).sum())

    def log_h_sum(self, summary, c) -> float:
        n, sum_sq = summary
        return n * 0.5 * (_log(c) - _LOG_2PI) - _half_sq_over(sum_sq, c)

    b_summary = h_summary

    def log_b_sum(self, summary, c) -> float:
        n, sum_sq = summary
        return n * -0.5 * (_LOG_2PI + _log(c)) - _half_sq_over(sum_sq, c)

    def sample_w(self, s, c, rng, size=None):
        s = np.asarray(s, dtype=float)
        return rng.normal(s / c, np.sqrt(1.0 / c), size=size)

    def sample_link(self, w, c, rng):
        w = np.asarray(w, dtype=float)
        # mean c*w, precision 1/c (variance c = c * V(w)); rng.normal(c*w,
        # sqrt(c)) computes the same loc + scale * z, but slower
        z = rng.standard_normal(w.shape if w.ndim else None)
        return c * w + math.sqrt(c) * z

    def in_mean_space(self, w):
        return np.isfinite(w)

    def hyper_ok(self, s, c):
        return math.isfinite(float(s)) and float(c) > 0.0

    def in_link_support(self, s, c):
        return np.isfinite(s)


class GammaFamily(Family):
    """Gamma marginals with Poisson links; V(mu) = mu."""

    kind = FamilyKind.GAMMA
    coefficients = VarianceCoefficients(0.0, 1.0, 0.0)
    mean_space = "(0, inf)"
    link_support = "{0, 1, 2, ...}"
    discrete_links = True

    def theta(self, w):
        return np.log(w)

    def cumulant(self, w):
        return np.asarray(w, dtype=float)

    def log_jacobian(self, w):
        return -np.log(w)

    def log_b(self, s, c):
        s = np.asarray(s, dtype=float)
        return s * np.log(c) - gammaln(s + 1.0)

    def log_h(self, s, c):
        s = np.asarray(s, dtype=float)
        return s * np.log(c) - gammaln(s)

    def h_summary(self, s):
        return float(s.sum()), float(gammaln(s).sum())

    def log_h_sum(self, summary, c) -> float:
        sum_s, sum_lgamma = summary
        return _log(c) * sum_s - sum_lgamma

    def b_summary(self, s):
        return float(s.sum()), float(gammaln(s + 1.0).sum())

    log_b_sum = log_h_sum  # log c * sum s - sum gammaln(s + 1), from b_summary

    def log_b_step(self, s, c):
        return np.log(c) - np.log(np.asarray(s, dtype=float) + 1.0)

    def log_h_step(self, s, c):
        return np.log(c) - np.log(s)

    def sample_w(self, s, c, rng, size=None):
        return rng.gamma(shape=s, scale=1.0 / np.asarray(c, dtype=float), size=size)

    def sample_link(self, w, c, rng):
        w = np.asarray(w, dtype=float)
        return rng.poisson(c * w).astype(float)

    def in_mean_space(self, w):
        return np.isfinite(w) & (w > 0.0)

    def hyper_ok(self, s, c):
        return float(s) > 0.0 and float(c) > 0.0

    def in_link_support(self, s, c):
        return _is_integer(s) & (np.asarray(s) >= 0.0)


class InverseGammaFamily(Family):
    """Inverse-gamma marginals with gamma links; V(mu) = mu**2.

    The anchor density at parameters (s, c) is inverse gamma with shape
    c + 1 and scale s, so E(W) = s/c and Var(W) = (s/c)**2 / (c - 1); the
    Jacobian of theta(w) = -1/w is 1/w**2 and h(s, c) = s**(c+1)/Gamma(c+1)
    normalizes accordingly.
    """

    kind = FamilyKind.INVERSE_GAMMA
    coefficients = VarianceCoefficients(0.0, 0.0, 1.0)
    mean_space = "(0, inf)"
    link_support = "(0, inf)"

    def theta(self, w):
        return -1.0 / np.asarray(w, dtype=float)

    def cumulant(self, w):
        return np.log(w)

    def log_jacobian(self, w):
        return -2.0 * np.log(w)

    def log_b(self, s, c):
        s = np.asarray(s, dtype=float)
        return (c - 1.0) * np.log(s) - gammaln(c)

    def log_h(self, s, c):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        return (c + 1.0) * np.log(s) - gammaln(c + 1.0)

    def h_summary(self, s):
        return s.shape[0], float(np.log(s).sum())

    def log_h_sum(self, summary, c) -> float:
        n, sum_log = summary
        return (c + 1.0) * sum_log - n * _lgamma(c + 1.0)

    b_summary = h_summary

    def log_b_sum(self, summary, c) -> float:
        n, sum_log = summary
        return (c - 1.0) * sum_log - n * _lgamma(c)

    def sample_w(self, s, c, rng, size=None):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        return 1.0 / rng.gamma(shape=c + 1.0, scale=1.0 / s, size=size)

    def sample_link(self, w, c, rng):
        w = np.asarray(w, dtype=float)
        # rng.gamma(shape=c, scale=w) computes the same w * standard_gamma(c),
        # but slower
        return rng.standard_gamma(c, w.shape if w.ndim else None) * w

    def in_mean_space(self, w):
        return np.isfinite(w) & (w > 0.0)

    def hyper_ok(self, s, c):
        return float(s) > 0.0 and float(c) > 0.0

    def in_link_support(self, s, c):
        return np.isfinite(s) & (s > 0.0)


class BetaFamily(Family):
    """Beta marginals with binomial links; V(mu) = mu - mu**2."""

    kind = FamilyKind.BETA
    coefficients = VarianceCoefficients(0.0, 1.0, -1.0)
    mean_space = "(0, 1)"
    link_support = "{0, 1, ..., c}"
    discrete_links = True
    integer_intensity = True

    def theta(self, w):
        w = np.asarray(w, dtype=float)
        return np.log(w) - np.log1p(-w)

    def cumulant(self, w):
        w = np.asarray(w, dtype=float)
        return -np.log1p(-w)

    def log_jacobian(self, w):
        w = np.asarray(w, dtype=float)
        return -np.log(w) - np.log1p(-w)

    def log_b(self, s, c):
        s = np.asarray(s, dtype=float)
        return gammaln(c + 1.0) - gammaln(s + 1.0) - gammaln(c - s + 1.0)

    def log_h(self, s, c):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        return gammaln(c) - gammaln(s) - gammaln(c - s)

    def log_b_step(self, s, c):
        s = np.asarray(s, dtype=float)
        return np.log(c - s) - np.log(s + 1.0)

    def log_h_step(self, s, c):
        s = np.asarray(s, dtype=float)
        return np.log(c - s - 1.0) - np.log(s)

    def sample_w(self, s, c, rng, size=None):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        return _open_unit(rng.beta(s, c - s, size=size))

    def sample_link(self, w, c, rng):
        w = np.asarray(w, dtype=float)
        return rng.binomial(int(round(float(c))), w).astype(float)

    def in_mean_space(self, w):
        return np.isfinite(w) & (w > 0.0) & (w < 1.0)

    def hyper_ok(self, s, c):
        return 0.0 < float(s) < float(c)

    def in_link_support(self, s, c):
        return _is_integer(s) & (np.asarray(s) >= 0.0) & (np.asarray(s) <= float(c))


class InverseBetaFamily(Family):
    """Inverse-beta (beta-prime) marginals with negative-binomial links.

    V(mu) = mu + mu**2.  The anchor density at (s, c) is a beta prime with
    shape parameters (s, c + 1), so E(W) = s/c.
    """

    kind = FamilyKind.INVERSE_BETA
    coefficients = VarianceCoefficients(0.0, 1.0, 1.0)
    mean_space = "(0, inf)"
    link_support = "{0, 1, 2, ...}"
    discrete_links = True
    integer_intensity = True

    def theta(self, w):
        w = np.asarray(w, dtype=float)
        return np.log(w) - np.log1p(w)

    def cumulant(self, w):
        return np.log1p(np.asarray(w, dtype=float))

    def log_jacobian(self, w):
        w = np.asarray(w, dtype=float)
        return -np.log(w) - np.log1p(w)

    def log_b(self, s, c):
        s = np.asarray(s, dtype=float)
        return gammaln(c + s) - gammaln(s + 1.0) - gammaln(c)

    def log_h(self, s, c):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        return gammaln(s + c + 1.0) - gammaln(s) - gammaln(c + 1.0)

    def log_b_step(self, s, c):
        s = np.asarray(s, dtype=float)
        return np.log(c + s) - np.log(s + 1.0)

    def log_h_step(self, s, c):
        s = np.asarray(s, dtype=float)
        return np.log(s + c + 1.0) - np.log(s)

    def sample_w(self, s, c, rng, size=None):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        b = _open_unit(rng.beta(s, c + 1.0, size=size))
        return b / (1.0 - b)

    def sample_link(self, w, c, rng):
        w = np.asarray(w, dtype=float)
        return rng.negative_binomial(c, 1.0 / (w + 1.0)).astype(float)

    def in_mean_space(self, w):
        return np.isfinite(w) & (w > 0.0)

    def hyper_ok(self, s, c):
        return float(s) > 0.0 and float(c) > 0.0

    def in_link_support(self, s, c):
        return _is_integer(s) & (np.asarray(s) >= 0.0)


# ---------------------------------------------------------------------------
# Generalised scaled Student member (numeric h and samplers)
# ---------------------------------------------------------------------------

def _gsst_log_b(s, c):
    # b(s, c) = 2**(c-2) / (pi * Gamma(c)) * |Gamma(c/2 + i s/2)|**2.  The
    # |Gamma|**2 factor is the Weierstrass product over l >= 0 of
    # Gamma(c/2)**2 * (1 + s**2/(c+2l)**2)**(-1) and evaluates in O(1) at
    # machine precision; the constant is pinned by requiring the tilted link
    # density to integrate to 1 for every admissible c, not only c = 1.
    from scipy.special import loggamma  # deferred: only gsst needs it

    s = np.asarray(s, dtype=float)
    z = 0.5 * c + 0.5j * s
    return (
        (c - 2.0) * _LOG_2
        - math.log(math.pi)
        - gammaln(c)
        + 2.0 * np.real(loggamma(z))
    )


# Hit by repeated (s, c): 149 of the 150 lookups of a gsst normalization check.
@functools.lru_cache(maxsize=4096)
def _gsst_log_h_scalar(s: float, c: float) -> float:
    from scipy import integrate  # deferred: only gsst needs quadrature

    # After the substitution w = tan(phi) the normalizing integral becomes
    # int_{-pi/2}^{pi/2} exp(s*phi) * cos(phi)**c dphi, a smooth compact
    # integral; factor out its peak before adaptive quadrature.
    mode = math.atan2(s, c)
    peak = s * mode + c * math.log(math.cos(mode))

    def integrand(phi):
        cv = math.cos(phi)
        if cv <= 0.0:
            return 0.0
        return math.exp(s * phi + c * math.log(cv) - peak)

    half_pi = 0.5 * math.pi
    value, _ = integrate.quad(integrand, -half_pi, half_pi, limit=200)
    return -(peak + math.log(value))


class _InverseCdfTable:
    """Monotone-interpolated inverse CDF over a fixed grid.

    Safe for concurrent reads once constructed; construction happens under
    the single writer that first requests a given parameter pair.
    """

    __slots__ = ("_interp",)

    def __init__(self, x, logpdf):
        from scipy import integrate, interpolate  # deferred: only gsst builds tables

        m = float(np.max(logpdf))
        pdf = np.exp(logpdf - m)
        cdf = integrate.cumulative_trapezoid(pdf, x, initial=0.0)
        total = cdf[-1]
        if not (total > 0.0 and np.isfinite(total)):
            raise GridConvergenceError("degenerate numeric CDF grid")
        cdf /= total
        # restrict to the window carrying all but ~1e-14 of the mass; outside
        # it the increments underflow and the monotone interpolant would see
        # denormal steps
        lo = max(int(np.searchsorted(cdf, 1e-14)) - 1, 0)
        hi = min(int(np.searchsorted(cdf, 1.0 - 1e-14)) + 1, x.size - 1)
        window_x = x[lo:hi + 1]
        window_c = cdf[lo:hi + 1]
        window_c = (window_c - window_c[0]) / (window_c[-1] - window_c[0])
        window_c = np.maximum.accumulate(window_c)
        values, idx = np.unique(window_c, return_index=True)
        if values.size < 8:
            raise GridConvergenceError("numeric CDF grid is too concentrated")
        self._interp = interpolate.PchipInterpolator(values, window_x[idx])

    def sample(self, rng, size=None):
        return self._interp(rng.random(size))


# Hits only when one (s, c) repeats back to back; a simulate's keys differ per replicate.
@functools.lru_cache(maxsize=8)
def _gsst_anchor_table(s: float, c: float) -> _InverseCdfTable:
    half_pi = 0.5 * math.pi
    phi = np.linspace(-half_pi, half_pi, 8193)
    logpdf = s * phi + c * np.log(np.maximum(np.cos(phi), 1e-300))
    return _InverseCdfTable(phi, logpdf)


# 2,999 hits in 3,000 scalar draws at one (w, c); none among a simulate's keys.
@functools.lru_cache(maxsize=8)
def _gsst_link_table(w: float, c: float) -> _InverseCdfTable:
    th = math.atan(w)
    m_th = 0.5 * math.log1p(w * w)
    mean = c * w
    sd = math.sqrt(c * (1.0 + w * w))
    for half_width in (12.0, 24.0, 48.0, 96.0):
        grid = np.linspace(mean - half_width * sd, mean + half_width * sd, 8193)
        logpdf = _gsst_log_b(grid, c) + th * grid - c * m_th
        peak = logpdf.max()
        if max(logpdf[0], logpdf[-1]) < peak + math.log(1e-13):
            return _InverseCdfTable(grid, logpdf)
    raise GridConvergenceError(
        f"scaled-student link grid did not capture the tails for (w={w}, c={c})"
    )


def _elementwise(fn, *args):
    """``fn`` of floats applied to the broadcast arguments element by element,
    in C order; a float when every argument is a scalar."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    if all(a.ndim == 0 for a in arrays):
        return fn(*map(float, arrays))
    arrays = np.broadcast_arrays(*arrays)
    out = np.empty(arrays[0].shape, dtype=float)
    flat_out = out.ravel()
    for i, values in enumerate(zip(*(a.ravel() for a in arrays))):
        flat_out[i] = fn(*map(float, values))
    return out


class ScaledStudentFamily(Family):
    """Generalised scaled Student marginals with hyperbolic-secant-type links.

    V(mu) = 1 + mu**2.  The level normalizer has no closed form and is
    computed by adaptive quadrature (cached per parameter pair); both
    samplers invert cached numeric CDF grids with monotone interpolation.
    ``scipy.integrate`` and ``scipy.interpolate`` are imported on the first
    quadrature or table build, not with the package.
    """

    kind = FamilyKind.GSST
    coefficients = VarianceCoefficients(1.0, 0.0, 1.0)
    mean_space = "(-inf, inf)"
    link_support = "(-inf, inf)"

    def theta(self, w):
        return np.arctan(w)

    def cumulant(self, w):
        w = np.asarray(w, dtype=float)
        return 0.5 * np.log1p(w * w)

    def log_jacobian(self, w):
        w = np.asarray(w, dtype=float)
        return -np.log1p(w * w)

    def log_b(self, s, c):
        return _gsst_log_b(s, c)

    def log_h(self, s, c):
        return _elementwise(_gsst_log_h_scalar, s, c)

    def sample_w(self, s, c, rng, size=None):
        if np.ndim(s) == 0 and np.ndim(c) == 0:
            return np.tan(_gsst_anchor_table(float(s), float(c)).sample(rng, size))
        return _elementwise(
            lambda si, ci: float(np.tan(_gsst_anchor_table(si, ci).sample(rng))), s, c)

    def sample_link(self, w, c, rng):
        return _elementwise(lambda wi, ci: float(_gsst_link_table(wi, ci).sample(rng)), w, c)

    def in_mean_space(self, w):
        return np.isfinite(w)

    def hyper_ok(self, s, c):
        return math.isfinite(float(s)) and float(c) > 0.0

    def in_link_support(self, s, c):
        return np.isfinite(s)


_FAMILIES: dict[FamilyKind, Family] = {
    FamilyKind.NORMAL: NormalFamily(),
    FamilyKind.GAMMA: GammaFamily(),
    FamilyKind.INVERSE_GAMMA: InverseGammaFamily(),
    FamilyKind.BETA: BetaFamily(),
    FamilyKind.INVERSE_BETA: InverseBetaFamily(),
    FamilyKind.GSST: ScaledStudentFamily(),
}


def get_family(family) -> Family:
    """Resolve a FamilyKind, name string or Family instance to the singleton."""
    if isinstance(family, Family):
        return family
    if isinstance(family, FamilyKind):
        return _FAMILIES[family]
    try:
        return _FAMILIES[FamilyKind(str(family).lower())]
    except ValueError:
        names = ", ".join(k.value for k in FamilyKind)
        raise DomainError(f"unknown family {family!r}; expected one of: {names}") from None


# ---------------------------------------------------------------------------
# Validated scalar operations
# ---------------------------------------------------------------------------

def variance_function(family, mu) -> float:
    """Quadratic variance V(mu); raises DomainError outside the mean space."""
    fam = get_family(family)
    fam.check_mean(mu)
    return float(fam.variance(float(mu)))


def canonical_maps(family, w):
    """Return (theta(w), M(theta(w)), log |J_theta(w)|) for a mean-space point."""
    fam = get_family(family)
    fam.check_mean(w)
    w = float(w)
    return float(fam.theta(w)), float(fam.cumulant(w)), float(fam.log_jacobian(w))


def log_b(family, s, c) -> float:
    """Log link coefficient b(s, c)."""
    fam = get_family(family)
    fam.check_intensity(c)
    fam.check_link_value(s, c)
    return float(fam.log_b(float(s), float(c)))


def log_h(family, s, c) -> float:
    """Log level normalizer h(s, c)."""
    fam = get_family(family)
    fam.check_hyper(s, c)
    return float(fam.log_h(float(s), float(c)))


def log_w_density(family, w, s, c) -> float:
    """Log density of the anchor/node level at w under parameters (s, c)."""
    fam = get_family(family)
    fam.check_hyper(s, c)
    fam.check_mean(w)
    return float(fam.log_w_density(float(w), float(s), float(c)))


def log_link_density(family, s, w, c) -> float:
    """Log density/mass of link value s given anchor w and intensity c."""
    fam = get_family(family)
    fam.check_intensity(c)
    fam.check_mean(w)
    fam.check_link_value(s, c)
    return float(fam.log_link_density(float(s), float(w), float(c)))


def sample_w(family, s, c, rng, size=None):
    """Draw from the anchor-level distribution; deterministic given the rng."""
    fam = get_family(family)
    fam.check_hyper(s, c)
    out = fam.sample_w(float(s), float(c), rng, size=size)
    return out if size is not None else float(out)


def sample_link(family, w, c, rng):
    """Draw a link value given the anchor w and edge intensity c."""
    fam = get_family(family)
    fam.check_intensity(c)
    fam.check_mean(w)
    out = fam.sample_link(float(w), float(c), rng)
    return float(out)
