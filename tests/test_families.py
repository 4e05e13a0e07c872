import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from qvgraph.errors import DomainError
from qvgraph.families import (
    FamilyKind,
    canonical_maps,
    get_family,
    log_b,
    log_h,
    log_link_density,
    log_w_density,
    sample_link,
    sample_w,
    variance_function,
)

from conftest import ks_statistic, ks_threshold


def gsst_log_link_product_series(s, c, term_tol=1e-12, min_terms=10_000,
                                 max_terms=200_000_000, chunk=1_000_000):
    """Reference evaluation of the scaled-Student link product by truncation.

    Sums -log(1 + s**2/(c + 2l)**2) over l until the term magnitude drops
    below ``term_tol`` (and at least ``min_terms`` terms were used), then adds
    a midpoint-corrected integral estimate of the remaining tail.  Slow; an
    independent cross-check of the closed-form evaluation used by ``log_b``.
    """
    s = float(s)
    c = float(c)
    s2 = s * s
    total = 0.0
    start = 0
    while True:
        stop = start + chunk
        l = np.arange(start, stop, dtype=float)
        terms = np.log1p(s2 / (c + 2.0 * l) ** 2)
        total += float(terms.sum())
        start = stop
        if start >= min_terms and terms[-1] < term_tol:
            break
        if start >= max_terms:
            break
    # integral tail with midpoint correction: sum_{l >= L} ~ s^2/(2(c + 2L - 1))
    tail = s2 / (2.0 * (c + 2.0 * start - 1.0))
    total += tail
    constant = (
        (c - 2.0) * math.log(2.0)
        - math.log(math.pi)
        - float(special.gammaln(c))
        + 2.0 * float(special.gammaln(0.5 * c))
    )
    return constant - total


ALL_KINDS = list(FamilyKind)
EXACT_KINDS = [k for k in ALL_KINDS if k is not FamilyKind.GSST]

# (family, admissible (s, c), a mean-space point, an intensity)
CASES = {
    FamilyKind.NORMAL: dict(s=6.0, c=10.0, w=0.8, intensity=2.0),
    FamilyKind.GAMMA: dict(s=2.0, c=3.0, w=1.5, intensity=2.5),
    FamilyKind.INVERSE_GAMMA: dict(s=6.0, c=10.0, w=0.7, intensity=3.0),
    FamilyKind.BETA: dict(s=6.0, c=10.0, w=0.35, intensity=4),
    FamilyKind.INVERSE_BETA: dict(s=6.0, c=10.0, w=1.2, intensity=3),
    FamilyKind.GSST: dict(s=6.0, c=10.0, w=-0.4, intensity=2.5),
}

VARIANCE_TRIPLES = {
    FamilyKind.NORMAL: (1.0, 0.0, 0.0),
    FamilyKind.GAMMA: (0.0, 1.0, 0.0),
    FamilyKind.INVERSE_GAMMA: (0.0, 0.0, 1.0),
    FamilyKind.BETA: (0.0, 1.0, -1.0),
    FamilyKind.INVERSE_BETA: (0.0, 1.0, 1.0),
    FamilyKind.GSST: (1.0, 0.0, 1.0),
}

MEAN_GRIDS = {
    FamilyKind.NORMAL: np.linspace(-20.0, 20.0, 201),
    FamilyKind.GAMMA: np.geomspace(1e-4, 50.0, 201),
    FamilyKind.INVERSE_GAMMA: np.geomspace(1e-4, 50.0, 201),
    FamilyKind.BETA: np.linspace(1e-4, 1.0 - 1e-4, 201),
    FamilyKind.INVERSE_BETA: np.geomspace(1e-4, 50.0, 201),
    FamilyKind.GSST: np.linspace(-20.0, 20.0, 201),
}


class TestVarianceFunction:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_coefficient_triples(self, kind):
        nu = get_family(kind).coefficients
        assert (nu.nu0, nu.nu1, nu.nu2) == VARIANCE_TRIPLES[kind]

    def test_values(self):
        assert variance_function("normal", 3.7) == 1.0
        assert variance_function("beta", 0.5) == pytest.approx(0.25)
        assert variance_function("gsst", 2.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_positive_on_mean_space(self, kind):
        fam = get_family(kind)
        grid = MEAN_GRIDS[kind]
        assert np.all(fam.variance(grid) > 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            variance_function("gamma", -1.0)
        with pytest.raises(DomainError):
            variance_function("beta", 1.2)
        with pytest.raises(DomainError):
            variance_function("beta", 0.0)


class TestCanonicalMaps:
    def test_reference_points(self):
        assert canonical_maps("gamma", 1.0) == pytest.approx((0.0, 1.0, 0.0))
        for m in (-1.7, 0.0, 2.5):
            theta, cum, log_jac = canonical_maps("normal", m)
            assert (theta, cum, log_jac) == pytest.approx((m, m * m / 2.0, 0.0))
        # theta(w) = -1/w has derivative 1/w**2, so at w = 2 the log Jacobian
        # is -log 4 (and the anchor normalizer carries the matching c + 1)
        theta, cum, log_jac = canonical_maps("inverse_gamma", 2.0)
        assert (theta, cum) == pytest.approx((-0.5, math.log(2.0)))
        assert log_jac == pytest.approx(-math.log(4.0))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_jacobian_matches_theta_derivative(self, kind):
        fam = get_family(kind)
        pts = {
            FamilyKind.NORMAL: [-2.0, 0.3],
            FamilyKind.GAMMA: [0.4, 3.0],
            FamilyKind.INVERSE_GAMMA: [0.4, 3.0],
            FamilyKind.BETA: [0.2, 0.7],
            FamilyKind.INVERSE_BETA: [0.4, 3.0],
            FamilyKind.GSST: [-1.0, 2.0],
        }[kind]
        for w in pts:
            h = 1e-6 * max(1.0, abs(w))
            dtheta = (fam.theta(w + h) - fam.theta(w - h)) / (2.0 * h)
            assert float(fam.log_jacobian(w)) == pytest.approx(
                math.log(abs(dtheta)), abs=1e-5
            )

    def test_domain_error_at_beta_boundary(self):
        for w in (0.0, 1.0):
            with pytest.raises(DomainError):
                canonical_maps("beta", w)


class TestLogB:
    def test_reference_values(self):
        assert log_b("gamma", 2, 3.0) == pytest.approx(math.log(4.5))
        assert log_b("beta", 1, 3) == pytest.approx(math.log(3.0))
        assert log_b("normal", 0.0, 2.0) == pytest.approx(-0.5 * math.log(4.0 * math.pi))
        assert log_b("inverse_beta", 2, 3) == pytest.approx(math.log(6.0))
        assert log_b("inverse_gamma", 2.0, 3.0) == pytest.approx(math.log(2.0))

    def test_support_errors(self):
        with pytest.raises(DomainError):
            log_b("beta", 4, 3)  # binomial value above the trial count
        with pytest.raises(DomainError):
            log_b("gamma", 1.5, 3.0)  # non-integer count
        with pytest.raises(DomainError):
            log_b("beta", 1, 2.5)  # non-integer trial count
        with pytest.raises(DomainError):
            log_b("inverse_gamma", -1.0, 3.0)

    def test_gsst_closed_form_matches_truncated_product(self):
        fam = get_family("gsst")
        for s in (0.0, 0.3, 2.0, 7.0):
            for c in (0.8, 1.0, 3.0):
                series = gsst_log_link_product_series(s, c)
                closed = float(fam.log_b(s, c))
                assert closed == pytest.approx(series, abs=5e-12)


class TestLogH:
    def test_reference_values(self):
        assert log_h("gamma", 1.0, 1.0) == pytest.approx(0.0)
        assert log_h("beta", 1.0, 2.0) == pytest.approx(0.0)
        assert log_h("normal", 6.0, 10.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi / 10.0) - 36.0 / 20.0
        )
        # hyperbolic-secant reference point: the normalizing integral is 2
        assert log_h("gsst", 0.0, 1.0) == pytest.approx(-math.log(2.0))

    def test_admissible_region(self):
        with pytest.raises(DomainError):
            log_h("gamma", -1.0, 2.0)
        with pytest.raises(DomainError):
            log_h("beta", 3.0, 2.0)  # needs s < c
        with pytest.raises(DomainError):
            log_h("normal", 0.0, -1.0)


class TestLogRatioSteps:
    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if get_family(k).discrete_links])
    def test_steps_match_differences(self, kind):
        fam = get_family(kind)
        v = np.concatenate([np.arange(0.0, 60.0), np.round(np.geomspace(60.0, 1e4, 200))])
        c_link = 1.2e4 if kind is FamilyKind.BETA else 3.0
        c_node = c_link + 2.1e4 if kind is FamilyKind.BETA else 7.3
        for fn, step, s, c in (
            (fam.log_b, fam.log_b_step, v, c_link),
            (fam.log_h, fam.log_h_step, v + 0.37, c_node),  # non-integer node sum
        ):
            diff = fn(s + 1.0, c) - fn(s, c)
            # the reference subtracts log-gamma values of size up to
            # gammaln(s + c + 2), so it carries their rounding as well
            tol = 1e-12 * (np.abs(diff) + special.gammaln(s + c + 2.0))
            assert np.all(np.abs(step(s, c) - diff) <= tol)


class TestLevelDensity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalizes(self, kind):
        case = CASES[kind]
        fam = get_family(kind)
        lo, hi = {
            FamilyKind.NORMAL: (-np.inf, np.inf),
            FamilyKind.GSST: (-np.inf, np.inf),
            FamilyKind.BETA: (0.0, 1.0),
        }.get(kind, (0.0, np.inf))
        mid = case["s"] / case["c"]
        left, _ = integrate.quad(
            lambda w: math.exp(float(fam.log_w_density(w, case["s"], case["c"]))),
            lo, mid, limit=300)
        right, _ = integrate.quad(
            lambda w: math.exp(float(fam.log_w_density(w, case["s"], case["c"]))),
            mid, hi, limit=300)
        assert left + right == pytest.approx(1.0, abs=1e-6)

    def test_matches_named_distributions(self):
        w = np.linspace(0.05, 5.0, 9)
        assert np.allclose(
            get_family("gamma").log_w_density(w, 2.0, 3.0),
            stats.gamma.logpdf(w, 2.0, scale=1.0 / 3.0),
        )
        assert np.allclose(
            get_family("inverse_gamma").log_w_density(w, 6.0, 10.0),
            stats.invgamma.logpdf(w, 11.0, scale=6.0),
        )
        assert np.allclose(
            get_family("inverse_beta").log_w_density(w, 6.0, 10.0),
            stats.betaprime.logpdf(w, 6.0, 11.0),
        )
        wb = np.linspace(0.05, 0.95, 9)
        assert np.allclose(
            get_family("beta").log_w_density(wb, 6.0, 10.0),
            stats.beta.logpdf(wb, 6.0, 4.0),
        )
        assert np.allclose(
            get_family("normal").log_w_density(w, 6.0, 10.0),
            stats.norm.logpdf(w, 0.6, 10.0**-0.5),
        )

    def test_scalar_api_validates(self):
        with pytest.raises(DomainError):
            log_w_density("gamma", -0.5, 2.0, 3.0)
        assert np.isfinite(log_w_density("gamma", 0.5, 2.0, 3.0))


class TestLinkDensity:
    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if not get_family(k).discrete_links])
    def test_continuous_normalizes(self, kind):
        case = CASES[kind]
        fam = get_family(kind)
        w, c = case["w"], case["intensity"]
        lo = 0.0 if kind is FamilyKind.INVERSE_GAMMA else -np.inf
        mid = c * w
        if kind is FamilyKind.INVERSE_GAMMA:
            mid = max(mid, 1e-6)
        left, _ = integrate.quad(
            lambda s: math.exp(float(fam.log_link_density(s, w, c))), lo, mid, limit=300)
        right, _ = integrate.quad(
            lambda s: math.exp(float(fam.log_link_density(s, w, c))), mid, np.inf, limit=300)
        assert left + right == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if get_family(k).discrete_links])
    def test_discrete_normalizes(self, kind):
        case = CASES[kind]
        fam = get_family(kind)
        w, c = case["w"], case["intensity"]
        if kind is FamilyKind.BETA:
            values = np.arange(0, int(c) + 1)
        else:
            values = np.arange(0, 2000)
        mass = np.exp(fam.log_link_density(values.astype(float), w, c))
        assert mass[-1] < 1e-12 or kind is FamilyKind.BETA
        assert float(mass.sum()) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conditional_moments(self, kind):
        # E(S | w) = c w and Var(S | w) = c V(w) for every member
        case = CASES[kind]
        fam = get_family(kind)
        w, c = case["w"], case["intensity"]
        if fam.discrete_links:
            values = np.arange(0, int(c) + 1 if kind is FamilyKind.BETA else 4000).astype(float)
            mass = np.exp(fam.log_link_density(values, w, c))
            m1 = float((values * mass).sum())
            m2 = float((values * values * mass).sum())
        else:
            lo = 0.0 if kind is FamilyKind.INVERSE_GAMMA else -np.inf
            m1 = 0.0
            m2 = 0.0
            mid = c * w if kind is not FamilyKind.INVERSE_GAMMA else max(c * w, 1e-6)
            for a, b in ((lo, mid), (mid, np.inf)):
                m1 += integrate.quad(
                    lambda s: s * math.exp(float(fam.log_link_density(s, w, c))),
                    a, b, limit=300)[0]
                m2 += integrate.quad(
                    lambda s: s * s * math.exp(float(fam.log_link_density(s, w, c))),
                    a, b, limit=300)[0]
        assert m1 == pytest.approx(c * w, abs=1e-6)
        assert m2 - m1 * m1 == pytest.approx(c * float(fam.variance(w)), abs=1e-5)

    def test_beta_integer_intensity_required(self):
        with pytest.raises(DomainError):
            log_link_density("beta", 1, 0.5, 2.5)


class TestAnchorSampler:
    def test_reference_normal_draws(self, rng):
        draws = sample_w("normal", 6.0, 10.0, rng, size=200_000)
        se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(0.6, abs=3 * se_mean)
        assert draws.var(ddof=1) == pytest.approx(0.1, rel=0.02)

    def test_gamma_mean(self, rng):
        draws = sample_w("gamma", 2.0, 4.0, rng, size=1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(0.5, abs=3 * se)

    def test_inverse_gamma_variance(self, rng):
        # V(mu)/(c - nu2) with V(mu) = mu^2: 0.36 / 9 = 0.04
        draws = sample_w("inverse_gamma", 6.0, 10.0, rng, size=1_000_000)
        est = draws.var(ddof=1)
        centered = draws - draws.mean()
        se = math.sqrt((np.mean(centered**4) - est**2) / draws.size)
        assert est == pytest.approx(0.04, abs=3 * se)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_ks_against_numeric_cdf(self, kind, rng):
        case = CASES[kind]
        fam = get_family(kind)
        n = 100_000
        draws = np.asarray(fam.sample_w(case["s"], case["c"], rng, size=n))
        if kind is FamilyKind.GSST:
            grid = np.linspace(-30.0, 30.0, 40_001)
            pdf = np.exp(fam.log_w_density(grid, case["s"], case["c"]))
            cdf_grid = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
            cdf_grid /= cdf_grid[-1]
            cdf = lambda x: np.interp(x, grid, cdf_grid)
        else:
            cdf = {
                FamilyKind.NORMAL: lambda x: stats.norm.cdf(x, 0.6, 10.0**-0.5),
                FamilyKind.GAMMA: lambda x: stats.gamma.cdf(x, 2.0, scale=1.0 / 3.0),
                FamilyKind.INVERSE_GAMMA: lambda x: stats.invgamma.cdf(x, 11.0, scale=6.0),
                FamilyKind.BETA: lambda x: stats.beta.cdf(x, 6.0, 4.0),
                FamilyKind.INVERSE_BETA: lambda x: stats.betaprime.cdf(x, 6.0, 11.0),
            }[kind]
        assert ks_statistic(draws, cdf) < ks_threshold(n)

    def test_determinism(self):
        a = sample_w("gamma", 2.0, 3.0, np.random.default_rng(5), size=16)
        b = sample_w("gamma", 2.0, 3.0, np.random.default_rng(5), size=16)
        assert np.array_equal(a, b)

    def test_domain_error(self, rng):
        with pytest.raises(DomainError):
            sample_w("beta", 11.0, 10.0, rng)

    @pytest.mark.parametrize("kind, s, c", [(FamilyKind.BETA, 5.0, 5.0 + 1e-8),
                                            (FamilyKind.BETA, 1e-8, 1.0),
                                            (FamilyKind.INVERSE_BETA, 1e-8, 1.0),
                                            (FamilyKind.INVERSE_BETA, 1e20, 1.0)])
    def test_draws_stay_in_the_mean_space(self, kind, s, c, rng):
        # beta draws with a tiny shape round to 0 or 1 unless kept inside
        fam = get_family(kind)
        assert np.all(fam.in_mean_space(fam.sample_w(s, c, rng, size=1000)))


class TestLinkSampler:
    def test_poisson_link_mean(self, rng):
        fam = get_family("gamma")
        draws = fam.sample_link(np.full(1_000_000, 2.0), 3.0, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(6.0, abs=3 * se)

    def test_normal_link_spread(self, rng):
        # mean c*w with variance c = c * V(w); the level parameterization is
        # mean/precision, so intensity 2 means spread 2, not 1/2
        fam = get_family("normal")
        draws = fam.sample_link(np.full(1_000_000, 1.0), 2.0, rng)
        est = draws.var(ddof=1)
        centered = draws - draws.mean()
        se = math.sqrt((np.mean(centered**4) - est**2) / draws.size)
        assert est == pytest.approx(2.0, abs=3 * se)

    def test_binomial_support(self, rng):
        fam = get_family("beta")
        draws = fam.sample_link(np.full(20_000, 0.5), 4, rng)
        assert set(np.unique(draws)) <= {0.0, 1.0, 2.0, 3.0, 4.0}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_moments(self, kind, rng):
        case = CASES[kind]
        fam = get_family(kind)
        w, c = case["w"], case["intensity"]
        n = 30_000 if kind is FamilyKind.GSST else 400_000
        if kind is FamilyKind.GSST:
            draws = np.array([sample_link(kind, w, c, rng) for _ in range(n)])
        else:
            draws = np.asarray(fam.sample_link(np.full(n, w), c, rng))
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert draws.mean() == pytest.approx(c * w, abs=3.5 * se_mean)
        est = draws.var(ddof=1)
        centered = draws - draws.mean()
        se_var = math.sqrt((np.mean(centered**4) - est**2) / n)
        assert est == pytest.approx(c * float(fam.variance(w)), abs=3.5 * se_var)

    def test_gsst_ks_against_numeric_cdf(self, rng):
        fam = get_family("gsst")
        w, c = 1.0, 2.5
        n = 100_000
        draws = np.asarray(fam.sample_link(np.full(n, w), c, rng))
        grid = np.linspace(c * w - 30.0, c * w + 30.0, 40_001)
        pdf = np.exp(fam.log_link_density(grid, w, c))
        cdf_grid = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf_grid /= cdf_grid[-1]
        assert ks_statistic(draws, lambda x: np.interp(x, grid, cdf_grid)) < ks_threshold(n)

    @pytest.mark.parametrize("c", [0.3, 1.0, 2.5, 40.0])
    def test_draws_equal_the_numpy_routines(self, c):
        # The normal and gamma-link draws compute numpy's own loc + scale * z
        # and scale * standard_gamma; the stream must stay the same bits.
        w_array = np.random.default_rng(0).gamma(2.0, 1.0, size=257)
        for w in (w_array, 0.7):
            fam = get_family("inverse_gamma")
            assert np.array_equal(fam.sample_link(w, c, np.random.default_rng(9)),
                                  np.random.default_rng(9).gamma(shape=c, scale=w))
            fam = get_family("normal")
            assert np.array_equal(fam.sample_link(w, c, np.random.default_rng(9)),
                                  np.random.default_rng(9).normal(c * w, math.sqrt(c)))

    def test_domain_errors(self, rng):
        with pytest.raises(DomainError):
            sample_link("beta", 0.5, 2.5, rng)  # non-integer trial count
        with pytest.raises(DomainError):
            sample_link("gamma", -1.0, 2.0, rng)
        with pytest.raises(DomainError):
            sample_link("gamma", 1.0, 0.0, rng)


def _summary_inputs(kind):
    """Node sums, link values and intensities from the family's support,
    with values up to 1e4."""
    rng = np.random.default_rng(17)
    counts = np.concatenate([rng.poisson(5.0, 200), [0.0, 1.0, 1e4]]).astype(float)
    positive = np.concatenate([rng.gamma(2.0, 3.0, 200), [1e-3, 0.5, 9876.5, 1e4]])
    cs = [0.3, 1.0, 7.5, 250.0]
    if kind is FamilyKind.NORMAL:
        reals = np.concatenate([rng.normal(0.0, 3.0, 200), [0.0, -1e4, 1e4]])
        return reals, reals[::-1].copy(), cs
    if kind is FamilyKind.GAMMA:
        return positive, counts, cs
    if kind is FamilyKind.INVERSE_GAMMA:
        return positive, positive[::-1].copy(), cs
    if kind is FamilyKind.BETA:  # 0 < s < c, links in 0..c
        return positive, counts, [10_001.0, 12_000.0, 20_000.0, 100_000.0]
    return positive, counts, [1.0, 2.0, 7.0, 250.0]


class TestSummedCoefficients:
    """log_h_sum(h_summary(s), c) and log_b_sum(b_summary(s), c) against the
    sums of log_h and log_b."""

    @staticmethod
    def check(log_fn, summary_fn, sum_fn, s, c):
        with np.errstate(all="ignore"):
            terms = np.asarray(log_fn(s, c), dtype=float)
        direct = float(np.sum(terms))
        summed = sum_fn(summary_fn(s), c)
        if not math.isfinite(direct):
            assert not math.isfinite(summed)
            return
        # relative to the cancellation in the sum, not a looser absolute bound
        tol = 1e-12 * (abs(direct) + float(np.sum(np.abs(terms))))
        assert abs(summed - direct) <= tol

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_sums_match_the_direct_sums(self, kind):
        fam = get_family(kind)
        node_sums, link_values, cs = _summary_inputs(kind)
        for c in cs:
            assert np.all(np.isfinite(fam.log_h(node_sums, c)))
            assert np.all(np.isfinite(fam.log_b(link_values, c)))
            self.check(fam.log_h, fam.h_summary, fam.log_h_sum, node_sums, c)
            self.check(fam.log_b, fam.b_summary, fam.log_b_sum, link_values, c)

    @pytest.mark.parametrize("kind", [FamilyKind.NORMAL, FamilyKind.GAMMA,
                                      FamilyKind.INVERSE_GAMMA])
    def test_out_of_support_intensity_is_not_an_error(self, kind):
        fam = get_family(kind)
        node_sums, link_values, _ = _summary_inputs(kind)
        for c in (0.0, -1.0, -2.5, float("nan")):
            self.check(fam.log_h, fam.h_summary, fam.log_h_sum, node_sums, c)
            self.check(fam.log_b, fam.b_summary, fam.log_b_sum, link_values, c)


class TestScaledStudentElementwise:
    """gsst has no closed-form array path: on arrays, each element is the
    scalar call, made in C order with the same generator."""

    fam = get_family("gsst")
    s = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.3]])
    c = np.array([3.0, 4.0, 5.5])

    def test_log_h_on_arrays_is_the_scalar_call(self):
        expected = [[self.fam.log_h(self.s[i, j], self.c[j]) for j in range(3)]
                    for i in range(2)]
        assert np.array_equal(self.fam.log_h(self.s, self.c), expected)

    def test_sample_w_on_arrays_is_the_scalar_call(self):
        draws = self.fam.sample_w(self.s, self.c, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = [[self.fam.sample_w(self.s[i, j], self.c[j], rng) for j in range(3)]
                    for i in range(2)]
        assert np.array_equal(draws, expected)

    def test_sample_w_on_many_elements_is_the_scalar_call(self):
        # math.tan and np.tan round about 1 angle in 200 apart in the last
        # bit, so 2000 draws from one table tell them apart
        s = np.full(2000, 0.5)
        draws = self.fam.sample_w(s, 3.0, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        expected = [self.fam.sample_w(0.5, 3.0, rng) for _ in range(s.size)]
        assert np.array_equal(draws, expected)

    def test_sample_link_on_arrays_is_the_scalar_call(self):
        w = np.array([[0.2, -0.4], [1.1, 0.0]])
        draws = self.fam.sample_link(w, 2.5, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        expected = [[self.fam.sample_link(w[i, j], 2.5, rng) for j in range(2)]
                    for i in range(2)]
        assert np.array_equal(draws, expected)

    def test_simulate_output_is_pinned(self):
        import hashlib

        from qvgraph.model import ModelParams, simulate

        edges = np.array([[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]])
        data, latents = simulate(ModelParams("gsst", 0.5, 3.0, edges), 6, 11)
        h = hashlib.sha256()
        for a in (data.y, latents.w, latents.links):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        # pins the per-element calls and their order (numpy 2.4, scipy 1.17, x86-64)
        assert h.hexdigest()[:16] == "f3e6cb9500bc98e0"
