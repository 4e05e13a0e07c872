import math

import numpy as np
import pytest
from scipy import stats

from qvgraph import inference, model
from qvgraph.errors import DomainError, InfiniteVarianceError, SingularModelError
from qvgraph.families import FamilyKind
from qvgraph.model import (
    Dataset,
    Latents,
    ModelParams,
    correlation_matrix,
    log_extended_likelihood,
    marginal_moments,
    node_sums,
    pairwise_correlation,
    precision_check_3x3,
    simulate,
)
from qvgraph.presets import FIVE_AREA_NONNEIGHBORS, five_area_params

from conftest import permute_pairs


def tri_params(kind=FamilyKind.NORMAL, s0=0.0, c0=1.5, c12=1.0, c13=2.0, c23=0.5):
    edges = np.array([[0.0, c12, c13], [c12, 0.0, c23], [c13, c23, 0.0]])
    return ModelParams(kind, s0, c0, edges)


class TestModelParams:
    def test_rejects_asymmetric(self):
        edges = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DomainError):
            ModelParams(FamilyKind.NORMAL, 0.0, 1.0, edges)

    def test_rejects_nonzero_diagonal(self):
        edges = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            ModelParams(FamilyKind.NORMAL, 0.0, 1.0, edges)

    def test_rejects_negative_intensity(self):
        edges = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            ModelParams(FamilyKind.NORMAL, 0.0, 1.0, edges)

    def test_beta_needs_integer_intensities(self):
        edges = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(DomainError):
            ModelParams(FamilyKind.BETA, 2.0, 5.0, edges)

    def test_beta_needs_s0_below_c0(self):
        edges = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            ModelParams(FamilyKind.BETA, 10.0, 10.0, edges)

    def test_zero_intensities_representable(self):
        params = ModelParams(FamilyKind.GAMMA, 2.0, 3.0, np.zeros((3, 3)))
        assert params.row_sums.tolist() == [0.0, 0.0, 0.0]

    def test_params_immutable(self):
        params = tri_params()
        with pytest.raises(ValueError):
            params.edge_intensity[0, 1] = 9.0


class TestDataset:
    def test_default_names(self):
        data = Dataset(y=np.ones((2, 3)))
        assert data.node_names == ["y1", "y2", "y3"]

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Dataset(y=np.ones((3, 1)))

    def test_support_validation_names_cell(self):
        from qvgraph.errors import SupportViolationError

        data = Dataset(y=np.array([[0.5, 0.2], [0.4, 1.0]]))
        with pytest.raises(SupportViolationError) as err:
            data.validate_support("beta")
        assert err.value.row == 2
        assert err.value.column == 2


class TestSimulate:
    def test_benchmark_shape(self):
        params = five_area_params()
        data, latents = simulate(params, 500, 1)
        assert data.y.shape == (500, 5)
        assert latents.w.shape == (500,)
        assert latents.links.shape == (500, 10)

    def test_deterministic_given_seed(self):
        params = tri_params()
        a, _ = simulate(params, 50, 123)
        b, _ = simulate(params, 50, 123)
        assert np.array_equal(a.y, b.y)

    def test_zero_edges_give_independent_nodes(self):
        params = ModelParams(FamilyKind.GAMMA, 2.0, 3.0, np.zeros((3, 3)))
        data, latents = simulate(params, 200_000, 2)
        emp = np.corrcoef(data.y.T)
        off = emp[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.01
        assert np.all(latents.links[:100] == 0.0)

    def test_two_node_closed_form_correlation(self):
        # per the dependence formula at p = 2: c12 / (c0 + c12) = 0.5
        params = ModelParams(
            FamilyKind.NORMAL, 0.0, 1.0, np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        data, _ = simulate(params, 1_000_000, 3)
        emp = np.corrcoef(data.y.T)[0, 1]
        se = (1.0 - 0.5**2) / math.sqrt(1_000_000)
        assert emp == pytest.approx(0.5, abs=3 * se)

    def test_scaled_student_forward_simulation(self):
        # numeric-grid samplers cover the heavy-tailed member as well
        params = ModelParams(
            FamilyKind.GSST, 6.0, 10.0, np.array([[0.0, 1.5], [1.5, 0.0]])
        )
        data, _ = simulate(params, 1500, 7)
        mean, variance = marginal_moments(params)
        for j in range(2):
            col = data.y[:, j]
            se = col.std(ddof=1) / math.sqrt(col.size)
            assert col.mean() == pytest.approx(mean, abs=4 * se)
        target = pairwise_correlation(params, 0, 1)
        assert np.corrcoef(data.y.T)[0, 1] == pytest.approx(target, abs=0.08)


class TestMarginalMoments:
    def test_normal(self):
        params = ModelParams(
            FamilyKind.NORMAL, 0.75 * 4.0, 4.0, np.zeros((2, 2))
        )
        assert marginal_moments(params) == pytest.approx((0.75, 0.25))

    def test_inverse_gamma_benchmark_values(self):
        params = five_area_params()
        assert marginal_moments(params) == pytest.approx((0.6, 0.04))

    def test_gamma(self):
        params = ModelParams(FamilyKind.GAMMA, 2.0, 4.0, np.zeros((2, 2)))
        assert marginal_moments(params) == pytest.approx((0.5, 0.125))

    def test_infinite_variance_regime(self):
        params = ModelParams(FamilyKind.INVERSE_GAMMA, 2.0, 1.0, np.zeros((2, 2)))
        with pytest.raises(InfiniteVarianceError):
            marginal_moments(params)
        # simulation is still permitted in that regime
        data, _ = simulate(params, 10, 5)
        assert data.y.shape == (10, 2)

    @pytest.mark.parametrize(
        "kind,s0,c0",
        [
            (FamilyKind.NORMAL, 6.0, 10.0),
            (FamilyKind.GAMMA, 6.0, 10.0),
            (FamilyKind.INVERSE_GAMMA, 6.0, 10.0),
            (FamilyKind.BETA, 6.0, 10.0),
            (FamilyKind.INVERSE_BETA, 6.0, 10.0),
        ],
    )
    def test_monte_carlo_agreement(self, kind, s0, c0):
        intensity = 2.0 if kind not in (FamilyKind.BETA, FamilyKind.INVERSE_BETA) else 2
        edges = np.array([[0.0, intensity], [intensity, 0.0]])
        params = ModelParams(kind, s0, c0, edges)
        mean, variance = marginal_moments(params)
        data, _ = simulate(params, 50_000, 6)
        for j in range(2):
            col = data.y[:, j]
            se_mean = col.std(ddof=1) / math.sqrt(col.size)
            assert col.mean() == pytest.approx(mean, abs=4 * se_mean)
            est = col.var(ddof=1)
            centered = col - col.mean()
            se_var = math.sqrt((np.mean(centered**4) - est**2) / col.size)
            assert est == pytest.approx(variance, abs=4 * se_var)


class TestPairwiseCorrelation:
    def test_zero_edges(self):
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.0, np.zeros((3, 3)))
        assert pairwise_correlation(params, 0, 1) == 0.0

    def test_product_identity_when_one_edge_vanishes(self):
        params = tri_params(c12=0.0, c13=2.0, c23=3.0)
        r12 = pairwise_correlation(params, 0, 1)
        r13 = pairwise_correlation(params, 0, 2)
        r23 = pairwise_correlation(params, 1, 2)
        assert r12 == pytest.approx(r13 * r23, abs=1e-15)
        c0 = params.c0
        assert r13 == pytest.approx(2.0 / (c0 + 2.0))
        assert r12 == pytest.approx(
            2.0 * 3.0 / ((c0 + 2.0) * (c0 + 3.0))
        )

    def test_equal_edge_triangle_frozen_value(self):
        # direct evaluation of the closed form at c0 = 10, every edge e^2:
        # (10 e^2 + 4 e^4) / (10 + 2 e^2)^2 = 0.4760662188...
        e2 = math.exp(2.0)
        params = tri_params(
            kind=FamilyKind.NORMAL, s0=0.0, c0=10.0, c12=e2, c13=e2, c23=e2
        )
        assert pairwise_correlation(params, 0, 1) == pytest.approx(
            0.4760662188, abs=1e-9
        )

    def test_monte_carlo_cross_check(self):
        e2 = math.exp(2.0)
        params = tri_params(
            kind=FamilyKind.NORMAL, s0=0.0, c0=10.0, c12=e2, c13=e2, c23=e2
        )
        data, _ = simulate(params, 400_000, 8)
        emp = np.corrcoef(data.y.T)[0, 1]
        assert emp == pytest.approx(0.4760662188, abs=0.01)

    def test_index_errors(self):
        params = tri_params()
        with pytest.raises(IndexError):
            pairwise_correlation(params, 1, 1)
        with pytest.raises(IndexError):
            pairwise_correlation(params, 0, 7)

    def test_nonnegative_and_below_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = 4
            edges = np.zeros((p, p))
            iu = np.triu_indices(p, 1)
            edges[iu] = rng.gamma(1.0, 2.0, size=len(iu[0]))
            edges += edges.T
            params = ModelParams(FamilyKind.NORMAL, 0.0, rng.uniform(0.5, 5.0), edges)
            corr = correlation_matrix(params)
            off = corr[~np.eye(p, dtype=bool)]
            assert np.all(off >= 0.0)
            assert np.all(off < 1.0)


class TestCorrelationMatrix:
    def test_two_node_closed_form(self):
        params = ModelParams(
            FamilyKind.NORMAL, 0.0, 3.0, np.array([[0.0, 2.0], [2.0, 0.0]])
        )
        expected = 2.0 / (3.0 + 2.0)
        assert correlation_matrix(params) == pytest.approx(
            np.array([[1.0, expected], [expected, 1.0]])
        )

    def test_identity_when_no_edges(self):
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.0, np.zeros((4, 4)))
        assert np.array_equal(correlation_matrix(params), np.eye(4))

    def test_missing_edge_zeroes_precision_entry(self):
        params = tri_params(c12=0.0, c13=2.0, c23=3.0)
        inv = np.linalg.inv(correlation_matrix(params))
        assert abs(inv[0, 1]) < 1e-12

    def test_positive_semidefinite_over_random_draws(self):
        rng = np.random.default_rng(11)
        kinds = [
            FamilyKind.NORMAL,
            FamilyKind.GAMMA,
            FamilyKind.INVERSE_GAMMA,
            FamilyKind.BETA,
            FamilyKind.INVERSE_BETA,
            FamilyKind.GSST,
        ]
        for kind in kinds:
            integer = kind in (FamilyKind.BETA, FamilyKind.INVERSE_BETA)
            for _ in range(1000 // len(kinds) + 1):
                p = int(rng.integers(2, 6))
                edges = np.zeros((p, p))
                iu = np.triu_indices(p, 1)
                raw = rng.gamma(1.0, 2.0, size=len(iu[0]))
                edges[iu] = np.round(raw) if integer else raw
                edges += edges.T
                s0, c0 = (6.0, 10.0) if kind is not FamilyKind.NORMAL else (0.0, 2.0)
                params = ModelParams(kind, s0, c0, edges)
                eigs = np.linalg.eigvalsh(correlation_matrix(params))
                assert eigs.min() > -1e-10


class TestPrecisionCheck:
    def test_uncorrelated_case(self):
        params = ModelParams(FamilyKind.NORMAL, 0.0, 2.5, np.zeros((3, 3)))
        d, precision = precision_check_3x3(params)
        assert d == pytest.approx(1.0)
        assert precision == pytest.approx(2.5 * np.eye(3))

    def test_missing_edge_entry_is_zero(self):
        params = tri_params(c12=0.0, c13=2.0, c23=3.0)
        _, precision = precision_check_3x3(params)
        assert abs(precision[0, 1]) < 1e-12

    def test_matches_generic_inverse(self):
        params = tri_params(c12=1.3, c13=0.2, c23=2.6)
        _, precision = precision_check_3x3(params)
        oracle = np.linalg.inv(correlation_matrix(params) / params.c0)
        assert np.abs(precision - oracle).max() < 1e-10

    def test_requires_three_nodes(self):
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.0, np.zeros((2, 2)))
        with pytest.raises(DomainError):
            precision_check_3x3(params)

    def test_singularity_signal(self):
        # a perfectly correlated limit is not reachable with finite
        # intensities, so force D ~ 0 with near-identical huge edges
        big = 1e12
        params = tri_params(c12=big, c13=big, c23=big, c0=1e-9)
        with pytest.raises(SingularModelError):
            precision_check_3x3(params)


class TestExtendedLikelihood:
    def gamma_instance(self):
        params = ModelParams(
            FamilyKind.GAMMA, 2.0, 3.0, np.array([[0.0, 1.5], [1.5, 0.0]])
        )
        data, latents = simulate(params, 1, 99)
        return params, data, latents

    def test_single_replicate_matches_scipy_composition(self):
        params, data, latents = self.gamma_instance()
        w, s_link = latents.w[0], latents.links[0, 0]
        s_star = 2.0 + s_link
        c_star = 3.0 + 1.5
        manual = (
            stats.gamma.logpdf(w, 2.0, scale=1.0 / 3.0)
            + stats.poisson.logpmf(int(s_link), 1.5 * w)
            + stats.gamma.logpdf(data.y[0, 0], s_star, scale=1.0 / c_star)
            + stats.gamma.logpdf(data.y[0, 1], s_star, scale=1.0 / c_star)
        )
        assert log_extended_likelihood(params, data, latents) == pytest.approx(manual)

    def test_matches_naive_product_on_small_magnitudes(self):
        params, data, latents = self.gamma_instance()
        w, s_link = latents.w[0], latents.links[0, 0]
        s_star, c_star = 2.0 + s_link, 4.5
        naive = (
            stats.gamma.pdf(w, 2.0, scale=1.0 / 3.0)
            * stats.poisson.pmf(int(s_link), 1.5 * w)
            * stats.gamma.pdf(data.y[0, 0], s_star, scale=1.0 / c_star)
            * stats.gamma.pdf(data.y[0, 1], s_star, scale=1.0 / c_star)
        )
        assert log_extended_likelihood(params, data, latents) == pytest.approx(
            math.log(naive)
        )

    def test_permutation_invariance(self):
        params = tri_params(kind=FamilyKind.GAMMA, s0=2.0, c0=3.0)
        data, latents = simulate(params, 4, 12)
        perm = [2, 0, 1]
        edges_p = params.edge_intensity[np.ix_(perm, perm)]
        params_p = ModelParams(FamilyKind.GAMMA, 2.0, 3.0, edges_p)
        data_p = Dataset(y=data.y[:, perm])
        latents_p = Latents(w=latents.w, links=permute_pairs(latents.links, perm))
        assert log_extended_likelihood(params, data, latents) == pytest.approx(
            log_extended_likelihood(params_p, data_p, latents_p)
        )

    def test_additive_over_replicates(self):
        params = tri_params(kind=FamilyKind.GAMMA, s0=2.0, c0=3.0)
        data, latents = simulate(params, 6, 13)
        total = log_extended_likelihood(params, data, latents)
        first = log_extended_likelihood(
            params, Dataset(y=data.y[:2]), Latents(latents.w[:2], latents.links[:2])
        )
        rest = log_extended_likelihood(
            params, Dataset(y=data.y[2:]), Latents(latents.w[2:], latents.links[2:])
        )
        assert total == pytest.approx(first + rest)

    def test_support_violation_flags_minus_inf(self):
        edges = np.array([[0.0, 2.0], [2.0, 0.0]])
        params = ModelParams(FamilyKind.BETA, 2.0, 5.0, edges)
        data, latents = simulate(params, 1, 14)
        bad = latents.links.copy()
        bad[0, 0] = 3.0  # exceeds the trial count
        assert log_extended_likelihood(
            params, data, Latents(w=latents.w, links=bad)
        ) == float("-inf")

    def test_nonzero_link_on_zero_edge_flags_minus_inf(self):
        params = tri_params(kind=FamilyKind.GAMMA, s0=2.0, c0=3.0, c12=0.0)
        data, latents = simulate(params, 1, 15)
        bad = latents.links.copy()
        bad[0, 0] = 1.0  # pair (1, 2)
        assert log_extended_likelihood(
            params, data, Latents(w=latents.w, links=bad)
        ) == float("-inf")

    def test_latent_shapes_are_checked(self):
        params = tri_params(kind=FamilyKind.GAMMA, s0=2.0, c0=3.0)
        data, latents = simulate(params, 4, 16)
        dense = np.zeros((4, 3, 3))  # the symmetric p x p matrix per replicate
        with pytest.raises(DomainError, match=r"\(4, 3\)"):
            log_extended_likelihood(params, data, Latents(w=latents.w, links=dense))
        with pytest.raises(DomainError, match=r"\(4, 3\)"):
            log_extended_likelihood(params, data, Latents(w=latents.w, links=latents.links[:3]))
        with pytest.raises(DomainError, match=r"\(4,\)"):
            log_extended_likelihood(params, data, Latents(w=latents.w[:3], links=latents.links))

    def test_five_area_nonneighbors(self):
        params = five_area_params()
        weak = math.exp(-2.0)
        for j, k in FIVE_AREA_NONNEIGHBORS:
            assert params.edge_intensity[j, k] == weak
        assert (params.edge_intensity > weak).sum() == 14  # 7 strong pairs mirrored


def _mixed_magnitudes(shape, seed):
    """Values whose sum depends on the order of addition."""
    gen = np.random.default_rng(seed)
    return gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)


class TestNodeSums:
    """The node and anchor sums add pair after pair, as ``np.cumsum`` does."""

    @pytest.mark.parametrize("p", [3, 5, 8, 12])
    @pytest.mark.parametrize("lead", [(), (50,), (2, 3, 50)])
    def test_equals_cumulative_sum_bit_for_bit(self, p, lead):
        values = _mixed_magnitudes(lead + (p * (p - 1) // 2,), p)
        ref = np.cumsum(values[..., model._pair_columns(p)], axis=-1)[..., -1]
        assert np.array_equal(node_sums(values, p), ref)

    @pytest.mark.parametrize("p", [3, 5, 8, 12])
    def test_anchor_link_total_equals_cumulative_sum_bit_for_bit(self, p):
        links = _mixed_magnitudes((50, p * (p - 1) // 2), p)
        edges = np.linspace(0.5, 2.0, links.shape[1])
        state = inference.ChainState(FamilyKind.GAMMA, 2.0, 3.0, edges, np.ones(50), links)
        s_i, c_i = inference._anchor_params(state)
        assert np.array_equal(s_i, 2.0 + np.cumsum(links, axis=1)[:, -1])
        assert c_i == 3.0 + float(edges.sum())

    def test_cached_pair_columns_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            model._pair_columns(4)[0, 0] = 5
        assert node_sums(np.arange(6.0), 4).tolist() == [3.0, 7.0, 9.0, 11.0]
