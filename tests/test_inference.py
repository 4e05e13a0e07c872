import copy
import math
import re

import numpy as np
import pytest
from scipy import integrate, special, stats

from qvgraph import inference
from qvgraph.errors import ChainError, DomainError, EnumerationOverflowError
from qvgraph.families import FamilyKind, get_family
from qvgraph.inference import (
    ChainState,
    GammaS0Prior,
    MCMCConfig,
    NormalS0Prior,
    PriorConfig,
    UniformOnC0S0Prior,
    gibbs_sweep,
    initial_state,
    link_conditional_normal_coeffs,
    link_conditional_pmf,
    log_full_conditional_c0,
    log_full_conditional_cjk,
    log_full_conditional_s0,
    log_posterior,
    predictive_mse,
    run_chains,
    sample_link_conditional,
    sample_w_conditional,
    split_chain_psrf,
    summarize,
)
from qvgraph.model import Dataset, ModelParams, node_pairs, node_sums, simulate
from qvgraph.verify import scipy_link_logpdf, scipy_log_joint

from conftest import ks_statistic, ks_threshold, permute_pairs

INFERENCE_KINDS = [k for k in FamilyKind if k is not FamilyKind.GSST]


def schedule_rounds(kind):
    """Rounds of edge moves the family's schedule makes on each pair per sweep."""
    return inference._SCHEDULES[kind][2].count("_update_edge")

SMALL = {
    FamilyKind.NORMAL: dict(s0=1.0, c0=2.0, edges=[[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]]),
    FamilyKind.GAMMA: dict(s0=2.0, c0=3.0, edges=[[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]]),
    FamilyKind.INVERSE_GAMMA: dict(s0=6.0, c0=10.0, edges=[[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]]),
    FamilyKind.BETA: dict(s0=6.0, c0=10.0, edges=[[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]]),
    FamilyKind.INVERSE_BETA: dict(s0=6.0, c0=10.0, edges=[[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]]),
}


def initial_steps(*blocks):
    """Initial step sizes of the three-node models' pair blocks ``blocks``
    (0.8 for the inverse-gamma link walk, else 0.5), with s0 and c0."""
    steps = {"s0": 0.5, "c0": 0.5}
    for block in blocks:
        for j, k in node_pairs(3):
            steps[f"{block}_{j + 1}_{k + 1}"] = 0.8 if block == "link" else 0.5
    return steps


# The step sizes each family's sweep reads: the edge random walk, rescale and
# refresh on the log scale, and the inverse-gamma link walk.
STEP_NAMES = {
    FamilyKind.NORMAL: initial_steps("edge", "scale", "refresh"),
    FamilyKind.INVERSE_GAMMA: initial_steps("edge", "scale", "refresh", "link"),
    FamilyKind.GAMMA: initial_steps("edge", "refresh"),
    FamilyKind.BETA: initial_steps(),
    FamilyKind.INVERSE_BETA: initial_steps(),
}


def make_state(kind, n=3, seed=5):
    cfg = SMALL[kind]
    params = ModelParams(kind, cfg["s0"], cfg["c0"], np.array(cfg["edges"], dtype=float))
    data, latents = simulate(params, n, seed)
    state = ChainState(
        family=params.family, s0=params.s0, c0=params.c0,
        edges=params.edges, w=latents.w, links=latents.links,
    )
    return params, data, state


def node_levels(state):
    """s* and c* of a state of the three-node SMALL models."""
    return state.s0 + node_sums(state.links, 3), state.c0 + node_sums(state.edges, 3)


def candidates(kind, which, state):
    if which == "s0":
        return {
            FamilyKind.NORMAL: (0.3, 1.7),
            FamilyKind.BETA: (3.0, 8.0),
        }.get(kind, (1.2, 4.0))
    if which == "c0":
        return (11.0, 14.0) if kind is FamilyKind.BETA else (1.7, 5.0)
    fam = get_family(kind)
    if fam.integer_intensity:
        floor = max(1.0, float(state.links[:, 0].max()))
        return (floor, floor + 2.0)
    return (0.9, 3.3)


class TestPriorConfig:
    def test_default_forms(self):
        assert isinstance(PriorConfig.default_for("normal").s0_prior, NormalS0Prior)
        assert isinstance(PriorConfig.default_for("gsst").s0_prior, NormalS0Prior)
        assert isinstance(PriorConfig.default_for("gamma").s0_prior, GammaS0Prior)
        assert isinstance(PriorConfig.default_for("beta").s0_prior, UniformOnC0S0Prior)

    def test_mismatch_rejected(self):
        prior = PriorConfig.default_for("normal")
        with pytest.raises(DomainError):
            prior.validate_for("gamma")

    def test_positive_constants_required(self):
        with pytest.raises(DomainError):
            PriorConfig(a0=0.0)

    def test_uniform_prior_support(self):
        prior = UniformOnC0S0Prior()
        assert prior.logpdf(0.5, 1.0) == pytest.approx(0.0)
        assert prior.logpdf(1.5, 1.0) == float("-inf")

    @pytest.mark.parametrize("form, constants", [(NormalS0Prior, {"tau": 0.0}),
                                                 (GammaS0Prior, {"a": 0.0}),
                                                 (GammaS0Prior, {"b": -1.0})])
    def test_s0_form_constants_checked(self, form, constants):
        with pytest.raises(DomainError, match="s0 prior"):
            form(**constants)

    # shape and rate pairs: the defaults, the vague 0.01 and a shape below 1
    GAMMA_CONSTANTS = [(1.0, 1.0), (0.01, 0.01), (2.5, 0.3), (0.4, 7.0)]

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    @pytest.mark.parametrize("a, b", GAMMA_CONSTANTS)
    def test_gamma_priors_are_the_uncached_density(self, kind, a, b):
        # the log normalizing constant is computed once per prior; every
        # density must still be the full expression, bit for bit
        prior = PriorConfig.default_for(kind, a0=a, b0=b, ac=a, bc=b)
        fam = get_family(kind)
        densities = [prior.log_c0_prior]
        if not fam.integer_intensity:
            densities.append(lambda x: prior.log_edge_prior(fam, x))
        if isinstance(prior.s0_prior, GammaS0Prior):
            s0_prior = GammaS0Prior(a, b)
            densities.append(lambda x: s0_prior.logpdf(x, 1.0))
        for density in densities:
            for x in (1e-300, 0.3, 1.0, 7.5, 1e4):
                expected = a * math.log(b) - special.gammaln(a) + (a - 1) * math.log(x) - b * x
                assert density(x) == expected
            for x in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
                assert density(x) == -math.inf


class TestInitialState:
    """Pinned chain starts of each s0-prior form: (chain, seed) -> (s0, c0, edge
    start), chain 1 jittered down (seed 4) and up (seed 3)."""

    PRIOR = dict(a0=2.0, b0=0.5, d0=3.0, ac=2.0, bc=0.5)
    STARTS = {
        "normal": (NormalS0Prior(mu=1.5, tau=4.0), {
            (0, 3): (1.5, 4.0, 4.0),
            (1, 3): (1.75, 6.594885082800513, 2.4261226388505337),
            (1, 4): (1.25, 2.4261226388505337, 2.4261226388505337),
        }),
        "gamma": (GammaS0Prior(a=3.0, b=2.0), {
            (0, 3): (1.5, 4.0, 4.0),
            (1, 3): (2.4730819060501923, 6.594885082800513, 2.4261226388505337),
            (1, 4): (0.9097959895689501, 2.4261226388505337, 2.4261226388505337),
        }),
        "beta": (UniformOnC0S0Prior(), {
            (0, 3): (2.0, 4.0, 3.0),
            (1, 3): (5.436563656918091, 6.594885082800513, 2.0),
            (1, 4): (0.7357588823428847, 2.4261226388505337, 2.0),
        }),
    }

    @pytest.mark.parametrize("family", sorted(STARTS))
    def test_pinned_starts(self, family):
        form, expected = self.STARTS[family]
        prior = PriorConfig(s0_prior=form, **self.PRIOR)
        data = Dataset(y=np.full((4, 3), 0.5))
        for (chain, seed), start in expected.items():
            state = initial_state(family, data, prior, chain, np.random.default_rng(seed))
            assert (state.s0, state.c0, float(state.edges[0])) == start
            assert np.all(state.edges == state.edges[0])
            assert state.w.shape == (4,) and state.links.shape == (4, 3)


class TestMCMCConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            MCMCConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            MCMCConfig(thinning=0)
        with pytest.raises(DomainError):
            MCMCConfig(chains=0)

    def test_retained_count(self):
        cfg = MCMCConfig(iterations=10_000, burn_in=2_000, thinning=10)
        assert cfg.retained_per_chain == 800

    def test_no_retained_draw_rejected(self):
        with pytest.raises(DomainError, match="retain no draws"):
            MCMCConfig(iterations=10, burn_in=5, thinning=10)
        assert MCMCConfig(iterations=10, burn_in=5, thinning=5).retained_per_chain == 1


class TestChainStateLayout:
    def test_pair_layout_accepted(self):
        params, data, state = make_state(FamilyKind.GAMMA, n=4)
        assert state.edges.shape == (3,) and state.links.shape == (4, 3) and state.p == 3

    def test_dense_links_rejected(self):
        params, data, state = make_state(FamilyKind.GAMMA, n=4)
        dense = np.zeros((4, 3, 3))
        with pytest.raises(DomainError, match=r"\(4, 3\)"):
            ChainState(FamilyKind.GAMMA, 2.0, 3.0, state.edges, state.w, dense)
        with pytest.raises(DomainError, match=r"\(P,\)"):
            ChainState(FamilyKind.GAMMA, 2.0, 3.0, params.edge_intensity, state.w, state.links)

    def test_wrong_replicate_count_rejected(self):
        params, data, state = make_state(FamilyKind.GAMMA, n=4)
        with pytest.raises(DomainError, match=r"\(3, 3\)"):
            ChainState(FamilyKind.GAMMA, 2.0, 3.0, state.edges, state.w[:3], state.links)
        with pytest.raises(DomainError, match=r"\(n,\)"):
            ChainState(FamilyKind.GAMMA, 2.0, 3.0, state.edges, state.w[:, None], state.links)


class TestFullConditionalsAgainstJoint:
    """Log-difference identity: conditionals must match the independent joint."""

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_s0(self, kind):
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        a, b = candidates(kind, "s0", state)
        d_cond = (log_full_conditional_s0(state, data, prior, a)
                  - log_full_conditional_s0(state, data, prior, b))
        d_joint = (
            scipy_log_joint(kind, data.y, state.w, state.links, a, state.c0, state.edges, prior)
            - scipy_log_joint(kind, data.y, state.w, state.links, b, state.c0, state.edges, prior)
        )
        assert d_cond == pytest.approx(d_joint, abs=1e-8)

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_c0(self, kind):
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        a, b = candidates(kind, "c0", state)
        d_cond = (log_full_conditional_c0(state, data, prior, a)
                  - log_full_conditional_c0(state, data, prior, b))
        d_joint = (
            scipy_log_joint(kind, data.y, state.w, state.links, state.s0, a, state.edges, prior)
            - scipy_log_joint(kind, data.y, state.w, state.links, state.s0, b, state.edges, prior)
        )
        assert d_cond == pytest.approx(d_joint, abs=1e-8)

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_edge(self, kind):
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        a, b = candidates(kind, "edge", state)

        def with_edge(value):
            e = state.edges.copy()
            e[0] = value  # pair (1, 2)
            return e

        d_cond = (log_full_conditional_cjk(state, data, prior, 0, 1, a)
                  - log_full_conditional_cjk(state, data, prior, 0, 1, b))
        d_joint = (
            scipy_log_joint(kind, data.y, state.w, state.links, state.s0, state.c0, with_edge(a), prior)
            - scipy_log_joint(kind, data.y, state.w, state.links, state.s0, state.c0, with_edge(b), prior)
        )
        assert d_cond == pytest.approx(d_joint, abs=1e-8)

    def test_relabeling_leaves_differences_unchanged(self):
        kind = FamilyKind.GAMMA
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        a, b = candidates(kind, "s0", state)
        base = (log_full_conditional_s0(state, data, prior, a)
                - log_full_conditional_s0(state, data, prior, b))
        perm = [2, 0, 1]
        data_p = Dataset(y=data.y[:, perm])
        state_p = ChainState(
            family=kind, s0=state.s0, c0=state.c0,
            edges=permute_pairs(state.edges, perm),
            w=state.w.copy(), links=permute_pairs(state.links, perm),
        )
        permuted = (log_full_conditional_s0(state_p, data_p, prior, a)
                    - log_full_conditional_s0(state_p, data_p, prior, b))
        assert base == pytest.approx(permuted, abs=1e-9)

    def test_support_flags(self):
        params, data, state = make_state(FamilyKind.BETA)
        prior = PriorConfig.default_for(FamilyKind.BETA)
        assert log_full_conditional_s0(state, data, prior, state.c0) == float("-inf")
        assert log_full_conditional_s0(state, data, prior, 12.0) == float("-inf")
        assert log_full_conditional_c0(state, data, prior, -1.0) == float("-inf")
        assert log_full_conditional_c0(state, data, prior, state.s0 - 0.5) == float("-inf")
        max_link = float(state.links[:, 0].max())
        if max_link >= 1.0:
            assert log_full_conditional_cjk(
                state, data, prior, 0, 1, max_link - 1.0
            ) == float("-inf")
        params, data, state = make_state(FamilyKind.GAMMA)
        prior = PriorConfig.default_for(FamilyKind.GAMMA)
        assert log_full_conditional_c0(state, data, prior, 0.0) == float("-inf")


CONTINUOUS_LINK_KINDS = [k for k in INFERENCE_KINDS if not get_family(k).discrete_links]


class TestEdgeMoveRatios:
    """The one pair log-ratio of the three edge moves against the scipy joint."""

    def setup_move(self, kind):
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        kernel = inference._SweepKernel(get_family(kind), data, prior)
        s_star, c_star = node_levels(state)
        return data, state, prior, kernel, s_star, c_star

    @staticmethod
    def candidate(kernel, state, s_star, c_star, new_c, new_s, link_level=True):
        """The sweep's ratio and candidate for pair (1, 2), from fresh edge terms."""
        terms = kernel._edge_terms(state, s_star, c_star)
        ratio, cand = kernel._pair_candidate(state, 0, 1, s_star, c_star, new_c, new_s, terms,
                                             link_level)
        return ratio, cand, terms

    def joint_change(self, kind, data, state, prior, new_c, new_s):
        edges, links = state.edges.copy(), state.links.copy()
        edges[0] = new_c  # pair (1, 2)
        links[:, 0] = new_s
        return (
            scipy_log_joint(kind, data.y, state.w, links, state.s0, state.c0, edges, prior)
            - scipy_log_joint(kind, data.y, state.w, state.links, state.s0, state.c0,
                              state.edges, prior)
        )

    @pytest.mark.parametrize("kind, move", [(k, "random_walk") for k in INFERENCE_KINDS]
                             + [(k, "scale") for k in CONTINUOUS_LINK_KINDS])
    def test_moves_with_the_link_level(self, kind, move):
        data, state, prior, kernel, s_star, c_star = self.setup_move(kind)
        cur_c, cur_s = float(state.edges[0]), state.links[:, 0].copy()
        if move == "scale":
            new_c, new_s = 1.4 * cur_c, 1.4 * cur_s
        else:  # links held fixed
            new_c = cur_c + 1.0 if get_family(kind).integer_intensity else 1.3 * cur_c
            new_s = cur_s
        ratio, _, _ = self.candidate(kernel, state, s_star, c_star, new_c, new_s)
        expected = self.joint_change(kind, data, state, prior, new_c, new_s)
        assert ratio == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_refresh_leaves_out_the_link_level(self, kind):
        data, state, prior, kernel, s_star, c_star = self.setup_move(kind)
        fam = get_family(kind)
        cur_c = float(state.edges[0])
        new_c = cur_c + 1.0 if fam.integer_intensity else 0.8 * cur_c
        new_s = np.asarray(fam.sample_link(state.w, new_c, np.random.default_rng(11)),
                           dtype=float)
        ratio, _, _ = self.candidate(kernel, state, s_star, c_star, new_c, new_s,
                                     link_level=False)
        link_level = (
            float(np.sum(scipy_link_logpdf(kind, new_s, state.w, new_c)))
            - float(np.sum(scipy_link_logpdf(kind, state.links[:, 0], state.w, cur_c)))
        )
        expected = self.joint_change(kind, data, state, prior, new_c, new_s) - link_level
        assert ratio == pytest.approx(expected, abs=1e-8)

    def test_binomial_link_above_candidate_is_outside_support(self):
        data, state, prior, kernel, s_star, c_star = self.setup_move(FamilyKind.BETA)
        new_s = np.full(data.n, 2.0)
        ratio, _, _ = self.candidate(kernel, state, s_star, c_star, 1.0, new_s, link_level=False)
        assert ratio == float("-inf")

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_commit_keeps_mirrors_and_node_sums(self, kind):
        data, state, prior, kernel, s_star, c_star = self.setup_move(kind)
        fam = get_family(kind)
        new_c = float(state.edges[0]) + 1.0
        new_s = np.asarray(fam.sample_link(state.w, new_c, np.random.default_rng(3)),
                           dtype=float)
        _, cand, terms = self.candidate(kernel, state, s_star, c_star, new_c, new_s)
        kernel._commit_pair(state, 0, 1, s_star, c_star, new_c, new_s, terms, cand)
        assert state.edges[0] == new_c
        assert np.array_equal(state.links[:, 0], new_s)
        s_fresh, c_fresh = node_levels(state)
        assert np.allclose(s_star, s_fresh, rtol=0, atol=1e-12)
        assert np.allclose(c_star, c_fresh, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    @pytest.mark.parametrize("link_level", [True, False])
    def test_fixed_links_path_is_the_unchanged_links_candidate(self, kind, link_level):
        # new_s=None reads the stored summaries; a copy of the current links
        # goes through the array arithmetic with dS = 0
        data, state, prior, kernel, s_star, c_star = self.setup_move(kind)
        fam = get_family(kind)
        for e, (j, k) in enumerate(kernel.pairs):
            cur_c = float(state.edges[e])
            new_c = cur_c + 1.0 if fam.integer_intensity else 1.3 * cur_c
            terms = kernel._edge_terms(state, s_star, c_star)
            fixed = kernel._pair_candidate(state, j, k, s_star, c_star, new_c, None, terms,
                                           link_level)
            copied = kernel._pair_candidate(state, j, k, s_star, c_star, new_c,
                                            state.links[:, e].copy(), terms, link_level)
            assert fixed[0] == copied[0]
            (h_j, h_k, b_new, lp_new, d_s), other = fixed[1], copied[1]
            assert d_s is None and np.array_equal(other[4], np.zeros(data.n))
            assert lp_new == other[3]
            pairs = [(h_j, other[0]), (h_k, other[1])]
            if link_level:
                pairs.append((b_new, other[2]))
            else:
                assert b_new is None and other[2] is None
            for (value, stat), (other_value, other_stat) in pairs:
                assert value == other_value
                assert np.array_equal(np.asarray(stat), np.asarray(other_stat))


class _LinkDrawStub:
    """A generator whose gamma draws hold ``value`` at one replicate and that
    fails on any uniform."""

    def __init__(self, rng, value):
        self._rng, self.value = rng, value

    def standard_gamma(self, *args, **kwargs):
        draw = self._rng.standard_gamma(*args, **kwargs)
        draw[1] = self.value
        return draw

    def random(self, *args, **kwargs):
        raise AssertionError("drew a uniform")

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRefreshSupportCheck:
    """An inverse-gamma refresh whose gamma link draw leaves (0, inf) is
    rejected before its ratio, without a uniform."""

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_link_draw_outside_the_support_is_rejected(self, value):
        kind = FamilyKind.INVERSE_GAMMA
        _, data, state = make_state(kind, n=6)
        kernel = inference._SweepKernel(get_family(kind), data, PriorConfig.default_for(kind))
        s_star, c_star = node_levels(state)
        terms = kernel._edge_terms(state, s_star, c_star)
        before = copy.deepcopy((state.edges, state.links, state.w, state.s0, state.c0,
                                s_star, c_star))
        kept = {name: copy.deepcopy(getattr(terms, name)) for name in terms.__slots__}
        kernel._update_edge_refresh(state, 0, 1, _LinkDrawStub(np.random.default_rng(2), value),
                                    s_star, c_star, terms)
        assert state.accept == {"refresh_1_2": [0, 1]}
        after = (state.edges, state.links, state.w, state.s0, state.c0, s_star, c_star)
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
        for name, old in kept.items():
            new = getattr(terms, name)
            if isinstance(old, np.ndarray):
                assert np.array_equal(old, new)
            else:
                assert old == new, name


class _ForcedAccept:
    """A generator whose scalar uniform is tiny, so a finite ratio is accepted."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, *args, **kwargs):
        return 1e-300 if not (args or kwargs) else self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _CheckingKernel(inference._SweepKernel):
    """The sweep's kernel, checking the stored edge terms after every edge move.

    Each sweep forces refreshes to accept until one does; every random-walk
    ratio is compared with ``log_full_conditional_cjk`` for its candidate.
    """

    checked = forced = 0

    def check(self, state, s_star, c_star, terms):
        fresh = self._edge_terms(state, s_star, c_star)
        assert terms.h_node == fresh.h_node
        assert terms.b_pair == fresh.b_pair
        assert terms.lp_pair == fresh.lp_pair
        self.checked += 1

    def _pair_candidate(self, *args, **kwargs):
        result = super()._pair_candidate(*args, **kwargs)
        self.last_candidate, self.last_ratio = args[5], result[0]
        return result

    def _update_edge(self, state, j, k, rng, s_star, c_star, terms):
        before = ChainState(family=state.family, s0=state.s0, c0=state.c0,
                            edges=state.edges.copy(), w=state.w, links=state.links.copy())
        super()._update_edge(state, j, k, rng, s_star, c_star, terms)
        expected = log_full_conditional_cjk(before, self.data, self.prior, j, k,
                                            self.last_candidate)
        assert self.last_ratio == pytest.approx(expected, rel=1e-12, abs=1e-9)
        self.check(state, s_star, c_star, terms)

    def _update_edge_scale(self, state, j, k, rng, s_star, c_star, terms):
        super()._update_edge_scale(state, j, k, rng, s_star, c_star, terms)
        self.check(state, s_star, c_star, terms)

    def _update_edge_refresh(self, state, j, k, rng, s_star, c_star, terms):
        counter = state.accept.setdefault(f"refresh_{j + 1}_{k + 1}", [0, 0])
        accepted = counter[0]
        super()._update_edge_refresh(state, j, k, _ForcedAccept(rng) if self.force else rng,
                                     s_star, c_star, terms)
        if self.force and counter[0] > accepted:
            self.force = False
            self.forced += 1
        self.check(state, s_star, c_star, terms)

    def sweep(self, state, rng):
        self.force = True
        return super().sweep(state, rng)


class _Uniforms:
    """A generator stub whose scalar uniforms come from a list; it fails on
    any other draw."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestMetropolisStep:
    """The accept step every scalar block shares."""

    def state(self):
        return make_state(FamilyKind.NORMAL)[2]

    @pytest.mark.parametrize("ratio", [-math.inf, math.inf, math.nan])
    def test_ratio_not_finite_is_rejected_without_a_draw(self, ratio):
        state = self.state()
        assert not inference._metropolis(state, "edge_1_2", ratio, _Uniforms())
        assert state.accept == {"edge_1_2": [0, 1]}

    def test_accepts_when_log_uniform_is_below_the_ratio(self):
        state = self.state()
        rng = _Uniforms(0.5, 0.5, 0.5)  # log 0.5 = -0.693
        assert inference._metropolis(state, "c0", 0.0, rng)
        assert not inference._metropolis(state, "c0", -1.0, rng)
        assert inference._metropolis(state, "c0", -0.5, rng)
        assert state.accept["c0"] == [2, 3] and rng.values == []


class TestAttemptBookkeeping:
    """Every block counts each of its attempts, accepted or not."""

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_each_block_counts_every_attempt(self, kind, monkeypatch):
        params, data, _ = make_state(kind, n=6)
        prior = PriorConfig.default_for(kind)
        fam = get_family(kind)
        state = initial_state(kind, data, prior, 0, np.random.default_rng(3))
        if fam.integer_intensity:
            # from intensity 1 the +-1 refresh can propose 0, which is
            # rejected before any link is drawn
            assert np.all(state.edges == 1.0)
        link_draws = []
        original = type(fam).sample_link
        monkeypatch.setattr(type(fam), "sample_link",
                            lambda self, *args: link_draws.append(1) or original(self, *args))
        sweeps = 3
        rng = np.random.default_rng(8)
        for _ in range(sweeps):
            gibbs_sweep(state, data, prior, rng)
        per_pair = sweeps * schedule_rounds(kind)
        expected = {"c0": sweeps, "s0": sweeps}
        for j, k in node_pairs(3):
            label = f"{j + 1}_{k + 1}"
            expected[f"edge_{label}"] = expected[f"refresh_{label}"] = per_pair
            if not fam.discrete_links:
                expected[f"scale_{label}"] = per_pair
            if kind is FamilyKind.INVERSE_GAMMA:
                expected[f"link_{label}"] = sweeps * data.n  # the second, counted accept
        assert {name: tries for name, (_, tries) in state.accept.items()} == expected
        assert all(0 <= acc <= tries for acc, tries in state.accept.values())
        refreshes = len(node_pairs(3)) * per_pair
        if fam.integer_intensity:
            assert len(link_draws) < refreshes
        else:
            assert len(link_draws) == refreshes


def accepted_moves(state, move):
    return sum(acc for name, (acc, _) in state.accept.items() if name.startswith(move + "_"))


class TestEdgeTermsCache:
    """The current-state sums the edge moves keep against a fresh recomputation."""

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_stored_sums_equal_a_recomputation(self, kind):
        params, data, state = make_state(kind, n=20)
        prior = PriorConfig.default_for(kind)
        kernel = _CheckingKernel(get_family(kind), data, prior)
        rounds = 2  # the schedule's first two rounds
        kernel._edge_moves = kernel._edge_moves[: len(kernel._edge_moves) * rounds
                                                // schedule_rounds(kind)]
        rng = np.random.default_rng(4)
        for _ in range(4):
            kernel.sweep(state, rng)
        continuous = not get_family(kind).discrete_links
        assert kernel.checked == 4 * len(kernel.pairs) * rounds * (2 + continuous)
        assert kernel.forced >= 1
        assert accepted_moves(state, "scale" if continuous else "edge") >= 1

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_full_conditional_is_the_random_walk_ratio(self, kind):
        params, data, state = make_state(kind)
        prior = PriorConfig.default_for(kind)
        kernel = inference._SweepKernel(get_family(kind), data, prior)
        s_star, c_star = node_levels(state)
        terms = kernel._edge_terms(state, s_star, c_star)
        for e, (j, k) in enumerate(kernel.pairs):
            for factor in (0.5, 1.5, 3.0):
                new_c = float(np.ceil(factor * state.edges[e]))
                ratio, _ = kernel._pair_candidate(state, j, k, s_star, c_star, new_c, None,
                                                  terms)
                assert ratio == log_full_conditional_cjk(state, data, prior, j, k, new_c)


SUMMED_KINDS = [FamilyKind.NORMAL, FamilyKind.GAMMA, FamilyKind.INVERSE_GAMMA]
SUMMARY_FNS = ("log_h", "log_b", "h_summary", "b_summary")


class TestIntensityOnlyMoves:
    """The edge random walk and the c0 step read the cached summaries."""

    def setup_terms(self, kind):
        params, data, state = make_state(kind, n=20)
        prior = PriorConfig.default_for(kind)
        kernel = inference._SweepKernel(get_family(kind), data, prior)
        s_star, c_star = node_levels(state)
        return data, prior, state, kernel, s_star, c_star, kernel._edge_terms(state, s_star, c_star)

    @staticmethod
    def spy(monkeypatch, fam):
        calls = []
        for name in SUMMARY_FNS:
            def wrapper(*args, _fn=getattr(fam, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(fam, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind", SUMMED_KINDS)
    def test_no_n_length_call(self, kind, monkeypatch):
        data, prior, state, kernel, s_star, c_star, terms = self.setup_terms(kind)
        before = ChainState(family=state.family, s0=state.s0, c0=state.c0,
                            edges=state.edges.copy(), w=state.w, links=state.links.copy())
        calls = self.spy(monkeypatch, kernel.fam)
        ratios = {}
        for e, (j, k) in enumerate(kernel.pairs):
            new_c = 1.3 * float(state.edges[e])
            ratios[j, k, new_c] = kernel._pair_candidate(state, j, k, s_star, c_star, new_c,
                                                         None, terms)[0]
        kernel._update_c0(state, np.random.default_rng(0), terms, node_sums(state.edges, 3))
        assert calls == []
        assert state.accept["c0"][1] == 1
        monkeypatch.undo()
        for (j, k, new_c), ratio in ratios.items():
            expected = log_full_conditional_cjk(before, data, prior, j, k, new_c)
            assert ratio == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("kind", [k for k in INFERENCE_KINDS if k not in SUMMED_KINDS])
    def test_default_path_is_the_array_sum(self, kind, monkeypatch):
        data, prior, state, kernel, s_star, c_star, terms = self.setup_terms(kind)
        fam = kernel.fam
        m_w_total = float(np.sum(fam.cumulant(state.w)))
        for e, (j, k) in enumerate(kernel.pairs):
            cur_c = float(state.edges[e])
            new_c = cur_c + 1.0
            d_c = new_c - cur_c
            # the ratio as summed over the arrays, in the sampler's order
            expected = (prior.log_edge_prior(fam, new_c) - prior.log_edge_prior(fam, cur_c))
            for node in (j, k):
                h_new = float(np.sum(fam.log_h(s_star[:, node], c_star[node] + d_c)))
                h_cur = float(np.sum(fam.log_h(s_star[:, node], c_star[node])))
                expected += (h_new - h_cur) + 0.0 - d_c * kernel.m_y_node[node]
            b_new = float(np.sum(fam.log_b(state.links[:, e], new_c)))
            b_cur = float(np.sum(fam.log_b(state.links[:, e], cur_c)))
            expected += (b_new - b_cur) + 0.0 - d_c * m_w_total
            calls = self.spy(monkeypatch, fam)
            ratio, _ = kernel._pair_candidate(state, j, k, s_star, c_star, new_c, None, terms)
            monkeypatch.undo()
            assert ratio == expected
            assert ratio == log_full_conditional_cjk(state, data, prior, j, k, new_c)
            assert calls.count("log_h") == 2 and calls.count("log_b") == 1


class TestLinkConditional:
    def test_normal_completed_square_matches_quadratic_fit(self):
        params, data, state = make_state(FamilyKind.NORMAL)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        mean, sd = link_conditional_normal_coeffs(state, data, 0, 0, 1)
        links = state.links.copy()

        def joint_at(t):
            links[0, 0] = t  # replicate 0, pair (1, 2)
            return scipy_log_joint(FamilyKind.NORMAL, data.y, state.w, links,
                                   state.s0, state.c0, state.edges, prior)

        t0 = state.links[0, 0]
        h = 0.25
        g_m, g_0, g_p = joint_at(t0 - h), joint_at(t0), joint_at(t0 + h)
        curv = (g_p + g_m - 2 * g_0) / (h * h)
        slope = (g_p - g_m) / (2 * h)
        assert sd == pytest.approx(math.sqrt(-1.0 / curv), abs=1e-9)
        assert mean == pytest.approx(t0 - slope / curv, abs=1e-9)

    def test_normal_repeated_draws_match_coeffs(self, rng):
        params, data, state = make_state(FamilyKind.NORMAL)
        mean, sd = link_conditional_normal_coeffs(state, data, 0, 0, 1)
        draws = np.empty(40_000)
        for t in range(draws.size):
            state.links[0, 0] = mean  # frozen rest
            draws[t] = sample_link_conditional(state, data, 0, 0, 1, rng)
        assert draws.mean() == pytest.approx(mean, abs=4 * sd / math.sqrt(draws.size))
        assert draws.std(ddof=1) == pytest.approx(sd, rel=0.03)

    def test_beta_single_trial_two_point_mass(self):
        edges = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = ModelParams(FamilyKind.BETA, 2.0, 5.0, edges)
        data, latents = simulate(params, 1, 3)
        state = ChainState(FamilyKind.BETA, 2.0, 5.0, params.edges, latents.w, latents.links)
        values, probs = link_conditional_pmf(state, data, 0, 0, 1)
        assert values.tolist() == [0.0, 1.0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kind", [FamilyKind.GAMMA, FamilyKind.INVERSE_BETA, FamilyKind.BETA])
    def test_enumeration_matches_brute_force(self, kind):
        params, data, state = make_state(kind, n=1)
        prior = PriorConfig.default_for(kind)
        values, probs = link_conditional_pmf(state, data, 0, 0, 1)
        upper = int(values[-1]) if kind is FamilyKind.BETA else max(200, int(values[-1]))
        grid = np.arange(0, upper + 1)
        logs = np.empty(grid.size)
        links = state.links.copy()
        for idx, v in enumerate(grid):
            links[0, 0] = float(v)
            logs[idx] = scipy_log_joint(kind, data.y, state.w, links,
                                        state.s0, state.c0, state.edges, prior)
        logs -= logs.max()
        brute = np.exp(logs)
        brute /= brute.sum()
        ours = np.zeros(grid.size)
        ours[values.astype(int)] = probs
        assert 0.5 * np.abs(ours - brute).sum() < 1e-10

    def test_inverse_gamma_mh_reaches_numeric_conditional(self, rng):
        edges = np.array([[0.0, 2.0], [2.0, 0.0]])
        params = ModelParams(FamilyKind.INVERSE_GAMMA, 6.0, 10.0, edges)
        data, latents = simulate(params, 1, 3)
        state = ChainState(FamilyKind.INVERSE_GAMMA, 6.0, 10.0, params.edges, latents.w,
                           latents.links)
        w = state.w[0]
        grid = np.linspace(1e-9, 60.0, 200_001)
        logs = (
            stats.invgamma.logpdf(data.y[0, 0], 13.0, scale=6.0 + grid)
            + stats.invgamma.logpdf(data.y[0, 1], 13.0, scale=6.0 + grid)
            + stats.gamma.logpdf(grid, 2.0, scale=w)
        )
        logs -= logs.max()
        pdf = np.exp(logs)
        pdf /= np.trapezoid(pdf, grid)
        cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        draws = []
        for it in range(30_000):
            v = sample_link_conditional(state, data, 0, 0, 1, rng)
            if it >= 2_000 and it % 10 == 0:
                draws.append(v)
        draws = np.array(draws)
        ks = ks_statistic(draws, lambda x: np.interp(x, grid, cdf))
        assert ks < 3.0 * ks_threshold(len(draws))  # autocorrelation allowance

    def test_requires_positive_intensity(self, rng):
        params, data, state = make_state(FamilyKind.GAMMA)
        state.edges[0] = 0.0
        with pytest.raises(DomainError):
            sample_link_conditional(state, data, 0, 0, 1, rng)

    def test_zero_anchor_is_rejected_before_any_grid(self, rng, monkeypatch):
        params, data, state = make_state(FamilyKind.GAMMA, n=1)
        state.w[0] = 0.0  # theta(0) = log 0: the link mass has no tail

        def no_grid(*args):
            raise AssertionError("an enumeration grid was built")

        monkeypatch.setattr(inference, "_enum_link_logmass", no_grid)
        with np.errstate(divide="ignore"), pytest.raises(DomainError, match="replicate 0"):
            sample_link_conditional(state, data, 0, 0, 1, rng)

    def test_pmf_requires_positive_intensity(self, rng):
        # every single-replicate link conditional, over one parameter list
        for kind, call in [(FamilyKind.GAMMA, sample_link_conditional),
                           (FamilyKind.GAMMA, link_conditional_pmf),
                           (FamilyKind.NORMAL, link_conditional_normal_coeffs)]:
            params, data, state = make_state(kind)
            state.edges[2] = 0.0
            args = (rng,) if call is sample_link_conditional else ()
            with pytest.raises(DomainError, match="positive edge intensity"):
                call(state, data, 0, 2, 1, *args)

    def test_node_order_does_not_matter(self):
        params, data, state = make_state(FamilyKind.NORMAL)
        assert (link_conditional_normal_coeffs(state, data, 0, 2, 1)
                == link_conditional_normal_coeffs(state, data, 0, 1, 2))

    @pytest.mark.parametrize("nodes", [(1, 1), (0, 5), (5, 0), (-1, 2)])
    @pytest.mark.parametrize("call", ["sample", "pmf", "normal_coeffs", "cjk"])
    def test_bad_node_pair_is_an_index_error(self, call, nodes, rng):
        kind = FamilyKind.NORMAL if call == "normal_coeffs" else FamilyKind.GAMMA
        params, data, state = make_state(kind)
        j, k = nodes
        run = {
            "sample": lambda: sample_link_conditional(state, data, 0, j, k, rng),
            "pmf": lambda: link_conditional_pmf(state, data, 0, j, k),
            "normal_coeffs": lambda: link_conditional_normal_coeffs(state, data, 0, j, k),
            "cjk": lambda: log_full_conditional_cjk(state, data, PriorConfig.default_for(kind),
                                                    j, k, 1.0),
        }[call]
        with pytest.raises(IndexError, match="two distinct nodes"):
            run()

    @pytest.mark.parametrize("kind, message", [
        (FamilyKind.GAMMA, "exceeded 32 states"),  # the adaptive grid
        (FamilyKind.BETA, "over 201 states exceeds the cap"),  # the binomial grid 0..c_jk
    ], ids=["gamma", "beta"])
    def test_tiny_enumeration_cap_overflows(self, kind, message, rng, monkeypatch):
        params, data, state = make_state(kind, n=1)
        if kind is FamilyKind.GAMMA:
            state.w[0] = 1e6  # link mode far past the first grid
        else:
            state.edges[0] = 200.0  # link mode near 100
        monkeypatch.setattr(inference, "_ENUM_MAX_STATES", 32)
        with pytest.raises(EnumerationOverflowError, match=message):
            sample_link_conditional(state, data, 0, 0, 1, rng)
        monkeypatch.undo()
        assert sample_link_conditional(state, data, 0, 0, 1, rng) > 32.0


def _direct_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum):
    """Reference link log-mass evaluated term by term with log-gamma."""
    s = values[None, :]
    return (
        fam.log_h(a_j[:, None] + s, cj)
        + fam.log_h(a_k[:, None] + s, ck)
        + fam.log_b(values, c_jk)[None, :]
        + t_sum[:, None] * s
    )


@pytest.mark.parametrize("kind", [FamilyKind.GAMMA, FamilyKind.INVERSE_BETA])
def test_recurrence_grid_matches_direct_evaluation(kind):
    fam = get_family(kind)
    gen = np.random.default_rng(11)
    r = 201
    a_j = gen.uniform(2.0, 30.0, r) + 0.37  # non-integer node sums
    a_k = gen.uniform(2.0, 30.0, r) + 0.61
    cj, ck, c_jk = 13.5, 11.0, 3.0
    mode = np.repeat([0.3, 50.0, 1000.0], r // 3) + gen.uniform(0.0, 2.0, r)
    # choose t so that the log-ratio of successive masses vanishes at the mode
    t_sum = -(
        fam.log_h_step(a_j + mode, cj)
        + fam.log_h_step(a_k + mode, ck)
        + fam.log_b_step(mode, c_jk)
    )
    values, g, _ = inference._enum_link_grid(fam, a_j, a_k, cj, ck, c_jk, t_sum)
    g = g.T  # (replicates, values), as the reference
    assert values.size > 16 * 2 ** 5  # the first grid doubled several times
    wide = np.arange(0.0, 2.0 * values.size)
    ref = _direct_logmass(fam, wide, a_j, a_k, cj, ck, c_jk, t_sum)
    ref = np.exp(ref - ref.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    ours = np.zeros_like(ref)
    ours[:, : values.size] = np.exp(g - g.max(axis=1, keepdims=True))
    ours /= ours.sum(axis=1, keepdims=True)
    assert np.all(0.5 * np.abs(ours - ref).sum(axis=1) <= 1e-10)


def _row_major_logmass(fam, values, a_j, a_k, cj, ck, c_jk, t_sum):
    """Reference link log-mass: the same log-ratio steps laid out (r, m) and
    accumulated by ``np.cumsum(axis=1)``."""
    s = values[None, :-1]
    g = np.zeros((a_j.shape[0], values.shape[0]))
    g[:, 1:] = (
        fam.log_h_step(a_j[:, None] + s, cj)
        + fam.log_h_step(a_k[:, None] + s, ck)
        + fam.log_b_step(values[:-1], c_jk)[None, :]
        + t_sum[:, None]
    )
    return np.cumsum(g, axis=1)


def _grid_inputs(kind, rows):
    """(c_jk, a_j, a_k, cj, ck, t_sum) of ``rows`` replicates inside the family's
    support; modes of unbounded links reach 60, past two doublings of the grid."""
    fam = get_family(kind)
    gen = np.random.default_rng(rows)
    a_j = gen.uniform(2.0, 30.0, rows) + 0.37
    a_k = gen.uniform(2.0, 30.0, rows) + 0.61
    if kind is FamilyKind.BETA:
        return 6.0, a_j, a_k, 50.0, 45.0, gen.normal(0.0, 2.0, rows)
    cj, ck, c_jk = 13.5, 11.0, 3.0
    mode = gen.choice([0.3, 5.0, 60.0], rows) + gen.uniform(0.0, 2.0, rows)
    t_sum = -(fam.log_h_step(a_j + mode, cj) + fam.log_h_step(a_k + mode, ck)
              + fam.log_b_step(mode, c_jk))
    return c_jk, a_j, a_k, cj, ck, t_sum


# Replicate counts on both sides of the choice between np.cumsum and row adds
_BOTH_SUMS = [1, 40, inference._ROW_ADD_MIN_REPLICATES]


@pytest.mark.parametrize("rows", _BOTH_SUMS)
@pytest.mark.parametrize("kind", [FamilyKind.GAMMA, FamilyKind.BETA, FamilyKind.INVERSE_BETA])
def test_enumerated_grid_equals_row_major_cumsum(kind, rows):
    _, data, _ = make_state(kind)
    kernel = inference._SweepKernel(get_family(kind), data, PriorConfig.default_for(kind))
    c_jk, a_j, a_k, cj, ck, t_sum = _grid_inputs(kind, rows)
    sel = np.arange(rows) if rows > 1 else np.array([2])
    values, g, g_max = kernel._enumerate_links(0, 1, c_jk, a_j, a_k, cj, ck, t_sum, sel)
    if kind is FamilyKind.BETA:
        assert values.size == 7
    elif rows > 1:
        assert values.size >= 4 * inference._ENUM_START + 1  # doubled at least twice
    ref = _row_major_logmass(get_family(kind), values, a_j, a_k, cj, ck, c_jk, t_sum)
    assert np.array_equal(g.T, ref)
    assert np.array_equal(g_max, ref.max(axis=1))
    assert g.flags.c_contiguous  # values-major: the replicate axis is contiguous


class _RowUniforms:
    """A generator stub whose one vector draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


@pytest.mark.parametrize("rows", _BOTH_SUMS[1:])
@pytest.mark.parametrize("m", [1, 5, 8, 17, 33, 129, 300])
def test_rows_softmax_sample_inverts_each_rows_cdf(m, rows):
    gen = np.random.default_rng(m)
    g = (gen.standard_normal((m, rows)) * gen.uniform(0.1, 30.0, rows)).T  # values-major
    row_major = np.ascontiguousarray(g)  # the reference sums along contiguous rows
    probs = np.exp(row_major - row_major.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    # the ends of [0, 1), random uniforms, and a CDF value and its neighbours
    u = gen.random(rows)
    u[:2] = 0.0, 1.0 - 2.0 ** -53
    at = gen.integers(0, m, rows)
    cut = cdf[np.arange(rows), at]
    u[2::3], u[3::3] = cut[2::3], np.nextafter(cut[3::3], 0.0)
    u[4::3] = np.minimum(np.nextafter(cut[4::3], 1.0), 1.0 - 2.0 ** -53)
    idx = inference._rows_softmax_sample(g.T, g.max(axis=1), _RowUniforms(u))
    expected = [min(int(np.searchsorted(cdf[i], u[i])), m - 1) for i in range(rows)]
    assert idx.tolist() == expected


class TestAnchorConditional:
    def test_gamma_exact_distribution(self, rng):
        params, data, state = make_state(FamilyKind.GAMMA, n=2)
        i = 0
        s_star = state.s0 + state.links[i].sum()
        c_star = state.c0 + state.edges.sum()
        n = 100_000
        draws = np.empty(n)
        for t in range(n):
            draws[t] = sample_w_conditional(state, data, i, rng)
            state.w[i] = draws[t]  # frozen rest; the links do not change
        ks = ks_statistic(draws, lambda x: stats.gamma.cdf(x, s_star, scale=1.0 / c_star))
        assert ks < 0.01  # numeric-CDF discrepancy rule at 1e5 draws

    def test_no_edges_reduces_to_prior_form(self, rng):
        edges = np.zeros((2, 2))
        params = ModelParams(FamilyKind.GAMMA, 2.0, 3.0, edges)
        data, latents = simulate(params, 1, 4)
        state = ChainState(FamilyKind.GAMMA, 2.0, 3.0, params.edges, latents.w, latents.links)
        n = 50_000
        draws = np.array([sample_w_conditional(state, data, 0, rng) for _ in range(n)])
        ks = ks_statistic(draws, lambda x: stats.gamma.cdf(x, 2.0, scale=1.0 / 3.0))
        assert ks < ks_threshold(n)

    def test_gsst_rejected(self, rng):
        state = ChainState(FamilyKind.GSST, 0.0, 2.0, np.zeros(1), np.zeros(1), np.zeros((1, 1)))
        data = Dataset(y=np.zeros((1, 2)))
        with pytest.raises(DomainError):
            sample_w_conditional(state, data, 0, rng)


# Every single-site entry point and log_posterior, with a family it accepts.
SINGLE_SITE_CALLS = {
    "s0": (FamilyKind.GAMMA, lambda st, d, pr, rng: log_full_conditional_s0(st, d, pr, st.s0)),
    "c0": (FamilyKind.GAMMA, lambda st, d, pr, rng: log_full_conditional_c0(st, d, pr, st.c0)),
    "cjk": (FamilyKind.GAMMA,
            lambda st, d, pr, rng: log_full_conditional_cjk(st, d, pr, 0, 1, st.edges[0])),
    "link": (FamilyKind.NORMAL,
             lambda st, d, pr, rng: sample_link_conditional(st, d, 0, 0, 1, rng)),
    "w": (FamilyKind.NORMAL, lambda st, d, pr, rng: sample_w_conditional(st, d, 0, rng)),
    "pmf": (FamilyKind.GAMMA, lambda st, d, pr, rng: link_conditional_pmf(st, d, 0, 0, 1)),
    "coeffs": (FamilyKind.NORMAL,
               lambda st, d, pr, rng: link_conditional_normal_coeffs(st, d, 0, 0, 1)),
    "sweep": (FamilyKind.NORMAL, lambda st, d, pr, rng: gibbs_sweep(st, d, pr, rng)),
    "log_posterior": (FamilyKind.NORMAL, lambda st, d, pr, rng: log_posterior(st, d, pr)),
}


def four_node_data(kind):
    edges = np.full((4, 4), 2.0)
    np.fill_diagonal(edges, 0.0)
    cfg = SMALL[kind]
    return simulate(ModelParams(kind, cfg["s0"], cfg["c0"], edges), 5, 8)[0]


class TestStateMatchesData:
    @pytest.mark.parametrize("mismatch", ["replicates", "nodes"])
    @pytest.mark.parametrize("call", SINGLE_SITE_CALLS)
    def test_rejected_before_any_draw(self, call, mismatch):
        kind, run = SINGLE_SITE_CALLS[call]
        if mismatch == "replicates":
            _, _, state = make_state(kind, n=1)
            data = make_state(kind, n=5)[1]
        else:
            _, _, state = make_state(kind, n=5)
            data = four_node_data(kind)
        before = copy.deepcopy(state)
        rng = np.random.default_rng(6)
        stream = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DomainError, match=r"do not match the data's \(n, P\) = "):
            run(state, data, PriorConfig.default_for(kind), rng)
        assert rng.bit_generator.state == stream
        for name in ("s0", "c0", "edges", "w", "links", "log_posterior"):
            assert np.array_equal(getattr(state, name), getattr(before, name)), name
        assert (state.accept, state.step_sizes) == (before.accept, before.step_sizes)


def zero_edge(state):
    state.edges[1] = 0.0  # outside the edge prior's support


def negative_link(state):
    state.links[2, 1] = -1.0


def nan_link(state):
    state.links[2, 1] = math.nan


def link_above_intensity(state):
    state.links[2, 1] = state.edges[1] + 1.0


class TestGibbsSweep:
    def test_zero_steps_freeze_parameters(self, rng):
        # integer-intensity moves are fixed +-1 proposals, so the freeze
        # assertion is stated for a continuous family
        tiny = 1e-12
        params, data, state = make_state(FamilyKind.NORMAL, n=4)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        before = (state.s0, state.c0, state.edges.copy())
        w_before = state.w.copy()
        state.step_sizes = {"s0": tiny, "c0": tiny}
        p = data.p
        for j in range(p):
            for k in range(j + 1, p):
                state.step_sizes[f"edge_{j+1}_{k+1}"] = tiny
                state.step_sizes[f"link_{j+1}_{k+1}"] = tiny
                state.step_sizes[f"scale_{j+1}_{k+1}"] = tiny
                state.step_sizes[f"refresh_{j+1}_{k+1}"] = tiny
        gibbs_sweep(state, data, prior, rng)
        assert state.s0 == pytest.approx(before[0], abs=1e-6)
        assert state.c0 == pytest.approx(before[1], abs=1e-6)
        assert np.allclose(state.edges, before[2], atol=1e-6)
        assert not np.array_equal(state.w, w_before)  # anchors still move

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_support_preserved_and_posterior_cached(self, kind, rng):
        params, data, state = make_state(kind, n=5)
        prior = PriorConfig.default_for(kind)
        for _ in range(25):
            gibbs_sweep(state, data, prior, rng)
            assert np.isfinite(state.log_posterior)
        assert state.log_posterior == pytest.approx(
            log_posterior(state, data, prior), abs=1e-8
        )

    @pytest.mark.parametrize("kind, corrupt", [
        *(pytest.param(kind, zero_edge, id=kind.value) for kind in INFERENCE_KINDS),
        pytest.param(FamilyKind.INVERSE_GAMMA, negative_link, id="inverse_gamma-negative_link"),
        pytest.param(FamilyKind.NORMAL, nan_link, id="normal-nan_link"),
        pytest.param(FamilyKind.BETA, link_above_intensity, id="beta-link_above_intensity"),
    ])
    def test_state_outside_the_prior_support_rejected_before_any_draw(self, kind, corrupt):
        params, data, state = make_state(kind, n=5)
        corrupt(state)
        before = copy.deepcopy(state)
        rng = np.random.default_rng(6)
        stream = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DomainError, match="prior's support"):
            gibbs_sweep(state, data, PriorConfig.default_for(kind), rng)
        assert rng.bit_generator.state == stream
        for name in ("s0", "c0", "edges", "w", "links", "log_posterior"):
            # a NaN link left in place counts as unchanged
            assert np.array_equal(getattr(state, name), getattr(before, name),
                                  equal_nan=True), name
        assert (state.accept, state.step_sizes) == (before.accept, before.step_sizes)

    @pytest.mark.parametrize("name", ["c0", "edge_1_2"])
    @pytest.mark.parametrize("step", [-1.0, math.nan, math.inf])
    def test_bad_step_size_rejected_before_any_draw(self, name, step):
        params, data, state = make_state(FamilyKind.NORMAL, n=5)
        state.step_sizes = {"s0": 0.1, name: step}
        before = copy.deepcopy(state)
        rng = np.random.default_rng(6)
        stream = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DomainError, match=re.escape(f"step sizes; got {{'{name}': {step}}}")):
            gibbs_sweep(state, data, PriorConfig.default_for(FamilyKind.NORMAL), rng)
        assert rng.bit_generator.state == stream
        for attr in ("s0", "c0", "edges", "w", "links", "log_posterior"):
            assert np.array_equal(getattr(state, attr), getattr(before, attr)), attr
        assert (state.accept, state.step_sizes) == (before.accept, before.step_sizes)

    @pytest.mark.parametrize("kind", [FamilyKind.NORMAL, FamilyKind.INVERSE_GAMMA])
    def test_partial_step_sizes_sweep_as_if_completed_with_the_initial_ones(self, kind):
        partial = {"s0": 0.1, "edge_1_2": 0.3, "scale_2_3": 0.2, "link_1_3": 0.6}
        runs = []
        for steps in (partial, {**STEP_NAMES[kind], **partial}):
            params, data, state = make_state(kind, n=5)
            state.step_sizes = dict(steps)
            rng = np.random.default_rng(9)
            for _ in range(3):
                gibbs_sweep(state, data, PriorConfig.default_for(kind), rng)
            runs.append((state, rng))
        (a, rng_a), (b, rng_b) = runs
        for name in ("s0", "c0", "edges", "w", "links", "log_posterior"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.accept, a.step_sizes) == (b.accept, b.step_sizes)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_a_sweep_adds_the_step_size_of_each_move_it_makes(self, kind):
        params, data, state = make_state(kind, n=5)
        assert state.step_sizes == {}
        gibbs_sweep(state, data, PriorConfig.default_for(kind), np.random.default_rng(4))
        assert state.step_sizes == STEP_NAMES[kind]

    def test_long_run_stays_bounded(self, rng):
        params, data, state = make_state(FamilyKind.NORMAL, n=20)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        values = []
        for _ in range(1000):
            gibbs_sweep(state, data, prior, rng)
            values.append(state.log_posterior)
        values = np.array(values)
        assert np.all(np.isfinite(values))
        # no drift to -inf: the late stretch is no worse than the early one
        assert np.median(values[-250:]) > np.median(values[:250]) - 50.0


class TestRunChains:
    def small_run(self, **overrides):
        edges = np.array([[0.0, 1.5], [1.5, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.5, 2.0, edges)
        data, _ = simulate(params, 60, 17)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        base = dict(iterations=400, burn_in=100, thinning=3, chains=2, seed=9,
                    adapt_window=25)
        base.update(overrides)
        cfg = MCMCConfig(**base)
        return run_chains(data, FamilyKind.NORMAL, prior, cfg), cfg

    def test_retained_count(self):
        samples, cfg = self.small_run()
        assert samples.retained == cfg.retained_per_chain == 100
        assert samples.s0.shape == (2, 100)
        assert samples.links.shape == (2, 100, 60, 1)

    def test_identical_seed_bit_identical(self):
        a, _ = self.small_run()
        b, _ = self.small_run()
        assert np.array_equal(a.s0, b.s0)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.links, b.links)

    def test_different_seed_differs(self):
        a, _ = self.small_run()
        b, _ = self.small_run(seed=10)
        assert not np.array_equal(a.s0, b.s0)

    def test_gsst_rejected(self):
        data = Dataset(y=np.zeros((4, 2)))
        with pytest.raises(DomainError):
            run_chains(data, FamilyKind.GSST, PriorConfig.default_for("gsst"), MCMCConfig())

    def test_chain_failure_carries_context(self):
        # beta data with an out-of-support value aborts before sampling
        data = Dataset(y=np.array([[0.5, 1.5], [0.4, 0.2]]))
        from qvgraph.errors import SupportViolationError

        with pytest.raises(SupportViolationError):
            run_chains(data, FamilyKind.BETA, PriorConfig.default_for("beta"),
                       MCMCConfig(iterations=20, burn_in=5, thinning=1, seed=0))

    @pytest.mark.parametrize(
        "kind", [FamilyKind.GAMMA, FamilyKind.BETA, FamilyKind.INVERSE_BETA]
    )
    def test_counting_families_run_end_to_end(self, kind):
        params, data, _ = make_state(kind, n=60, seed=13)
        prior = PriorConfig.default_for(kind)
        cfg = MCMCConfig(iterations=300, burn_in=100, thinning=2, chains=2, seed=4,
                         adapt_window=25)
        samples = run_chains(data, kind, prior, cfg)
        assert samples.retained == 100
        summary = summarize(samples)
        for name in samples.parameter_names():
            assert np.isfinite(summary[name].mean)
        if get_family(kind).integer_intensity:
            assert np.all(samples.edges == np.round(samples.edges))
            assert np.all(samples.edges >= 1.0)
        mse = predictive_mse(samples, data, 3)
        assert np.isfinite(mse) and mse > 0.0

    def test_beta_anchor_rounding_to_one_does_not_kill_a_chain(self):
        # chain 1 starts at c0 = 0.61 and draws an anchor Beta(s*, c* - s*)
        # with a tiny second shape, which rounds to 1.0 unless kept inside
        params = ModelParams(FamilyKind.BETA, 6, 10, [[0, 2, 1], [2, 0, 3], [1, 3, 0]])
        data, _ = simulate(params, 200, 5)
        cfg = MCMCConfig(iterations=60, burn_in=20, thinning=2, chains=2, seed=11,
                         adapt_window=10)
        samples = run_chains(data, "beta", PriorConfig.default_for("beta"), cfg)
        assert np.all((samples.w > 0.0) & (samples.w < 1.0))


# meta["state_digest"] of a short seeded fit of each family.  A change of
# these values is a change of the random stream, which CHANGES.md must state.
PINNED_DIGESTS = {
    FamilyKind.NORMAL: ["78d52653cfbe2c1f", "581f894986f0328d"],
    FamilyKind.GAMMA: ["eaa39f95013bfbd4", "4f2c1faedd6d4add"],
    FamilyKind.INVERSE_GAMMA: ["6742730f059b6791", "bea944043dcae34a"],
    FamilyKind.BETA: ["dff35eca2b96d95d", "0de71fec338321e1"],
    FamilyKind.INVERSE_BETA: ["26ee5bb088eb0052", "bd0191dd2cbc4904"],
}

# Each family's link draw, and the edge moves of the continuous-link families.
LINK_DRAW = {FamilyKind.NORMAL: "_normal_links", FamilyKind.GAMMA: "_enumerated_links",
             FamilyKind.INVERSE_GAMMA: "_inverse_gamma_links",
             FamilyKind.BETA: "_enumerated_links", FamilyKind.INVERSE_BETA: "_enumerated_links"}
EDGE_MOVES = ("_update_edge", "_update_edge_scale", "_update_edge_refresh")


class TestSeededStream:
    def fit(self, kind, **overrides):
        _, data, _ = make_state(kind, n=30)
        config = dict(iterations=30, burn_in=10, thinning=2, chains=2, seed=3,
                      adapt_window=5, workers=1)
        config.update(overrides)
        return run_chains(data, kind, PriorConfig.default_for(kind), MCMCConfig(**config))

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_state_digest_is_pinned(self, kind):
        assert self.fit(kind).meta["state_digest"] == PINNED_DIGESTS[kind]

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_block_patched_on_the_class_is_called(self, kind, monkeypatch):
        # A profiler wraps the block methods on the class before run_chains
        # builds the kernel; the sweep must call the wrappers, as scheduled.
        short = dict(iterations=8, burn_in=2, chains=1)
        unpatched = self.fit(kind, **short).meta["state_digest"]
        calls = {}
        blocks = ["_update_links_pair", LINK_DRAW[kind], "_update_anchors", *EDGE_MOVES,
                  "_update_c0", "_update_s0"]
        for name in blocks:
            def wrapper(*args, _fn=getattr(inference._SweepKernel, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(inference._SweepKernel, name, wrapper)
        assert self.fit(kind, **short).meta["state_digest"] == unpatched
        pairs, moves = 3 * 8, 3 * 8 * schedule_rounds(kind)
        assert {name: calls.get(name, 0) for name in blocks} == {
            "_update_links_pair": pairs, LINK_DRAW[kind]: pairs, "_update_anchors": 8,
            "_update_edge": moves, "_update_edge_refresh": moves, "_update_c0": 8,
            "_update_s0": 8,
            # a discrete link cannot be rescaled
            "_update_edge_scale": 0 if get_family(kind).discrete_links else moves,
        }


class TestSummaries:
    def constant_samples(self, value=2.5):
        from qvgraph.inference import PosteriorSamples

        draws = np.full((2, 50), value)
        return PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=draws.copy(), c0=draws.copy(), edges=np.full((2, 50, 1), value),
            w=None, links=None, meta={},
        )

    def test_constant_chain(self):
        summary = summarize(self.constant_samples())
        s = summary["s0"]
        assert (s.mean, s.sd, s.q025, s.q975) == (2.5, 0.0, 2.5, 2.5)

    def test_standard_normal_interval(self):
        from qvgraph.inference import PosteriorSamples

        rng = np.random.default_rng(2)
        draws = rng.normal(0.0, 1.0, size=(2, 100_000))
        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=draws, c0=np.abs(draws) + 0.1, edges=np.abs(draws)[..., None],
            w=None, links=None, meta={},
        )
        s = summarize(samples)["s0"]
        assert s.q025 == pytest.approx(-1.96, abs=0.03)
        assert s.q975 == pytest.approx(1.96, abs=0.03)

    def test_pooling_invariant_to_chain_order(self):
        from qvgraph.inference import PosteriorSamples

        rng = np.random.default_rng(3)
        draws = rng.normal(size=(2, 500))
        def build(arr):
            return PosteriorSamples(
                family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
                s0=arr, c0=np.abs(arr) + 1, edges=np.abs(arr)[..., None] + 1,
                w=None, links=None, meta={},
            )
        a = summarize(build(draws))["s0"]
        b = summarize(build(draws[::-1]))["s0"]
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.sd == pytest.approx(b.sd, abs=1e-12)
        assert (a.q025, a.q975) == (b.q025, b.q975)

    def test_psrf_identical_vs_shifted(self):
        from qvgraph.inference import PosteriorSamples

        rng = np.random.default_rng(4)
        same = rng.normal(size=(2, 4000))
        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=same, c0=np.abs(same) + 1, edges=np.abs(same)[..., None] + 1,
            w=None, links=None, meta={},
        )
        assert split_chain_psrf(samples)["s0"] < 1.02
        shifted = same.copy()
        shifted[1] += 3.0
        samples_bad = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=shifted, c0=np.abs(shifted) + 1, edges=np.abs(shifted)[..., None] + 1,
            w=None, links=None, meta={},
        )
        assert split_chain_psrf(samples_bad)["s0"] > 1.1

    def test_constant_psrf_is_one(self):
        assert split_chain_psrf(self.constant_samples())["s0"] == 1.0

    def test_frozen_parameters_are_constant_in_every_chain(self):
        from qvgraph.inference import PosteriorSamples, frozen_parameters

        assert frozen_parameters(self.constant_samples()) == ["s0", "c0", "c_1_2"]
        moving = np.random.default_rng(5).normal(size=(2, 50))
        one_chain_stuck = np.abs(moving) + 1.0
        one_chain_stuck[0] = 1.5
        each_chain_stuck = np.array([[2.0], [3.0]]).repeat(50, axis=1)[..., None]
        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=moving, c0=one_chain_stuck, edges=each_chain_stuck,
            w=None, links=None, meta={},
        )
        assert frozen_parameters(samples) == ["c_1_2"]
        # stuck at 2 and at 3, yet read as converged
        assert split_chain_psrf(samples)["c_1_2"] == 1.0
        # one draw per chain cannot show a parameter that does not move
        one_draw = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=moving[:, :1], c0=moving[:, :1], edges=each_chain_stuck[:, :1],
            w=None, links=None, meta={},
        )
        assert frozen_parameters(one_draw) == []


class TestPredictiveMse:
    def test_hand_fixture(self, monkeypatch):
        from qvgraph.inference import PosteriorSamples

        y = np.array([[1.0, 2.0]])
        data = Dataset(y=y)
        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=np.array([[0.0]]), c0=np.array([[1.0]]),
            edges=np.array([[[1.0]]]),
            w=np.zeros((1, 1, 1)), links=np.zeros((1, 1, 1, 1)), meta={},
        )
        fixed = np.array([[1.5, 1.0]])
        monkeypatch.setattr(
            "qvgraph.families.NormalFamily.sample_w",
            lambda self, s, c, rng, size=None: fixed,
        )
        # hand-computed: ((1.5-1)^2 + (1-2)^2) / 2 = 0.625
        assert predictive_mse(samples, data, 0) == pytest.approx(0.625)

    def test_requires_draws(self):
        from qvgraph.inference import PosteriorSamples

        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=np.zeros((2, 0)), c0=np.ones((2, 0)), edges=np.ones((2, 0, 1)),
            w=np.zeros((2, 0, 2)), links=np.zeros((2, 0, 2, 1)), meta={},
        )
        with pytest.raises(DomainError, match="retained draw"):
            predictive_mse(samples, Dataset(y=np.zeros((2, 2))), 0)

    def test_requires_latents(self):
        from qvgraph.inference import PosteriorSamples

        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=["y1", "y2"], pairs=[(0, 1)],
            s0=np.zeros((1, 3)), c0=np.ones((1, 3)), edges=np.ones((1, 3, 1)),
            w=None, links=None, meta={},
        )
        with pytest.raises(DomainError):
            predictive_mse(samples, Dataset(y=np.zeros((2, 2))), 0)

    @pytest.mark.parametrize("shape", [(40, 3), (30, 5)])
    def test_data_of_another_shape_rejected(self, shape):
        from qvgraph.inference import PosteriorSamples

        # fitted at n = 40, p = 5 (10 pairs)
        samples = PosteriorSamples(
            family=FamilyKind.NORMAL, node_names=[f"y{i}" for i in range(1, 6)],
            pairs=node_pairs(5), s0=np.zeros((1, 2)), c0=np.ones((1, 2)),
            edges=np.ones((1, 2, 10)), w=np.zeros((1, 2, 40)), links=np.zeros((1, 2, 40, 10)),
            meta={},
        )
        with pytest.raises(DomainError, match="do not match"):
            predictive_mse(samples, Dataset(y=np.zeros(shape)), 0)
        assert predictive_mse(samples, Dataset(y=np.zeros((40, 5))), 0) > 0.0

    def test_run_to_run_stability(self):
        edges = np.array([[0.0, 1.5], [1.5, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.5, 2.0, edges)
        data, _ = simulate(params, 80, 21)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        cfg = MCMCConfig(iterations=800, burn_in=200, thinning=3, chains=2, seed=31,
                         adapt_window=25)
        samples = run_chains(data, FamilyKind.NORMAL, prior, cfg)
        a = predictive_mse(samples, data, 1)
        b = predictive_mse(samples, data, 2)
        assert a == pytest.approx(b, rel=0.10)

    def test_exact_reproduction_gives_zero(self):
        # degenerate check of the error average itself
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert float(np.mean((y - y) ** 2)) == 0.0


class TestAcceptanceRates:
    def test_adapted_blocks_land_in_band(self):
        edges = np.array([[0.0, 1.5, 0.4], [1.5, 0.0, 2.5], [0.4, 2.5, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.5, 2.0, edges)
        data, _ = simulate(params, 100, 23)
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        cfg = MCMCConfig(iterations=2_000, burn_in=800, thinning=4, chains=1, seed=2,
                         adapt_window=50)
        samples = run_chains(data, FamilyKind.NORMAL, prior, cfg)
        rates = samples.meta["acceptance"][0]
        adapted = {name: rate for name, rate in rates.items()
                   if name.split("_")[0] in ("s0", "c0", "edge", "scale", "link")}
        assert adapted
        for name, rate in adapted.items():
            assert 0.1 <= rate <= 0.6, (name, rate)
