"""Rank-normalized split-R-hat and bulk ESS against known answers."""

import math

import numpy as np
import pytest

import ess


def ar1(rng, rho, chains, draws):
    x = np.empty((chains, draws))
    x[:, 0] = rng.normal(size=chains) / math.sqrt(1.0 - rho**2)
    eps = rng.normal(size=(chains, draws))
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


def test_iid_draws_give_ess_close_to_n():
    draws = np.random.default_rng(1).normal(size=(4, 2000))
    assert ess.bulk_ess(draws) == pytest.approx(draws.size, rel=0.1)
    assert ess.rhat(draws) < 1.01


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_draws_match_the_closed_form(rho):
    draws = ar1(np.random.default_rng(2), rho, chains=4, draws=20_000)
    expected = draws.size * (1.0 - rho) / (1.0 + rho)
    assert ess.bulk_ess(draws) == pytest.approx(expected, rel=0.15)


def test_ess_is_invariant_under_monotone_transforms():
    draws = ar1(np.random.default_rng(3), 0.7, chains=2, draws=2000)
    assert ess.bulk_ess(np.exp(draws)) == pytest.approx(ess.bulk_ess(draws), rel=1e-12)


def test_chains_stuck_apart_give_large_rhat_and_tiny_ess():
    rng = np.random.default_rng(4)
    draws = rng.normal(size=(2, 1000)) + np.array([[0.0], [5.0]])
    assert ess.rhat(draws) > 1.5
    assert ess.bulk_ess(draws) < 50


def test_a_trending_chain_is_caught_by_the_split():
    draws = np.tile(np.linspace(0.0, 10.0, 1000), (2, 1))
    draws += np.random.default_rng(5).normal(scale=0.1, size=draws.shape)
    assert ess.rhat(draws) > 1.5


def test_a_constant_chain_is_frozen_not_converged():
    draws = np.vstack([np.full(100, 2.0), np.random.default_rng(6).normal(size=100)])
    assert ess.is_frozen(draws)
    assert not ess.is_frozen(draws[1:])
    assert ess.rhat(draws) > 1.1
    assert ess.bulk_ess(draws) < 20


def test_all_draws_equal_have_no_rhat_or_ess():
    draws = np.full((2, 50), 3.0)
    assert ess.is_frozen(draws)
    assert math.isnan(ess.rhat(draws))
    assert math.isnan(ess.bulk_ess(draws))


def test_too_few_draws_are_refused():
    with pytest.raises(ValueError):
        ess.bulk_ess(np.random.default_rng(7).normal(size=(2, 3)))
