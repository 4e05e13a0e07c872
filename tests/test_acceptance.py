"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-6 and 8 are self-contained; criterion 7 needs user-supplied data
files under data/ and is skipped (not failed) when they are absent.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qvgraph.families import FamilyKind, get_family
from qvgraph.inference import (
    MCMCConfig,
    PriorConfig,
    predictive_mse,
    run_chains,
    split_chain_psrf,
    summarize,
)
from qvgraph.io import (
    export_network,
    load_dataset,
    preprocess_standardize_plus3,
)
from qvgraph.model import (
    ModelParams,
    correlation_matrix,
    marginal_moments,
    pairwise_correlation,
    precision_check_3x3,
    simulate,
)
from qvgraph.presets import five_area_params
from qvgraph.verify import (
    conditional_consistency_check,
    density_normalization_check,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

ACCEPTANCE_FAMILIES = [
    FamilyKind.NORMAL,
    FamilyKind.GAMMA,
    FamilyKind.INVERSE_GAMMA,
    FamilyKind.BETA,
    FamilyKind.INVERSE_BETA,
]


def announce(criterion: str, passed: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


def family_edges(kind, p, strong=2.0, weak=1.0, zero_first=False):
    """A p-node intensity matrix, integer-valued for the counting families."""
    integer = get_family(kind).integer_intensity
    edges = np.full((p, p), float(round(strong)) if integer else strong)
    np.fill_diagonal(edges, 0.0)
    if p >= 3:
        edges[0, 1] = edges[1, 0] = 0.0 if zero_first else (
            float(round(weak)) if integer else weak
        )
    return edges


class TestCriterion1MarginalInvariance:
    @pytest.mark.parametrize("kind", ACCEPTANCE_FAMILIES)
    def test_marginal_invariance(self, kind):
        # s0 = 6, c0 = 10 for every family; 2e5 simulations; 3 MC SEs
        params = ModelParams(kind, 6.0, 10.0, family_edges(kind, 3))
        mean, variance = marginal_moments(params)
        data, _ = simulate(params, 200_000, 20260810)
        ok = True
        for j in range(params.p):
            col = data.y[:, j]
            se_mean = col.std(ddof=1) / math.sqrt(col.size)
            est_var = col.var(ddof=1)
            centered = col - col.mean()
            se_var = math.sqrt((np.mean(centered**4) - est_var**2) / col.size)
            ok &= abs(col.mean() - mean) <= 3.0 * se_mean
            ok &= abs(est_var - variance) <= 3.0 * se_var
        announce(f"1 marginal invariance [{kind.value}]", ok)


class TestCriterion2CorrelationFormula:
    @pytest.mark.parametrize("kind", ACCEPTANCE_FAMILIES)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_correlation_grid(self, kind, p):
        integer = get_family(kind).integer_intensity
        if p == 5:
            strong, weak = (7.0, 1.0) if integer else (math.exp(2.0), math.exp(-2.0))
            edges = five_area_params(kind, strong=strong, weak=weak).edge_intensity
        else:
            edges = family_edges(kind, p, strong=3.0, weak=1.0)
        params = ModelParams(kind, 6.0, 10.0, edges)
        data, _ = simulate(params, 200_000, 7 + p)
        emp = np.corrcoef(data.y.T)
        ok = True
        for j in range(p):
            for k in range(j + 1, p):
                ok &= abs(emp[j, k] - pairwise_correlation(params, j, k)) <= 0.01
        announce(f"2 correlation formula [{kind.value}, p={p}]", ok)

    def test_two_node_closed_form(self):
        params = ModelParams(
            FamilyKind.NORMAL, 0.0, 1.0, np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        ok = pairwise_correlation(params, 0, 1) == pytest.approx(0.5, abs=1e-15)
        data, _ = simulate(params, 200_000, 99)
        ok &= abs(np.corrcoef(data.y.T)[0, 1] - 0.5) <= 0.01
        announce("2 correlation formula [p=2 closed form]", bool(ok))

    def test_product_identity_with_missing_edge(self):
        edges = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.5, edges)
        r12 = pairwise_correlation(params, 0, 1)
        r13 = pairwise_correlation(params, 0, 2)
        r23 = pairwise_correlation(params, 1, 2)
        announce("2 correlation formula [rho12 = rho13*rho23]",
                 r12 == pytest.approx(r13 * r23, abs=1e-15))


class TestCriterion3ConditionalIndependence:
    def test_precision_entry_vanishes(self):
        edges = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.5, edges)
        inv = np.linalg.inv(correlation_matrix(params))
        ok = abs(inv[0, 1]) < 1e-12
        d, precision = precision_check_3x3(params)
        oracle = np.linalg.inv(correlation_matrix(params) / params.c0)
        ok &= np.abs(precision - oracle).max() < 1e-10
        ok &= abs(precision[0, 1]) < 1e-12
        announce("3 conditional independence (p=3, c12=0)", bool(ok))

    def test_generic_precision_matches_inverse(self):
        edges = np.array([[0.0, 1.3, 0.2], [1.3, 0.0, 2.6], [0.2, 2.6, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.5, edges)
        _, precision = precision_check_3x3(params)
        oracle = np.linalg.inv(correlation_matrix(params) / params.c0)
        announce("3 conditional independence (generic inverse oracle)",
                 bool(np.abs(precision - oracle).max() < 1e-10))


class TestCriterion4DensityAndConditionals:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_density_normalization(self, kind):
        s0, c0 = (1.0, 2.0) if kind is FamilyKind.NORMAL else (6.0, 10.0)
        reports = density_normalization_check(kind, s0, c0)
        announce(f"4 density normalization [{kind.value}]",
                 all(r.passed for r in reports))

    @pytest.mark.parametrize("kind", ACCEPTANCE_FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_conditional_consistency(self, kind, seed):
        reports = conditional_consistency_check(kind, seed)
        announce(f"4 conditionals vs joint [{kind.value}, seed {seed}]",
                 all(r.passed for r in reports))


class TestCriterion5SimulationStudyCoverage:
    def test_inverse_gamma_recovery(self):
        truth = five_area_params()
        data, _ = simulate(truth, 500, 20260810)
        prior = PriorConfig.default_for(FamilyKind.INVERSE_GAMMA)
        config = MCMCConfig(iterations=10_000, burn_in=2_000, thinning=10,
                            chains=2, seed=42, keep_latents=False)
        samples = run_chains(data, FamilyKind.INVERSE_GAMMA, prior, config)
        summary = summarize(samples)
        psrf = split_chain_psrf(samples)

        covered = 0
        strong_means, weak_means = [], []
        for j, k in samples.pairs:
            name = f"c_{j + 1}_{k + 1}"
            true_value = truth.edge_intensity[j, k]
            s = summary[name]
            covered += s.q025 <= true_value <= s.q975
            (strong_means if true_value > 1.0 else weak_means).append(s.mean)
        all_psrf = [psrf[f"c_{j + 1}_{k + 1}"] for j, k in samples.pairs]
        all_psrf += [psrf["s0"], psrf["c0"]]

        ordering = max(weak_means) < min(strong_means)
        ok = covered >= 8 and max(all_psrf) < 1.1 and ordering
        print(f"coverage {covered}/10, max PSRF {max(all_psrf):.3f}, "
              f"weak < strong ordering: {ordering}")
        announce("5 simulation-study coverage", bool(ok))


class TestCriterion6GibbsCorrectness:
    CONFIG = dict(iterations=4_000, burn_in=1_000, thinning=5, chains=2, seed=31,
                  adapt_window=50)

    def run_once(self, data):
        prior = PriorConfig.default_for(FamilyKind.NORMAL)
        return run_chains(data, FamilyKind.NORMAL, prior,
                          MCMCConfig(keep_latents=False, **self.CONFIG))

    def test_posterior_recovery_and_determinism(self):
        edges = np.array([[0.0, 1.5, 0.4], [1.5, 0.0, 2.5], [0.4, 2.5, 0.0]])
        truth = ModelParams(FamilyKind.NORMAL, 0.5, 2.0, edges)
        data, _ = simulate(truth, 1_000, 11)
        samples = self.run_once(data)
        summary = summarize(samples)
        ok = True
        for j, k in samples.pairs:
            name = f"c_{j + 1}_{k + 1}"
            s = summary[name]
            pull = abs(s.mean - truth.edge_intensity[j, k]) / s.sd
            print(f"{name}: mean {s.mean:.3f} truth {truth.edge_intensity[j, k]} "
                  f"pull {pull:.2f} sd")
            ok &= pull <= 2.0
        rerun = self.run_once(data)
        identical = (
            np.array_equal(samples.s0, rerun.s0)
            and np.array_equal(samples.c0, rerun.c0)
            and np.array_equal(samples.edges, rerun.edges)
        )
        announce("6 normal-family posterior recovery + bit-identical reruns",
                 bool(ok and identical))


def _fit_for_mse(data, kind, seed, iterations=2_000, burn_in=500, thinning=5):
    prior = PriorConfig.default_for(kind)
    config = MCMCConfig(iterations=iterations, burn_in=burn_in, thinning=thinning,
                        chains=2, seed=seed, keep_latents=True)
    samples = run_chains(data, kind, prior, config)
    return predictive_mse(samples, data, seed + 1)


class TestCriterion7RealDataPipelines:
    def test_sunspots_model_ordering(self):
        path = DATA_DIR / "sunspots.csv"
        if not path.exists():
            pytest.skip("sunspots data not supplied (expected data/sunspots.csv)")
        data = load_dataset(path, FamilyKind.GAMMA)
        assert (data.n, data.p) == (235, 12)
        mse_gamma = _fit_for_mse(data, FamilyKind.GAMMA, seed=5)
        mse_inverse = _fit_for_mse(data, FamilyKind.INVERSE_GAMMA, seed=5)
        print(f"sunspots MSE gamma {mse_gamma:.3f} vs inverse gamma {mse_inverse:.3f}")
        ok = mse_gamma < mse_inverse
        ok &= abs(mse_gamma - 2.44) <= 0.3 * 2.44
        ok &= abs(mse_inverse - 10.70) <= 0.3 * 10.70
        announce("7 sunspots model ordering", bool(ok))

    @pytest.mark.parametrize("name", ["glucose_nonpregnant.csv", "glucose_pregnant.csv"])
    def test_glucose_model_ordering(self, name):
        path = DATA_DIR / name
        if not path.exists():
            pytest.skip(f"glucose data not supplied (expected data/{name})")
        raw = load_dataset(path, FamilyKind.NORMAL)
        data = preprocess_standardize_plus3(raw)
        mse_normal = _fit_for_mse(data, FamilyKind.NORMAL, seed=5)
        mse_gamma = _fit_for_mse(data, FamilyKind.GAMMA, seed=5)
        mse_inverse = _fit_for_mse(data, FamilyKind.INVERSE_GAMMA, seed=5)
        print(f"{name}: normal {mse_normal:.3f} < gamma {mse_gamma:.3f} "
              f"< inverse gamma {mse_inverse:.3f}?")
        announce(f"7 glucose model ordering [{name}]",
                 mse_normal < mse_gamma < mse_inverse)


class TestCriterion8ExportFidelity:
    def test_benchmark_truth_export(self, tmp_path):
        params = five_area_params()
        export = export_network(params, threshold=5.0, out_dir=tmp_path,
                                basename="bench")
        weights = sorted({e.normalized for e in export.edges})
        ok = weights == [1.83, 100.0]
        dot = (tmp_path / "bench.dot").read_text()
        shown = dot.count(" -- ")
        payload = json.loads((tmp_path / "bench.json").read_text())
        ok &= shown == 7  # near-zero edges are the ones not shown
        ok &= len(payload["edges"]) == 10
        announce("8 export fidelity", bool(ok))
