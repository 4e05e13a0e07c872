import numpy as np
import pytest

from qvgraph.errors import DomainError
from qvgraph.families import FamilyKind
from qvgraph.model import ModelParams
from qvgraph.verify import (
    OracleReport,
    conditional_consistency_check,
    density_normalization_check,
    mc_correlation_check,
    mc_moment_check,
)


def normal_params(**kw):
    edges = np.array([[0.0, 1.5, 0.4], [1.5, 0.0, 2.5], [0.4, 2.5, 0.0]])
    defaults = dict(family=FamilyKind.NORMAL, s0=0.0, c0=1.0, edge_intensity=edges)
    defaults.update(kw)
    return ModelParams(**defaults)


class TestOracleReport:
    def test_pass_rule_three_se(self):
        report = OracleReport.from_mc("x", target=1.0, estimate=1.05, se=0.01)
        assert report.passed is False
        report = OracleReport.from_mc("x", target=1.0, estimate=1.02, se=0.01)
        assert report.passed is True

    def test_bundle_widening_to_four_se(self):
        tight = OracleReport.from_mc("x", 1.0, 1.035, 0.01, bundle_size=5)
        wide = OracleReport.from_mc("x", 1.0, 1.035, 0.01, bundle_size=25)
        assert tight.passed is False
        assert wide.passed is True

    def test_absolute_tolerance_rule(self):
        ok = OracleReport.from_abs("x", 0.0, 5e-9, tolerance=1e-8)
        bad = OracleReport.from_abs("x", 0.0, 5e-8, tolerance=1e-8)
        assert ok.passed and not bad.passed


class TestMcMomentCheck:
    def test_normal_targets(self, rng):
        reports = mc_moment_check(normal_params(), 50_000, rng)
        assert len(reports) == 6  # mean and variance per node
        assert all(r.passed for r in reports)
        means = [r for r in reports if r.check_name.startswith("mean")]
        assert all(r.target_value == 0.0 for r in means)
        variances = [r for r in reports if r.check_name.startswith("variance")]
        assert all(r.target_value == 1.0 for r in variances)

    def test_benchmark_inverse_gamma_targets(self, rng):
        edges = np.array([[0.0, 2.0], [2.0, 0.0]])
        params = ModelParams(FamilyKind.INVERSE_GAMMA, 6.0, 10.0, edges)
        reports = mc_moment_check(params, 50_000, rng)
        assert {r.target_value for r in reports} == {0.6, 0.04}
        assert all(r.passed for r in reports)

    def test_edges_do_not_change_marginal_targets(self, rng):
        with_edges = mc_moment_check(normal_params(), 20_000, rng)
        no_edges = mc_moment_check(
            normal_params(edge_intensity=np.zeros((3, 3))), 20_000, rng
        )
        assert [r.target_value for r in with_edges] == [r.target_value for r in no_edges]

    def test_replicate_floor(self, rng):
        with pytest.raises(DomainError):
            mc_moment_check(normal_params(), 100, rng)

    def test_wrong_model_detected(self, rng):
        # moment targets from one parameterization must fail against
        # simulations from another
        reports = mc_moment_check(normal_params(c0=1.0), 50_000, rng)
        shifted = normal_params(s0=0.5)
        bad = mc_moment_check(shifted, 50_000, rng)
        assert all(r.passed for r in reports)
        # estimates near 0.5 vs target 0.5 pass; now compare cross-wise
        cross = [
            OracleReport.from_mc(r.check_name, 0.0, r.estimate, r.mc_standard_error)
            for r in bad
            if r.check_name.startswith("mean")
        ]
        assert not any(r.passed for r in cross)


class TestMcCorrelationCheck:
    def test_two_node_closed_form(self, rng):
        edges = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = ModelParams(FamilyKind.NORMAL, 0.0, 1.0, edges)
        reports = mc_correlation_check(params, 100_000, rng)
        assert len(reports) == 1
        assert reports[0].target_value == pytest.approx(np.arctanh(0.5))
        assert reports[0].passed

    def test_product_identity_targets(self, rng):
        params = normal_params(edge_intensity=np.array(
            [[0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        ), c0=1.5)
        reports = mc_correlation_check(params, 100_000, rng)
        targets = {r.check_name: np.tanh(r.target_value) for r in reports}
        r12 = targets["fisher_z[corr 1,2]"]
        r13 = targets["fisher_z[corr 1,3]"]
        r23 = targets["fisher_z[corr 2,3]"]
        assert r12 == pytest.approx(r13 * r23, abs=1e-12)
        assert all(r.passed for r in reports)

    def test_equal_edge_triangle(self, rng):
        e2 = float(np.exp(2.0))
        edges = np.full((3, 3), e2)
        np.fill_diagonal(edges, 0.0)
        params = ModelParams(FamilyKind.NORMAL, 0.0, 10.0, edges)
        reports = mc_correlation_check(params, 100_000, rng)
        assert all(
            np.tanh(r.target_value) == pytest.approx(0.4760662188, abs=1e-9)
            for r in reports
        )
        assert all(r.passed for r in reports)


class TestConditionalConsistency:
    @pytest.mark.parametrize(
        "kind",
        [FamilyKind.NORMAL, FamilyKind.GAMMA, FamilyKind.INVERSE_GAMMA,
         FamilyKind.BETA, FamilyKind.INVERSE_BETA],
    )
    def test_all_checks_pass(self, kind, rng):
        reports = conditional_consistency_check(kind, rng)
        assert reports
        for report in reports:
            assert report.passed, report

    def test_check_names_in_order(self):
        conditionals = [f"{name} conditional vs joint" for name in ("s0", "c0", "edge")]
        normal = conditional_consistency_check(FamilyKind.NORMAL, 1)
        assert [r.check_name for r in normal] == [f"normal: {c}" for c in conditionals] + [
            "normal: link conditional mean (quadratic fit)",
            "normal: link conditional sd (quadratic fit)",
        ]
        gamma = conditional_consistency_check(FamilyKind.GAMMA, 1)
        assert [r.check_name for r in gamma] == [f"gamma: {c}" for c in conditionals] + [
            "gamma: link enumeration vs brute force (TV)",
        ]

    def test_gsst_rejected(self, rng):
        with pytest.raises(DomainError):
            conditional_consistency_check(FamilyKind.GSST, rng)

    def test_deterministic_given_seed(self):
        a = conditional_consistency_check(FamilyKind.GAMMA, 7)
        b = conditional_consistency_check(FamilyKind.GAMMA, 7)
        assert [(r.check_name, r.estimate) for r in a] == [
            (r.check_name, r.estimate) for r in b
        ]


class TestDensityNormalization:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_both_levels_normalize(self, kind):
        s0, c0 = (1.0, 2.0) if kind is FamilyKind.NORMAL else (6.0, 10.0)
        reports = density_normalization_check(kind, s0, c0)
        assert len(reports) == 2
        for report in reports:
            assert report.passed, report
            assert report.estimate == pytest.approx(1.0, abs=report.tolerance)
