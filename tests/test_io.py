import json
import math
import re
import zipfile

import numpy as np
import pytest

from qvgraph.errors import (
    DataFormatError,
    DomainError,
    ManifestError,
    SupportViolationError,
)
from qvgraph.families import FamilyKind
from qvgraph.inference import (
    GammaS0Prior,
    MCMCConfig,
    NormalS0Prior,
    PriorConfig,
    UniformOnC0S0Prior,
    run_chains,
)
from qvgraph.io import (
    RunConfig,
    export_network,
    load_dataset,
    load_samples,
    persist_samples,
    preprocess_reciprocal,
    preprocess_standardize_plus3,
    samples_identical,
    save_dataset,
)
from qvgraph.model import Dataset, ModelParams, simulate
from qvgraph.presets import five_area_params


@pytest.fixture
def small_samples():
    edges = np.array([[0.0, 1.5], [1.5, 0.0]])
    params = ModelParams(FamilyKind.NORMAL, 0.5, 2.0, edges)
    data, _ = simulate(params, 30, 17)
    cfg = MCMCConfig(iterations=120, burn_in=40, thinning=2, chains=2, seed=3,
                     adapt_window=20)
    return run_chains(data, FamilyKind.NORMAL, PriorConfig.default_for("normal"), cfg)


class TestLoadDataset:
    def test_simulated_file_roundtrip(self, tmp_path):
        params = five_area_params()
        data, _ = simulate(params, 500, 1)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        loaded = load_dataset(path, "inverse_gamma")
        assert loaded.n == 500 and loaded.p == 5
        assert np.array_equal(loaded.y, data.y)
        assert loaded.node_names == data.node_names

    def test_header_optional(self, tmp_path):
        with_header = tmp_path / "a.csv"
        with_header.write_text("n1,n2\n1.5,2.5\n0.5,1.0\n")
        without = tmp_path / "b.csv"
        without.write_text("1.5,2.5\n0.5,1.0\n")
        a = load_dataset(with_header, "gamma")
        b = load_dataset(without, "gamma")
        assert np.array_equal(a.y, b.y)
        assert a.node_names == ["n1", "n2"]
        assert b.node_names == ["y1", "y2"]

    def test_first_row_with_a_number_is_data(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1.0,,3.0\n2.0,3.0,4.0\n2.5,3.5,4.5\n")
        with pytest.raises(DataFormatError, match=r"could not parse '' \(row 1, column 2\)"):
            load_dataset(path, "gamma")

    @pytest.mark.parametrize("header, problem", [
        ("a,,c", "empty node name in the header (column 2)"),
        ("a,b,a", "repeated node name 'a' in the header (column 3)"),
        ("a, b,b ", "repeated node name 'b' in the header (column 3)"),
    ])
    def test_empty_or_repeated_node_name_rejected(self, tmp_path, header, problem):
        path = tmp_path / "names.csv"
        path.write_text(header + "\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {problem}")):
            load_dataset(path, "gamma")

    def test_parse_error_location(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataFormatError, match=r"row 2, column 2"):
            load_dataset(bad, "gamma")

    def test_byte_order_mark_without_header_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("1.5,2.5\n0.5,1.0\n".encode("utf-8-sig"))
        data = load_dataset(path, "gamma")
        assert data.n == 2 and data.y[0, 0] == 1.5
        assert data.node_names == ["y1", "y2"]

    def test_byte_order_mark_is_not_in_the_first_node_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("n1,n2\n1.5,2.5\n".encode("utf-8-sig"))
        assert load_dataset(path, "gamma").node_names == ["n1", "n2"]

    def test_ragged_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(bad, "gamma")

    def test_support_violation_names_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.25\n0.0,0.75\n")
        with pytest.raises(SupportViolationError, match=r"row 2, column 1"):
            load_dataset(bad, "beta")

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataFormatError):
            load_dataset(empty, "gamma")


class TestPreprocess:
    def test_reference_column(self):
        data = Dataset(y=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        out = preprocess_standardize_plus3(data)
        assert np.allclose(out.y[:, 0], [2.0, 3.0, 4.0])
        assert out.y.mean(axis=0) == pytest.approx([3.0, 3.0], abs=1e-12)
        assert out.y.std(axis=0, ddof=1) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_correlations_preserved(self, rng):
        y = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
        data = Dataset(y=y + 10.0)
        out = preprocess_standardize_plus3(data)
        assert np.allclose(np.corrcoef(data.y.T), np.corrcoef(out.y.T), atol=1e-12)

    def test_zero_variance_column(self):
        data = Dataset(y=np.array([[1.0, 2.0], [1.0, 3.0]]))
        with pytest.raises(DomainError, match="column 1"):
            preprocess_standardize_plus3(data)

    def test_reciprocal_is_involution(self, rng):
        y = rng.gamma(3.0, 2.0, size=(50, 3)) + 0.1
        data = Dataset(y=y)
        twice = preprocess_reciprocal(preprocess_reciprocal(data))
        assert np.allclose(twice.y, data.y, rtol=1e-12)

    def test_reciprocal_needs_positive(self):
        data = Dataset(y=np.array([[1.0, -2.0], [0.5, 1.0]]))
        with pytest.raises(DomainError):
            preprocess_reciprocal(data)


class TestExportNetwork:
    def test_benchmark_truth_weights(self, tmp_path):
        params = five_area_params()
        export = export_network(params, threshold=5.0, out_dir=tmp_path, basename="net")
        weights = sorted({e.normalized for e in export.edges})
        # weak edges at 100 * exp(-4), strong at exactly 100
        assert weights == [round(100.0 * math.exp(-4.0), 2), 100.0]
        assert weights[0] == 1.83
        dot = (tmp_path / "net.dot").read_text()
        assert dot.count(" -- ") == 7  # weak edges fall below the threshold
        payload = json.loads((tmp_path / "net.json").read_text())
        assert len(payload["edges"]) == 10

    def test_single_edge_is_100(self):
        matrix = np.array([[0.0, 0.7], [0.7, 0.0]])
        export = export_network(matrix)
        assert export.edges[0].normalized == 100.0

    def test_threshold_100_keeps_only_argmax(self, tmp_path):
        params = five_area_params()
        export_network(params, threshold=100.0, out_dir=tmp_path, basename="top")
        dot = (tmp_path / "top.dot").read_text()
        assert dot.count(" -- ") == 7  # all strong edges tie at 100

    def test_scale_invariance(self):
        matrix = np.array([[0.0, 0.7, 0.2], [0.7, 0.0, 0.4], [0.2, 0.4, 0.0]])
        a = export_network(matrix)
        b = export_network(matrix * 37.5)
        assert [e.normalized for e in a.edges] == [e.normalized for e in b.edges]

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            export_network(np.zeros((3, 3)))

    def test_deterministic_lexicographic_order(self):
        matrix = np.array([[0.0, 0.7, 0.2], [0.7, 0.0, 0.4], [0.2, 0.4, 0.0]])
        export = export_network(matrix, labels=["beta", "alpha", "gamma"])
        assert [(e.source, e.target) for e in export.edges] == [
            ("alpha", "gamma"), ("beta", "alpha"), ("beta", "gamma")
        ]

    def test_gray_levels_encode_weight(self, tmp_path):
        matrix = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.25], [0.5, 0.25, 0.0]])
        export_network(matrix, threshold=0.0, out_dir=tmp_path, basename="g")
        dot = (tmp_path / "g.dot").read_text()
        assert "color=gray0" in dot  # the strongest edge is black
        assert "color=gray50" in dot

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        export = export_network(matrix, labels=['a"b', "c\\"], threshold=0.0,
                                out_dir=tmp_path, basename="q")
        lines = (tmp_path / "q.dot").read_text().splitlines()
        assert lines[2:5] == ['  "a\\"b";', '  "c\\\\";',
                              '  "a\\"b" -- "c\\\\" [weight=100.00, color=gray0];']
        payload = json.loads((tmp_path / "q.json").read_text())
        assert payload["nodes"] == export.nodes == ['a"b', "c\\"]


def compress_types(path):
    with zipfile.ZipFile(path) as archive:
        return {member.compress_type for member in archive.infolist()}


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, small_samples):
        persist_samples(small_samples, tmp_path / "out")
        loaded = load_samples(tmp_path / "out")
        assert samples_identical(small_samples, loaded)

    def test_round_trip_without_latents(self, tmp_path, small_samples):
        small_samples.w = None
        small_samples.links = None
        persist_samples(small_samples, tmp_path / "out")
        loaded = load_samples(tmp_path / "out")
        assert samples_identical(small_samples, loaded)
        assert loaded.links is None

    def test_compressed_latents_still_load(self, tmp_path, small_samples):
        # directories written before latents were stored uncompressed
        latents = tmp_path / "out" / "latents.npz"
        persist_samples(small_samples, tmp_path / "out")
        assert compress_types(latents) == {zipfile.ZIP_STORED}
        np.savez_compressed(latents, w=small_samples.w, links=small_samples.links)
        assert compress_types(latents) == {zipfile.ZIP_DEFLATED}
        assert samples_identical(small_samples, load_samples(tmp_path / "out"))

    def test_version_mismatch(self, tmp_path, small_samples):
        persist_samples(small_samples, tmp_path / "out")
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="format version"):
            load_samples(tmp_path / "out")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_samples(tmp_path)

    @pytest.mark.parametrize("name", ["c0.csv", "c_1_2.csv", "latents.npz"])
    def test_missing_sample_file_names_the_file(self, tmp_path, small_samples, name):
        small_samples.w = np.zeros((small_samples.chains, small_samples.retained, 1))
        small_samples.links = np.zeros((small_samples.chains, small_samples.retained, 1, 1))
        persist_samples(small_samples, tmp_path / "out")
        (tmp_path / "out" / name).unlink()
        with pytest.raises(ManifestError, match=f"missing {name}"):
            load_samples(tmp_path / "out")


def cut_rows(path, count=5):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-count]))


class TestDamagedSamples:
    """Files that disagree with the manifest's (chains, retained) fail by name."""

    @pytest.mark.parametrize("name", ["s0.csv", "c0.csv", "c_1_2.csv"])
    def test_parameter_file_with_rows_cut(self, tmp_path, small_samples, name):
        persist_samples(small_samples, tmp_path / "out")
        cut_rows(tmp_path / "out" / name)
        with pytest.raises(ManifestError, match=re.escape(
                f"{name} has shape (2, 35), the manifest gives (2, 40)")):
            load_samples(tmp_path / "out")

    def test_parameter_file_with_a_ragged_row(self, tmp_path, small_samples):
        persist_samples(small_samples, tmp_path / "out")
        path = tmp_path / "out" / "c0.csv"
        path.write_text(path.read_text() + "1.0\n")
        with pytest.raises(ManifestError, match="cannot parse c0.csv"):
            load_samples(tmp_path / "out")

    @pytest.mark.parametrize("w_cut, links_cut, problem", [
        ((slice(None), slice(1, None)), (), "latents.npz w has shape (2, 39, 30)"),
        ((), (Ellipsis, slice(1, None), slice(None)), "latents.npz links has shape (2, 40, 29, 1)"),
        ((Ellipsis, 0), (), "latents.npz w has shape (2, 40)"),
    ])
    def test_latents_that_disagree(self, tmp_path, small_samples, w_cut, links_cut, problem):
        persist_samples(small_samples, tmp_path / "out")
        np.savez(tmp_path / "out" / "latents.npz", w=small_samples.w[w_cut],
                 links=small_samples.links[links_cut])
        with pytest.raises(ManifestError, match=re.escape(problem)):
            load_samples(tmp_path / "out")


    @pytest.mark.parametrize("keep", [1, 3])
    def test_node_names_that_do_not_fit_the_pairs(self, tmp_path, small_samples, keep):
        persist_samples(small_samples, tmp_path / "out")
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["node_names"] = ["y1", "y2", "y3"][:keep]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest.json lists pairs [(0, 1)], which are not the node pairs of "
                f"its {keep} node_names")):
            load_samples(tmp_path / "out")


class TestRunConfig:
    def test_from_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "family = inverse_gamma\n"
            "iterations = 5000\n"
            "burn_in = 1000\n"
            "a0 = 2.5\n"
            "standardize_plus3 = true\n"
        )
        config = RunConfig.from_file(cfg_file)
        assert config.family == "inverse_gamma"
        assert config.iterations == 5000
        assert config.a0 == 2.5
        assert config.standardize_plus3 is True
        config.set_option("seed", "99")
        assert config.seed == 99

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("wibble = 3\n")
        with pytest.raises(DataFormatError, match="wibble"):
            RunConfig.from_file(cfg_file)

    def test_byte_order_mark_is_not_in_the_first_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes("iterations = 500\nseed = 4\n".encode("utf-8-sig"))
        config = RunConfig.from_file(cfg_file)
        assert (config.iterations, config.seed) == (500, 4)

    def test_item_without_equals_names_its_source(self, tmp_path):
        config = RunConfig()
        config.set_item(" seed =  7 ", "--set")
        assert config.seed == 7
        with pytest.raises(DataFormatError, match=r"^--set: expected 'key = value', got 'seed'"):
            config.set_item("seed", "--set")
        with pytest.raises(DataFormatError, match=r"^--set: seed: expected an integer"):
            config.set_item("seed = x", "--set")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# runs\nseed 7\n")
        with pytest.raises(DataFormatError, match=r"run\.cfg:2: expected 'key = value'"):
            RunConfig.from_file(cfg_file)
        cfg_file.write_text("seed = 7\nwibble = 3\n")
        with pytest.raises(DataFormatError, match=r"run\.cfg:2: unknown configuration key"):
            RunConfig.from_file(cfg_file)

    def test_bad_value_type(self):
        config = RunConfig()
        with pytest.raises(DataFormatError):
            config.set_option("iterations", "many")
        with pytest.raises(DataFormatError):
            config.set_option("keep_latents", "maybe")

    @pytest.mark.parametrize("key", ["step_s0", "step_c0", "step_edge", "step_link",
                                     "enum_tail_tol", "edge_moves"])
    def test_removed_sampler_setting_is_an_unknown_key(self, key):
        # the sampler's moves, step sizes and tail tolerance are fixed in inference
        with pytest.raises(DataFormatError, match="unknown configuration key"):
            RunConfig().set_item(f"{key} = 2", "--set")

    def test_hash_changes_with_any_field(self):
        base = RunConfig()
        h0 = base.config_hash()
        for key, value in [("family", "gamma"), ("seed", "1"), ("a0", "2.0"),
                           ("standardize_plus3", "true")]:
            config = RunConfig()
            config.set_option(key, value)
            assert config.config_hash() != h0

    def test_prior_and_mcmc_builders(self):
        config = RunConfig(family="beta", d0=2.0, iterations=100, burn_in=10,
                           thinning=2, chains=1)
        prior = config.prior_config()
        prior.validate_for("beta")
        mcmc = config.mcmc_config()
        assert mcmc.retained_per_chain == 45

    @pytest.mark.parametrize("family", [k.value for k in FamilyKind])
    def test_defaults_build_the_library_defaults(self, family):
        config = RunConfig(family=family)
        assert config.mcmc_config() == MCMCConfig()
        assert config.prior_config() == PriorConfig.default_for(family)

    @pytest.mark.parametrize("family", [k.value for k in FamilyKind])
    def test_prior_config_takes_the_family_form(self, family):
        config = RunConfig(family=family, mu_s=0.5, tau_s=0.2, a_s=2.0, b_s=3.0)
        prior = config.prior_config()
        prior.validate_for(family)
        expected = {
            NormalS0Prior: NormalS0Prior(mu=0.5, tau=0.2),
            GammaS0Prior: GammaS0Prior(a=2.0, b=3.0),
            UniformOnC0S0Prior: UniformOnC0S0Prior(),
        }
        assert prior.s0_prior == expected[type(prior.s0_prior)]
