import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvgraph
from qvgraph.cli import main
from qvgraph.io import load_dataset, load_samples


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateCommand:
    def test_preset_writes_dataset_and_truth(self, workdir, capsys):
        out = workdir / "data.csv"
        truth = workdir / "truth.json"
        code = run(["simulate", "--preset", "five-areas", "--n", 50,
                    "--seed", 3, "--out", out, "--truth", truth])
        assert code == 0
        data = load_dataset(out, "inverse_gamma")
        assert (data.n, data.p) == (50, 5)
        payload = json.loads(truth.read_text())
        assert payload["family"] == "inverse_gamma"
        assert payload["s0"] == 6.0 and payload["c0"] == 10.0

    def test_edge_file(self, workdir):
        edge_file = workdir / "edges.csv"
        edge_file.write_text("0,1.5\n1.5,0\n")
        out = workdir / "data.csv"
        code = run(["simulate", "--family", "normal", "--s0", 0.0, "--c0", 2.0,
                    "--edge-file", edge_file, "--n", 20, "--out", out])
        assert code == 0
        assert load_dataset(out, "normal").p == 2

    @pytest.mark.parametrize("text, where", [("0,1\n1\n", "row 2 has 1 fields"),
                                             ("0,1\n1,x\n", "row 2, column 2")])
    def test_bad_edge_file_fails_cleanly(self, workdir, capsys, text, where):
        edge_file = workdir / "edges.csv"
        edge_file.write_text(text)
        code = run(["simulate", "--family", "normal", "--s0", 0.0, "--c0", 2.0,
                    "--edge-file", edge_file, "--n", 20, "--out", workdir / "data.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(edge_file) in err and where in err
        assert "Traceback" not in err

    def test_missing_edges_is_runtime_error(self, workdir, capsys):
        code = run(["simulate", "--n", 10, "--out", workdir / "x.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--n"])  # missing value
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "{missing}", "--family", "normal", "--out", "{dir}/out"],
    ["simulate", "--edge-file", "{missing}", "--n", "10", "--out", "{dir}/data.csv"],
    ["fit", "--config", "{missing}"],
])
def test_missing_input_file_fails_cleanly(workdir, capsys, argv):
    missing = workdir / "nope.csv"
    code = run([a.format(missing=missing, dir=workdir) for a in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


class TestFitFlow:
    def fit_small(self, workdir, extra=()):
        data_csv = workdir / "data.csv"
        run(["simulate", "--family", "normal", "--s0", 0.5, "--c0", 2.0,
             "--edge-file", self.edges(workdir), "--n", 40, "--seed", 5,
             "--out", data_csv])
        out = workdir / "samples"
        code = run(["fit", "--data", data_csv, "--family", "normal",
                    "--out", out,
                    "--set", "iterations=300", "--set", "burn_in=100",
                    "--set", "thinning=2", "--set", "chains=2",
                    "--set", "seed=11", "--set", "adapt_window=25", *extra])
        assert code == 0
        return out

    def edges(self, workdir):
        edge_file = workdir / "edges.csv"
        edge_file.write_text("0,1.5\n1.5,0\n")
        return edge_file

    def test_fit_persists_samples_and_diagnostics(self, workdir):
        out = self.fit_small(workdir)
        samples = load_samples(out)
        assert samples.retained == 100
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert "psrf" in diagnostics and "c_1_2" in diagnostics["psrf"]
        assert "config_hash" in diagnostics

    def test_summarize_prints_table(self, workdir, capsys):
        out = self.fit_small(workdir)
        capsys.readouterr()
        assert run(["summarize", "--samples", out]) == 0
        table = capsys.readouterr().out
        assert "c_1_2" in table and "97.5%" in table

    def test_export_graph(self, workdir, capsys):
        out = self.fit_small(workdir)
        graph_dir = workdir / "graph"
        assert run(["export-graph", "--samples", out, "--out", graph_dir,
                    "--threshold", 5.0]) == 0
        assert (graph_dir / "network.dot").exists()
        assert (graph_dir / "network.json").exists()

    def test_mse_runs(self, workdir, capsys):
        out = self.fit_small(workdir)
        capsys.readouterr()
        assert run(["mse", "--samples", out, "--data", workdir / "data.csv",
                    "--seed", 1]) == 0
        assert "posterior mean MSE" in capsys.readouterr().out

    def test_mse_on_data_of_another_shape_fails_cleanly(self, workdir, capsys):
        out = self.fit_small(workdir)  # n = 40, p = 2
        other = workdir / "other.csv"
        run(["simulate", "--family", "normal", "--s0", 0.5, "--c0", 2.0,
             "--edge-file", self.edges(workdir), "--n", 30, "--seed", 5, "--out", other])
        capsys.readouterr()
        assert run(["mse", "--samples", out, "--data", other]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_flow(self, workdir):
        data_csv = workdir / "data.csv"
        run(["simulate", "--family", "normal", "--s0", 0.5, "--c0", 2.0,
             "--edge-file", self.edges(workdir), "--n", 30, "--seed", 5,
             "--out", data_csv])
        cfg = workdir / "run.cfg"
        cfg.write_text(
            f"family = normal\ninput = {data_csv}\n"
            f"output_dir = {workdir / 'cfg_samples'}\n"
            "iterations = 200\nburn_in = 50\nthinning = 2\nchains = 1\nseed = 2\n"
        )
        assert run(["fit", "--config", cfg]) == 0
        assert load_samples(workdir / "cfg_samples").retained == 75

    def test_fit_without_data_fails_cleanly(self, workdir, capsys):
        assert run(["fit", "--family", "normal", "--out", workdir / "x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_removed_sampler_setting_fails_cleanly(self, workdir, capsys):
        assert run(["fit", "--family", "normal", "--out", workdir / "x",
                    "--set", "edge_moves=2"]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: --set: unknown configuration key 'edge_moves'")


    def test_short_fit_finishes_without_a_psrf(self, workdir, capsys):
        data_csv = workdir / "data.csv"
        run(["simulate", "--family", "normal", "--s0", 0.5, "--c0", 2.0,
             "--edge-file", self.edges(workdir), "--n", 40, "--seed", 5, "--out", data_csv])
        out = workdir / "short"
        capsys.readouterr()
        assert run(["fit", "--data", data_csv, "--family", "normal", "--out", out,
                    "--set", "iterations=10", "--set", "burn_in=5", "--set", "thinning=2"]) == 0
        assert "need at least 4 retained draws" in capsys.readouterr().out
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["psrf"] is None
        assert run(["summarize", "--samples", out]) == 0
        cells = {row.split()[0]: row.split()[-1]
                 for row in capsys.readouterr().out.splitlines()[1:]}
        # two draws per chain: a block rejected at both is flagged, not n/a
        assert cells == {name: "frozen" if name in diagnostics["frozen"] else "n/a"
                         for name in ["s0", "c0", "c_1_2"]}

    @pytest.mark.parametrize("command", ["summarize", "export-graph", "mse"])
    def test_damaged_samples_fail_cleanly(self, workdir, capsys, command):
        out = self.fit_small(workdir)
        (out / "c_1_2.csv").unlink()
        capsys.readouterr()
        extra = {"export-graph": ["--out", workdir / "graph"],
                 "mse": ["--data", workdir / "data.csv"]}.get(command, [])
        assert run([command, "--samples", out, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c_1_2.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["s0.csv", "c_1_2.csv"])
    @pytest.mark.parametrize("command", ["summarize", "mse"])
    def test_samples_with_rows_cut_fail_cleanly(self, workdir, capsys, command, name):
        out = self.fit_small(workdir)
        path = out / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-5]))
        capsys.readouterr()
        extra = ["--data", workdir / "data.csv"] if command == "mse" else []
        assert run([command, "--samples", out, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} has shape (2, 95)" in err
        assert "Traceback" not in err


def test_frozen_edges_are_flagged(workdir, capsys):
    """On this beta fit no edge move is ever accepted, so every edge stays
    at its start; its split PSRF reads 1.000 all the same."""
    edge_file = workdir / "edges.csv"
    edge_file.write_text("0,2,7\n2,0,7\n7,7,0\n")
    data_csv = workdir / "data.csv"
    run(["simulate", "--family", "beta", "--s0", 6.0, "--c0", 10.0, "--edge-file", edge_file,
         "--n", 300, "--seed", 3, "--out", data_csv])
    out = workdir / "samples"
    capsys.readouterr()
    assert run(["fit", "--data", data_csv, "--family", "beta", "--out", out,
                "--set", "iterations=120", "--set", "burn_in=60", "--set", "thinning=2",
                "--set", "seed=3", "--set", "adapt_window=20"]) == 0
    edges = ["c_1_2", "c_1_3", "c_2_3"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1 and all(name in warnings[0] for name in edges)
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["frozen"] == edges
    assert all(diagnostics["psrf"][name] == 1.0 for name in edges)
    assert run(["summarize", "--samples", out]) == 0
    cells = {row.split()[0]: row.split()[-1]
             for row in capsys.readouterr().out.splitlines()[1:]}
    assert [cells[name] for name in edges] == ["frozen"] * 3
    assert cells["s0"] != "frozen"


class TestCheckCommand:
    def test_single_family_deterministic(self, workdir, capsys):
        report_a = workdir / "a.json"
        report_b = workdir / "b.json"
        code_a = run(["check", "--family", "gamma", "--seed", 7,
                      "--replicates", 20000, "--report", report_a])
        code_b = run(["check", "--family", "gamma", "--seed", 7,
                      "--replicates", 20000, "--report", report_b])
        assert code_a == code_b == 0
        assert report_a.read_text() == report_b.read_text()
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2


def test_python_dash_m_qvgraph_help():
    src = str(Path(qvgraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "qvgraph", "--help"], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "usage: qvgraph" in proc.stdout
