import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphon_mpnn import cli, config, linkpred
from graphon_mpnn.pair_mpnn import learnable_psi_mpnn
from graphon_mpnn.sbm import read_spec_file

from oracles import write_spec_file

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "scripts" / "configs"


def run_cli(*args, cwd=None):
    # the source tree goes first on the path, so that a run from another
    # working directory imports the same package
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "graphon_mpnn", *args],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture
def model_file(tmp_path, linkpred_spec):
    path = tmp_path / "model.sbm"
    write_spec_file(linkpred_spec, path)
    return path


class TestValidateSpec:
    def test_valid_model(self, model_file):
        proc = run_cli("validate-spec", str(model_file))
        assert proc.returncode == 0
        assert "d_min" in proc.stdout
        assert "isomorphic_block_pairs = [(0, 2)]" in proc.stdout

    def test_invalid_model(self, tmp_path):
        path = tmp_path / "bad.sbm"
        path.write_text(
            "r = 2\nblock_mass = [0.6, 0.6]\nS = [0.5, 0.2, 0.3, 0.5]\nB = [1, 1]\n"
        )
        proc = run_cli("validate-spec", str(path))
        assert proc.returncode == 3
        assert "violation" in proc.stdout

    def test_zero_degree_block_is_a_violation(self, tmp_path):
        # every subcommand refuses this model, so its validation fails too
        path = tmp_path / "isolated.sbm"
        path.write_text("r = 2\nblock_mass = [0.5, 0.5]\nS = [0.5, 0, 0, 0]\nB = [1, 1]\n")
        proc = run_cli("validate-spec", str(path))
        assert proc.returncode == 3
        assert "node_use_ok = False" in proc.stdout
        assert "violation: zero minimum block degree" in proc.stdout


class TestSample:
    def test_outputs_and_manifest(self, tmp_path, model_file):
        cfg = tmp_path / "sample.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[sample]\nn = 50\nseed = 1\n"
            f"[output]\ndir = {out}\n"
        )
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "edges.txt").exists()
        assert (out / "blocks.txt").exists()
        assert (out / "manifest.txt").exists()
        first = int((out / "blocks.txt").read_text().splitlines()[0])
        assert first in (0, 1, 2)

    def test_manifest_reproduces_run(self, tmp_path, model_file):
        cfg = tmp_path / "sample.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[sample]\nn = 40\nseed = 9\n"
            f"[output]\ndir = {out}\n"
        )
        assert run_cli("sample", str(cfg)).returncode == 0
        edges_before = (out / "edges.txt").read_bytes()
        # the manifest doubles as a config file
        proc = run_cli("sample", str(out / "manifest.txt"))
        assert proc.returncode == 0, proc.stderr
        assert (out / "edges.txt").read_bytes() == edges_before

    def test_missing_model_file(self, tmp_path):
        cfg = tmp_path / "sample.cfg"
        cfg.write_text(
            "[sbm]\nspec = nowhere.sbm\n[sample]\nn = 10\nseed = 0\n"
            "[output]\ndir = out\n"
        )
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_zero_nodes_rejected(self, tmp_path, model_file):
        cfg = tmp_path / "sample.cfg"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[sample]\nn = 0\nseed = 0\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "n must be >= 2" in proc.stderr

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("n = 10\n")  # key outside any section
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 2


class TestConverge:
    # the mean-aggregation bound's n-condition fails at these sizes, so no
    # validity share is shown; the sum bound's holds at every n
    @pytest.mark.parametrize("mode, n_condition", [("node_mean", 0.0), ("node_sum", 1.0)])
    def test_summary_and_csv(self, tmp_path, model_file, mode, n_condition):
        cfg = tmp_path / "conv.cfg"
        out = tmp_path / "conv_out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n"
            f"[converge]\nmode = {mode}\nn_list = 32, 64, 128\n"
            "seeds = 0, 1\nfeature_dim = 4\n"
            f"[output]\ndir = {out}\n"
        )
        proc = run_cli("converge", str(cfg))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "deltas.csv").read_text().splitlines()
        assert lines[0] == "mode,n,seed,delta,bound"
        assert len(lines) == 1 + 3 * 2
        summary = json.loads((out / "slope_summary.jsonl").read_text())
        assert summary["mode"] == mode
        assert "slope" in summary and "r_squared" in summary
        assert summary["n_condition_frequency"] == n_condition
        rows = [line.split(",") for line in lines[1:]]
        validity = float(np.mean([float(delta) <= float(bound) for *_, delta, bound in rows]))
        assert summary["bound_validity_frequency"] == (validity if n_condition else None)

    def test_fixed_pair_mode_empty_bound_column(self, tmp_path, model_file):
        cfg = tmp_path / "conv.cfg"
        out = tmp_path / "conv_out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n"
            "[converge]\nmode = pair_fixed\nn_list = 16, 32, 64\nseeds = 0\n"
            f"[output]\ndir = {out}\n"
        )
        proc = run_cli("converge", str(cfg))
        assert proc.returncode == 0, proc.stderr
        rows = (out / "deltas.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",") for row in rows)
        summary = json.loads((out / "slope_summary.jsonl").read_text())
        assert summary["bound_validity_frequency"] is None
        assert summary["n_condition_frequency"] is None

    @pytest.mark.parametrize("n_list", ["32, 64", "32, 64, 64, 32"])
    def test_fewer_than_three_sizes_stop_before_the_sweep(self, tmp_path, model_file,
                                                          n_list):
        cfg = tmp_path / "conv.cfg"
        out = tmp_path / "conv_out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n"
            f"[converge]\nmode = node_mean\nn_list = {n_list}\nseeds = 0\n"
            f"[output]\ndir = {out}\n"
        )
        proc = run_cli("converge", str(cfg))
        assert proc.returncode == 3, proc.stderr
        assert "n_list" in proc.stderr and "at least 3 distinct n" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestStability:
    @staticmethod
    def _config(tmp_path, model_file, name="stab", seeds="0", extra=""):
        cfg = tmp_path / f"{name}.cfg"
        out = tmp_path / f"{name}_out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n"
            f"[stability]\nn_list = 64, 128\nseeds = {seeds}\nfeature_dim = 4\n"
            f"sample_budget = 40\n{extra}"
            f"[output]\ndir = {out}\n"
        )
        return cfg, out

    def test_gap_files(self, tmp_path, model_file):
        cfg, out = self._config(tmp_path, model_file)
        proc = run_cli("stability", str(cfg))
        assert proc.returncode == 0, proc.stderr
        gaps = (out / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "n,seed,kind,gap"
        kinds = {line.split(",")[2] for line in gaps[1:]}
        assert kinds == {"iso", "non_iso"}
        medians = (out / "gap_medians.csv").read_text().splitlines()
        assert medians[0] == "n,seed,median_iso,median_non_iso"
        assert len(medians) == 3

    def test_worker_pool_matches_serial(self, tmp_path, model_file):
        outputs = []
        for jobs in (1, 2):
            cfg, out = self._config(tmp_path, model_file, name=f"jobs{jobs}",
                                    seeds="0, 1")
            proc = run_cli("--jobs", str(jobs), "stability", str(cfg))
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("gaps.csv", "gap_medians.csv")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].splitlines()) == 5

    def test_jobs_flag_reaches_the_worker_pool(self, tmp_path, model_file,
                                               monkeypatch):
        from graphon_mpnn import cli, util

        seen = []

        def recording_map(fn, tasks, jobs=1):
            seen.append(jobs)
            return util.parallel_map(fn, tasks, jobs=1)

        monkeypatch.setattr(cli, "parallel_map", recording_map)
        cfg, _ = self._config(tmp_path, model_file)
        assert cli.main(["stability", str(cfg)]) == 0
        assert cli.main(["--jobs", "2", "stability", str(cfg)]) == 0
        assert seen == [1, 2]

    def test_no_unmatched_block_pair_fails_before_sampling(self, tmp_path, capsys,
                                                            monkeypatch):
        model = tmp_path / "matched.sbm"
        model.write_text("r = 2\nblock_mass = [0.5, 0.5]\n"
                         "S = [0.6, 0.1, 0.1, 0.6]\nB = [1.0, 1.0]\n")
        sampled = []
        monkeypatch.setattr(cli, "sample_graph", lambda *args: sampled.append(args))
        cfg, out = self._config(tmp_path, model)
        assert cli.main(["stability", str(cfg)]) == 3
        assert "no unmatched block pair" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()


class TestTable:
    def test_unknown_method_or_scenario_is_a_config_error(self, tmp_path, model_file):
        # rejected while parsing, before any model trains
        for key, names, bad in (("methods", "oracle, pair_fixd", "pair_fixd"),
                                ("scenarios", "transductive, inductiv_ood",
                                 "inductiv_ood")):
            cfg = tmp_path / f"{key}.cfg"
            out = tmp_path / key
            cfg.write_text(
                f"[sbm]\nspec = {model_file}\n[table]\nn_train = 150\n"
                f"n_test_ood = 300\nruns = 1\nseed = 0\nk_list = 1\n"
                f"epochs_head = 2\n{key} = {names}\n[output]\ndir = {out}\n"
            )
            proc = run_cli("table", str(cfg))
            assert proc.returncode == 2, proc.stderr
            assert "config error" in proc.stderr and bad in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("methods, scenarios, n_train, n_test_ood", [
        ("pair_learn", "inductive_ood", 150, 4200),
        ("oracle, pair_fixed", "transductive, inductive_ood", 150, 8200),
        ("pair_learn", "transductive", 4200, 150),
    ])
    def test_pair_cap_fails_before_sampling(self, tmp_path, model_file, capsys,
                                            monkeypatch, methods, scenarios,
                                            n_train, n_test_ood):
        # pair_learn is capped at n <= 4096, the symbolic pair_fixed at 8192
        sampled = []
        monkeypatch.setattr(linkpred, "sample_graph", lambda *args: sampled.append(args))
        cfg = tmp_path / "cap.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[table]\nn_train = {n_train}\n"
            f"n_test_ood = {n_test_ood}\nruns = 1\nseed = 0\nmethods = {methods}\n"
            f"scenarios = {scenarios}\n[output]\ndir = {out}\n"
        )
        assert cli.main(["table", str(cfg)]) == 3
        assert "pair recursion capped" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    def test_ood_size_is_not_checked_without_the_ood_scenario(self, tmp_path,
                                                              model_file, monkeypatch):
        class Sampled(Exception):
            pass

        def sample_graph(*args):
            raise Sampled

        monkeypatch.setattr(linkpred, "sample_graph", sample_graph)
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[table]\nn_train = 150\n"
            f"n_test_ood = 4200\nruns = 1\nseed = 0\nmethods = pair_learn\n"
            f"scenarios = transductive\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        with pytest.raises(Sampled):
            cli.main(["table", str(cfg)])

    @pytest.mark.parametrize("n_train, hidden", [(6, 0), (12, 1), (20, 4)])
    def test_too_few_hidden_edges_is_a_precondition_error(self, tmp_path, model_file,
                                                         n_train, hidden):
        # 0, 1 and 4 hidden edges leave the train, validation and test
        # positives or the validation positives empty
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[table]\nn_train = {n_train}\n"
            f"n_test_ood = 40\nruns = 1\nseed = 0\nk_list = 1\nepochs_head = 2\n"
            f"epochs_end_to_end = 2\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        proc = run_cli("table", str(cfg))
        assert proc.returncode == 3, proc.stderr
        assert f"hides {hidden} edge(s)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n_train, k", [(120, 50), (250, 100)])
    def test_too_few_negatives_fails_before_training(self, tmp_path, model_file, capsys,
                                                     monkeypatch, n_train, k):
        # every scenario scores as many negatives as the transductive test
        # split, so the default k_list is checked against it before training
        def train_link_model(*args, **kwargs):
            raise AssertionError("a model trained")

        monkeypatch.setattr(linkpred, "train_link_model", train_link_model)
        cfg = tmp_path / "k.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[sbm]\nspec = {model_file}\n[table]\nn_train = {n_train}\n"
            f"n_test_ood = 300\nruns = 1\nseed = 0\n[output]\ndir = {out}\n"
        )
        assert cli.main(["table", str(cfg)]) == 3
        assert f"hits@{k} needs at least {k} negatives" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_pool_matches_serial(self, tmp_path, model_file):
        outputs = []
        for jobs in (1, 2):
            cfg = tmp_path / f"jobs{jobs}.cfg"
            out = tmp_path / f"jobs{jobs}_out"
            cfg.write_text(
                f"[sbm]\nspec = {model_file}\n[table]\nn_train = 150\n"
                f"n_test_ood = 300\nruns = 2\nseed = 0\nk_list = 1, 10\n"
                f"methods = node, pair_fixed, pair_learn, oracle\n"
                f"epochs_head = 3\nepochs_end_to_end = 3\n[output]\ndir = {out}\n"
            )
            proc = run_cli("--jobs", str(jobs), "table", str(cfg))
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("table.csv", "table.txt", "train_curves.csv")])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()
        assert {row.split(",")[1] for row in rows[1:]} == {
            "node", "pair_fixed", "pair_learn", "oracle"}
        assert all(row.endswith(",2") for row in rows[1:])
        # 2 runs x 3 trained methods x (3 epochs + the accuracy after the last)
        curves = [row.split(",") for row in outputs[0][2].decode().splitlines()]
        assert curves[0] == ["run", "method", "epoch", "loss", "val_accuracy"]
        assert [row[:3] for row in curves[1:]] == [
            [str(run), method, str(epoch)] for run in range(2)
            for method in ("node", "pair_fixed", "pair_learn") for epoch in range(4)]
        assert all((row[3] == "") == (row[2] == "3") for row in curves[1:])

    def test_method_order_changes_no_output(self, tmp_path, model_file):
        # each run trains its models in the order of `methods`, each from
        # a seed of its own
        outputs = []
        for name, methods in (("forward", "pair_fixed, node, oracle"),
                              ("reversed", "oracle, node, pair_fixed")):
            cfg = tmp_path / f"{name}.cfg"
            out = tmp_path / f"{name}_out"
            cfg.write_text(
                f"[sbm]\nspec = {model_file}\n[table]\nn_train = 150\n"
                f"n_test_ood = 300\nruns = 1\nseed = 0\nk_list = 1, 10\n"
                f"methods = {methods}\nepochs_head = 4\nepochs_end_to_end = 3\n"
                f"[output]\ndir = {out}\n"
            )
            proc = run_cli("table", str(cfg))
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("table.csv", "table.txt", "train_curves.csv")])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()
        assert {row.split(",")[1] for row in rows[1:]} == {"node", "pair_fixed", "oracle"}

    def test_jobs_flag_reaches_the_worker_pool(self, tmp_path, model_file, monkeypatch):
        from graphon_mpnn import util

        seen = []

        def recording_map(fn, tasks, jobs=1):
            seen.append(jobs)
            return util.parallel_map(fn, tasks, jobs=1)

        monkeypatch.setattr(linkpred, "parallel_map", recording_map)
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text(f"[sbm]\nspec = {model_file}\n[table]\n{TABLE_KEYS}runs = 1\n"
                       f"k_list = 1\n[output]\ndir = {tmp_path / 'out'}\n")
        assert cli.main(["table", str(cfg)]) == 0
        assert cli.main(["--jobs", "2", "table", str(cfg)]) == 0
        assert seen == [1, 2]


def assert_config_error(tmp_path, command, body, message, output=""):
    """A config of ``body`` and an [output] section (``dir`` plus
    ``output``) exits 2 with ``message`` before making the directory."""
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"{body}[output]\ndir = {out}\n{output}")
    proc = run_cli(command, str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and message in proc.stderr
    assert not out.exists()


def assert_same_net(got, want):
    assert len(got.layers) == len(want.layers)
    for (_, update), (_, expected) in zip(got.layers, want.layers):
        for a, b in zip(update.net.parameters(), expected.net.parameters()):
            np.testing.assert_array_equal(a, b)


TABLE_KEYS = "n_train = 150\nn_test_ood = 300\nseed = 0\nmethods = oracle\n"
NODE_SWEEP = "mode = node_mean\nn_list = 32\nseeds = 0\n"
NET_KEYS = (("layers", 0), ("feature_dim", 0), ("update_hidden", 0), ("net_seed", -1))


class TestOutOfRangeCounts:
    @pytest.mark.parametrize("command, section, key", [
        ("stability", "n_list = 64\nseeds = 0\nsample_budget = 0\n", "sample_budget"),
        ("table", TABLE_KEYS + "runs = 1\nk_list = 0, 1\n", "k_list"),
        ("table", TABLE_KEYS + "runs = 1\nk_list = -3\n", "k_list"),
        ("table", TABLE_KEYS + "runs = 0\n", "runs"),
        ("converge", "mode = node_mean\nn_list = 32, 64, 128\nseeds = -1\n", "seeds"),
        ("stability", "n_list = 64\nseeds = 0, -1\n", "seeds"),
        ("sample", "n = 10\nseed = -1\n", "seed"),
        # graph sizes below 2 are caught before any graph is sampled
        ("sample", "n = 1\nseed = 0\n", "n"),
        ("converge", "mode = pair_fixed\nn_list = 300, 400, 1\nseeds = 0\n", "n_list"),
        ("stability", "n_list = 64, 1\nseeds = 0\n", "n_list"),
        ("table", TABLE_KEYS.replace("n_train = 150", "n_train = 1") + "runs = 1\n",
         "n_train"),
        ("table", TABLE_KEYS.replace("n_test_ood = 300", "n_test_ood = 1") + "runs = 1\n",
         "n_test_ood"),
        ("table", TABLE_KEYS.replace("seed = 0", "seed = -1") + "runs = 1\n", "seed"),
        *(("converge", f"{NODE_SWEEP}{key} = {value}\n", key)
          for key, value in NET_KEYS),
        ("converge", "mode = pair_fixed\nn_list = 32\nseeds = 0\nlayers = 0\n",
         "layers"),
        ("converge", "mode = pair_net\nn_list = 32\nseeds = 0\nupdate_hidden = 0\n",
         "update_hidden"),
        *(("stability", f"n_list = 64\nseeds = 0\n{key} = {value}\n", key)
          for key, value in NET_KEYS),
        *(("table", f"{TABLE_KEYS}runs = 1\n{key} = {value}\n", key)
          for key, value in (("epochs_head", -1), ("epochs_end_to_end", -1),
                             ("pair_layers", 0))),
    ])
    def test_is_a_config_error(self, tmp_path, model_file, command, section, key):
        assert_config_error(tmp_path, command,
                            f"[sbm]\nspec = {model_file}\n[{command}]\n{section}",
                            f"{key} must be >=")

    @pytest.mark.parametrize("command, section, key", [
        ("converge", "mode = node_mean\nn_list =\nseeds = 0\n", "n_list"),
        ("converge", "mode = node_mean\nn_list = 32, 64, 128\nseeds =\n", "seeds"),
        ("stability", "n_list =\nseeds = 0\n", "n_list"),
        ("stability", "n_list = 64\nseeds = ,\n", "seeds"),
        ("table", TABLE_KEYS + "runs = 1\nk_list =\n", "k_list"),
    ])
    def test_empty_list(self, tmp_path, model_file, command, section, key):
        assert_config_error(tmp_path, command,
                            f"[sbm]\nspec = {model_file}\n[{command}]\n{section}",
                            f"[{command}] {key}: needs at least one integer")

    @pytest.mark.parametrize("value", ["0", "-1", "1", "1.5", "nan"])
    def test_probability_outside_the_unit_interval(self, tmp_path, model_file, value):
        assert_config_error(tmp_path, "converge",
                            f"[sbm]\nspec = {model_file}\n[converge]\n"
                            f"{NODE_SWEEP}p = {value}\n", "p: must be in (0, 1)")

    @pytest.mark.parametrize("value", ["0", "-1e-2", "inf", "nan"])
    def test_learning_rate_not_finite_and_positive(self, tmp_path, model_file, value):
        assert_config_error(tmp_path, "table",
                            f"[sbm]\nspec = {model_file}\n[table]\n"
                            f"{TABLE_KEYS}runs = 1\nlr = {value}\n",
                            "lr: must be finite and > 0")

    def test_negative_jobs_flag_is_a_usage_error(self, tmp_path, model_file):
        # and so is 0: the flag is the only worker cap
        cfg = tmp_path / "sample.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"[sbm]\nspec = {model_file}\n[sample]\nn = 10\nseed = 0\n"
                       f"[output]\ndir = {out}\n")
        for jobs in ("-3", "0"):
            proc = run_cli("--jobs", jobs, "sample", str(cfg))
            assert proc.returncode == 2
            assert "--jobs: must be an integer >= 1" in proc.stderr
            assert not out.exists()


class TestConfigReader:
    """Every key is read once: unread keys, unknown sections and values that
    do not parse as their type are config errors, raised before any work."""

    @pytest.mark.parametrize("command, section, key", [
        ("converge", NODE_SWEEP + "layrs = 5\n", "layrs"),
        ("table", TABLE_KEYS + "runs = 1\nepoch_head = 5\n", "epoch_head"),
        # the closed-form pair net has no bound and no update net
        ("converge", "mode = pair_fixed\nn_list = 32\nseeds = 0\nfeature_dim = 4\n",
         "feature_dim"),
        ("converge", "mode = pair_fixed\nn_list = 32\nseeds = 0\np = 0.01\n", "p"),
        ("converge", "mode = pair_fixed\nn_list = 32\nseeds = 0\nnet_seed = 1\n",
         "net_seed"),
        ("converge", "mode = pair_net\nn_list = 32\nseeds = 0\nfeature_dim = 4\n",
         "feature_dim"),
        ("stability", "n_list = 64\nseeds = 0\nmode = node_mean\n", "mode"),
        ("sample", "n = 10\nseed = 0\nn_list = 10\n", "n_list"),
        # --jobs is the one worker cap; no section has a jobs key
        ("converge", NODE_SWEEP + "jobs = 2\n", "jobs"),
        ("stability", "n_list = 64\nseeds = 0\njobs = 2\n", "jobs"),
        ("table", TABLE_KEYS + "runs = 1\njobs = 2\n", "jobs"),
    ])
    def test_unread_key(self, tmp_path, model_file, command, section, key):
        assert_config_error(tmp_path, command,
                            f"[sbm]\nspec = {model_file}\n[{command}]\n{section}",
                            "unused keys: " + key)

    def test_unread_model_and_output_keys(self, tmp_path, model_file):
        sample = "[sample]\nn = 10\nseed = 0\n"
        assert_config_error(tmp_path, "sample",
                            f"[sbm]\nspec = {model_file}\nr = 3\n{sample}",
                            "[sbm] has unused keys: r")
        assert_config_error(tmp_path, "sample", f"[sbm]\nspec = {model_file}\n{sample}",
                            "[output] has unused keys: dirr", output="dirr = x\n")

    @pytest.mark.parametrize("command, section, extra", [
        ("sample", "n = 10\nseed = 0\n", "[sampel]\nn = 10\n"),
        ("stability", "n_list = 64\nseeds = 0\n", "[converge]\nmode = node_mean\n"),
    ])
    def test_unknown_section(self, tmp_path, model_file, command, section, extra):
        assert_config_error(tmp_path, command,
                            f"[sbm]\nspec = {model_file}\n{extra}[{command}]\n{section}",
                            "config error: unknown section [")

    @pytest.mark.parametrize("command, section, key", [
        ("sample", "n = 1.5\nseed = 0\n", "n"),
        ("converge", "mode = node_mean\nn_list = 32, x\nseeds = 0\n", "n_list"),
        ("table", TABLE_KEYS + "runs = 1\nlr = fast\n", "lr"),
        ("converge", "mode = node_max\nn_list = 32\nseeds = 0\n", "mode"),
    ])
    def test_value_of_the_wrong_type(self, tmp_path, model_file, command, section, key):
        assert_config_error(tmp_path, command,
                            f"[sbm]\nspec = {model_file}\n[{command}]\n{section}",
                            f"config error: [{command}] {key}: ")

    def test_percent_sign_is_literal(self, tmp_path, model_file):
        cfg = tmp_path / "pct.cfg"
        cfg.write_text(f"[sbm]\nspec = {model_file}\n[sample]\nn = 10\nseed = 0\n"
                       f"[output]\ndir = {tmp_path / 'out%1'}\n")
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out%1" / "edges.txt").exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                             ids=lambda p: p.name)
    def test_parses(self, path):
        command = path.name.split("_")[0].removesuffix(".cfg")
        cfg = getattr(config, f"parse_{command}_config")(path)[0]
        if command == "converge":
            assert path.name == f"converge_{cfg.mode}.cfg"
        if command in ("converge", "stability"):
            assert cfg.mpnn.layers

    def test_pair_net_keys_reach_the_network(self, tmp_path, model_file):
        cfg, _ = config.parse_converge_config(CONFIGS / "converge_pair_net.cfg")
        assert_same_net(cfg.mpnn, learnable_psi_mpnn(2, hidden=5, seed=1))
        # without the net keys: 2 layers, update width 10, net seed 0
        path = tmp_path / "net.cfg"
        path.write_text(f"[sbm]\nspec = {model_file}\n[converge]\nmode = pair_net\n"
                        f"n_list = 32\nseeds = 0\n[output]\ndir = {tmp_path}\n")
        cfg, _ = config.parse_converge_config(path)
        assert_same_net(cfg.mpnn, learnable_psi_mpnn(2, hidden=10, seed=0))

    def test_table_keys_left_out_take_the_field_defaults(self, tmp_path, model_file):
        path = tmp_path / "table.cfg"
        path.write_text(f"[sbm]\nspec = {model_file}\n[table]\nn_train = 150\n"
                        f"n_test_ood = 300\nruns = 1\nseed = 0\n[output]\ndir = {tmp_path}\n")
        cfg = config.parse_table_config(path)[0]
        assert cfg == linkpred.RunTableConfig(spec=cfg.spec, n_train=150, n_test_ood=300,
                                              runs=1, seed=0)

    def test_golden_sample(self, tmp_path):
        # the output directory resolves against the working directory; the
        # run's manifest and the committed one, run as configs from there,
        # write the same bytes
        golden = REPO / "out" / "sample_example"
        out = tmp_path / "out" / "sample_example"
        for cfg in (CONFIGS / "sample_example.cfg", out / "manifest.txt",
                    golden / "manifest.txt"):
            proc = run_cli("sample", str(cfg), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            for name in ("edges.txt", "blocks.txt"):
                assert (out / name).read_bytes() == (golden / name).read_bytes(), (cfg, name)


MODEL = {"r": "2", "block_mass": "[0.5, 0.5]", "S": "[0.5, 0.1, 0.1, 0.5]",
         "B": "[1, 1]"}


def model_text(changes=(), drop=(), extra=()):
    """``key = value`` lines of MODEL with ``changes`` applied, the keys in
    ``drop`` left out and the (key, value) pairs of ``extra`` appended."""
    model = {**MODEL, **dict(changes)}
    lines = [(k, v) for k, v in model.items() if k not in drop] + list(extra)
    return "".join(f"{k} = {v}\n" for k, v in lines)


def sample_config(tmp_path, sbm_body):
    """A sample config with ``sbm_body`` as its [sbm] section, and its
    output directory."""
    cfg = tmp_path / "sample.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"[sbm]\n{sbm_body}[sample]\nn = 30\nseed = 2\n"
                   f"[output]\ndir = {out}\n")
    return cfg, out


class TestModelReader:
    """Model files and inline [sbm] sections go through one reader: each
    violation exits 3 naming the source and the key, before any output."""

    @pytest.mark.parametrize("text, message", [
        pytest.param(model_text({"r": "two"}), "r must be an integer >= 1, got 'two'",
                     id="r-word"),
        pytest.param(model_text({"r": "0"}), "r must be an integer >= 1, got '0'",
                     id="r-zero"),
        pytest.param(model_text({"r": "2.0"}), "r must be an integer >= 1, got '2.0'",
                     id="r-float"),
        pytest.param(model_text({"S": "[0.5, 0.1, 0.1, x]"}), "S: expected numbers",
                     id="S-entry"),
        pytest.param(model_text({"block_mass": "[0.4, 0.3, 0.3]"}),
                     "block_mass must have r entries (r = 2), got 3", id="block_mass-length"),
        pytest.param(model_text({"S": "[0.5, 0.1, 0.1]"}),
                     "S must have r * r entries (r = 2), got 3", id="S-length"),
        pytest.param(model_text({"B": "[1, 1, 1]"}),
                     "B must have a non-zero multiple of r entries (r = 2), got 3",
                     id="B-length"),
        pytest.param(model_text({"B": "[]"}),
                     "B must have a non-zero multiple of r entries (r = 2), got 0",
                     id="B-empty"),
        pytest.param(model_text(extra=[("Bx", "3")]), "unknown key 'bx'", id="unknown-key"),
        pytest.param(model_text(drop=["B"]), "missing keys: B", id="missing-key"),
    ])
    def test_violation_exits_3_from_either_source(self, tmp_path, capsys, text, message):
        # in process: an exception the CLI does not map to an exit code fails the test
        path = tmp_path / "bad.sbm"
        path.write_text(text)
        assert cli.main(["validate-spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and message.lower() in err.lower()

        cfg, out = sample_config(tmp_path, text)
        assert cli.main(["sample", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "[sbm]: " in err and message.lower() in err.lower()
        assert not out.exists()

    def test_repeated_key(self, tmp_path, capsys):
        text = model_text(extra=[("S", MODEL["S"])])
        path = tmp_path / "bad.sbm"
        path.write_text(text)
        assert cli.main(["validate-spec", str(path)]) == 3
        assert f"{path}: repeated key 'S'" in capsys.readouterr().err
        # the config parser rejects a repeated key in any section first
        cfg, out = sample_config(tmp_path, text)
        assert cli.main(["sample", str(cfg)]) == 2
        assert "option 's' in section 'sbm' already exists" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_or_unreadable_model_file(self, tmp_path):
        for path in (tmp_path / "missing.sbm", tmp_path):
            proc = run_cli("validate-spec", str(path))
            assert proc.returncode == 3, proc.stderr
            assert f"cannot read model file {path}" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_bracketed_and_bare_lists_agree(self, tmp_path):
        bare = {k: v.strip("[]") for k, v in MODEL.items()}
        spaced = {k: v.replace(",", " ") for k, v in MODEL.items()}
        specs = []
        for i, model in enumerate((MODEL, bare, spaced)):
            text = model_text(model)
            path = tmp_path / f"model{i}.sbm"
            path.write_text("# a comment line\n" + text.replace("\n", "  # note\n", 1))
            specs.append(read_spec_file(path))
            cfg, _ = sample_config(tmp_path, text)
            specs.append(config.parse_sample_config(cfg)[0].spec)
        for spec in specs[1:]:
            for name in ("block_mass", "S", "B"):
                np.testing.assert_array_equal(getattr(spec, name),
                                              getattr(specs[0], name))

    @pytest.mark.parametrize("path", sorted([*REPO.glob("scripts/models/*.sbm"),
                                             *REPO.glob("perfbench/models/*.sbm")]),
                             ids=lambda p: str(p.relative_to(REPO)))
    def test_shipped_model_reads_as_an_inline_section(self, tmp_path, path,
                                                      convergence_spec, linkpred_spec):
        from_file = read_spec_file(path)
        cfg, _ = sample_config(tmp_path, path.read_text())
        inline = config.parse_sample_config(cfg)[0].spec
        want = {"convergence.sbm": convergence_spec, "linkpred.sbm": linkpred_spec}[path.name]
        for spec in (from_file, inline):
            for name in ("block_mass", "S", "B"):
                np.testing.assert_array_equal(getattr(spec, name), getattr(want, name))

    def test_written_model_format(self, tmp_path, linkpred_spec):
        path = tmp_path / "model.sbm"
        write_spec_file(linkpred_spec, path)
        assert path.read_text() == (
            "r = 3\nblock_mass = [0.45, 0.1, 0.45]\n"
            "S = [0.6, 0.05, 0.02, 0.05, 0.6, 0.05, 0.02, 0.05, 0.6]\nB = [1.0, 1.0, 1.0]\n")


class TestInlineModel:
    def test_inline_sbm_section(self, tmp_path):
        cfg = tmp_path / "sample.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            "[sbm]\nr = 2\nblock_mass = 0.5, 0.5\n"
            "S = 0.8, 0.1, 0.1, 0.8\nB = 1, 1\n"
            f"[sample]\nn = 30\nseed = 2\n[output]\ndir = {out}\n"
        )
        proc = run_cli("sample", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "edges.txt").exists()
