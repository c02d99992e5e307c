"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from graphon_mpnn import (
    RunTableConfig,
    SbmSpec,
    cmpnn_pair_sbm,
    convergence_sweep,
    gmpnn_node,
    gmpnn_pair,
    graph_stats,
    iso_gap_stats,
    loglog_slope,
    run_table,
    sample_graph,
)
from graphon_mpnn.analysis import bound_shares
from graphon_mpnn.mpnn import Mpnn, NetFunction, graphsage_mpnn
from graphon_mpnn.nn import init_net
from graphon_mpnn.pair_mpnn import fixed_psi_mpnn, learnable_psi_mpnn
from graphon_mpnn.linkpred import node_link_model, pair_link_model
from graphon_mpnn.sbm import write_spec_file

from oracles import (
    finite_difference_gradients,
    max_relative_error,
    node_mpnn_oracle,
    pair_mpnn_oracle,
)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


def random_valid_spec(rng):
    r = int(rng.integers(2, 6))
    mass = rng.dirichlet(np.ones(r))
    S = rng.uniform(0.05, 0.95, size=(r, r))
    S = (S + S.T) / 2
    return SbmSpec(block_mass=mass, S=S, B=np.ones((r, 1)))


class TestCriterion1:
    def test_stationarity(self, convergence_spec):
        t0 = time.time()
        worst = 0.0
        rng = np.random.default_rng(2024)
        specs = [convergence_spec] + [random_valid_spec(rng) for _ in range(20)]
        for spec in specs:
            trace = cmpnn_pair_sbm(spec, fixed_psi_mpnn(4), init=spec.S,
                                   return_layers=True)
            for layer in trace:
                worst = max(worst, float(np.max(np.abs(layer[:, :, 0] - spec.S))))
        elapsed = time.time() - t0
        ok = worst < 1e-12 and elapsed < 1.0
        assert _report(
            1, ok,
            f"stationarity max err {worst:.2e} over {len(specs)} specs, "
            f"{elapsed:.2f} s",
        )


class TestCriterion2:
    def test_brute_force_equivalence(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        checked = 0
        for k in range(50):
            spec = random_valid_spec(rng)
            n = int(rng.integers(4, 7))
            T = int(rng.integers(1, 3))
            g = sample_graph(spec, n, seed=int(rng.integers(10_000)))
            stats = graph_stats(g)
            seed = int(rng.integers(10_000))
            if k % 2 == 0:
                agg = "neighbor_average" if k % 4 == 0 else "n_normalized_sum"
                layers = []
                f = 1
                for t in range(T):
                    h, f_next = 2, 2
                    msg = NetFunction(init_net([2 * f, 4, h], seed=seed,
                                               tag=f"am{k}/{t}"))
                    upd = NetFunction(init_net([f + h, 4, f_next], seed=seed,
                                               tag=f"au{k}/{t}"))
                    layers.append((msg, upd))
                    f = f_next
                mpnn = Mpnn(layers=tuple(layers), aggregation=agg)
                got = gmpnn_node(g, stats, mpnn)
                want = node_mpnn_oracle(g.adjacency, g.node_features,
                                        list(mpnn.layers), agg)
            else:
                if k % 4 == 1:
                    mpnn = fixed_psi_mpnn(T)
                else:
                    layers = []
                    for t in range(T):
                        msg = NetFunction(init_net([2, 3, 1], seed=seed,
                                                   tag=f"pm{k}/{t}"))
                        upd = NetFunction(init_net([2, 3, 1], seed=seed,
                                                   tag=f"pu{k}/{t}"))
                        layers.append((msg, upd))
                    mpnn = Mpnn(layers=tuple(layers))
                got = gmpnn_pair(g, stats, mpnn)
                want = pair_mpnn_oracle(g.adjacency, list(mpnn.layers))
            worst = max(worst, float(np.max(np.abs(got - want))))
            checked += 1
        elapsed = time.time() - t0
        ok = worst < 1e-12 and elapsed < 10.0 and checked == 50
        assert _report(
            2, ok,
            f"brute-force equivalence max err {worst:.2e} over {checked} "
            f"instances, {elapsed:.1f} s",
        )


class TestCriterion3:
    def test_node_convergence_slope(self, convergence_spec):
        t0 = time.time()
        mpnn = graphsage_mpnn([1, 8, 8], update_hidden=10, seed=0)
        records = convergence_sweep(
            convergence_spec, mpnn, "node_mean",
            n_list=[2 ** k for k in range(5, 13)], seeds=range(5),
        )
        fit = loglog_slope(records)
        elapsed = time.time() - t0
        ok = -0.7 <= fit.slope <= -0.3 and elapsed < 300.0
        assert _report(
            3, ok,
            f"node slope {fit.slope:.4f} (r2 {fit.r_squared:.3f}), "
            f"{elapsed:.0f} s",
        )


class TestCriterion4:
    def test_pair_convergence_slope(self, convergence_spec):
        # three rounds of the fixed variant; the normalizer noise compounds
        # at small sizes and settles into the asymptotic decay
        t0 = time.time()
        records = convergence_sweep(
            convergence_spec, fixed_psi_mpnn(3), "pair_fixed",
            n_list=[2 ** k for k in range(5, 12)], seeds=range(5),
        )
        fit = loglog_slope(records)
        elapsed = time.time() - t0
        ok = -0.7 <= fit.slope <= -0.3 and elapsed < 600.0
        assert _report(
            4, ok,
            f"pair slope {fit.slope:.4f} (r2 {fit.r_squared:.3f}), "
            f"{elapsed:.0f} s",
        )


class TestCriterion5:
    @staticmethod
    def _sweep(convergence_spec, mode):
        mpnn = graphsage_mpnn([1, 8, 8], update_hidden=10, seed=0)
        return convergence_sweep(convergence_spec, mpnn, mode,
                                 n_list=[1024], seeds=range(50))

    @staticmethod
    def _premise(records):
        held = sum(bool(r.n_condition_ok) for r in records)
        ratio = float(np.median([r.bound / r.delta for r in records]))
        return (f"n_condition_ok in {held} of {len(records)} seeds, "
                f"median bound/delta {ratio:.3g}")

    def test_bound_validity_frequency(self, convergence_spec):
        # the node_mean bound's n-condition fails at n = 1024
        t0 = time.time()
        records = self._sweep(convergence_spec, "node_mean")
        freq = float(np.mean([r.delta <= r.bound for r in records]))
        elapsed = time.time() - t0
        ok = freq >= 0.95 and elapsed < 180.0
        assert _report(
            5, ok,
            f"node_mean bound validity frequency {freq:.2f} over 50 seeds at "
            f"n=1024, {self._premise(records)}, {elapsed:.0f} s",
        )

    def test_bound_validity_where_its_premise_holds(self, convergence_spec):
        t0 = time.time()
        records = self._sweep(convergence_spec, "node_sum")
        validity, n_condition = bound_shares(records)
        elapsed = time.time() - t0
        ok = n_condition == 1.0 and validity >= 0.95 and elapsed < 180.0
        assert _report(
            5, ok,
            f"node_sum bound validity frequency {validity} over 50 seeds at "
            f"n=1024, {self._premise(records)}, {elapsed:.0f} s",
        )


class TestCriterion6:
    def test_iso_block_collapse(self, convergence_spec):
        t0 = time.time()
        mpnn = graphsage_mpnn([1, 8, 8], update_hidden=10, seed=0)
        medians = {}
        for n in (512, 4096):
            iso_gaps, non_gaps = [], []
            for seed in range(5):
                g = sample_graph(convergence_spec, n, seed=seed)
                emb = gmpnn_node(g, graph_stats(g), mpnn, init="degree")
                stats = iso_gap_stats(emb, g, [(0, 2)], sample_budget=3000,
                                      seed=seed)
                iso_gaps.append(stats.gaps_iso)
                non_gaps.append(stats.gaps_non_iso)
            medians[n] = (
                float(np.median(np.concatenate(iso_gaps))),
                float(np.median(np.concatenate(non_gaps))),
            )
        elapsed = time.time() - t0
        iso_shrinks = medians[4096][0] < 0.5 * medians[512][0]
        non_iso_stays = medians[4096][1] > 0.5 * medians[512][1]
        ok = iso_shrinks and non_iso_stays and elapsed < 180.0
        assert _report(
            6, ok,
            f"iso median {medians[512][0]:.4f}->{medians[4096][0]:.4f}, "
            f"non-iso {medians[512][1]:.4f}->{medians[4096][1]:.4f}, "
            f"{elapsed:.0f} s",
        )


class TestCriterion7:
    def test_desk_scale_table(self, linkpred_spec):
        t0 = time.time()
        # two workers: the table does not depend on jobs
        # (tests/test_cli.py::TestTable::test_worker_pool_matches_serial)
        cfg = RunTableConfig(
            spec=linkpred_spec, n_train=500, n_test_ood=2000, runs=10, seed=0,
            methods=("node", "pair_fixed", "pair_learn", "oracle"),
            epochs_head=200, epochs_end_to_end=150, jobs=2,
        )
        report = run_table(cfg)
        elapsed = time.time() - t0

        oracle_mcc, _ = report.mean_std("transductive", "oracle", "mcc")
        oracle_ood_mcc, _ = report.mean_std("inductive_ood", "oracle", "mcc")
        pf_ood_mcc, _ = report.mean_std("inductive_ood", "pair_fixed", "mcc")
        pf_ind_mcc, _ = report.mean_std("inductive_same", "pair_fixed", "mcc")
        # chance for a scorer is a random ranking; threshold metrics at
        # tau = 0.5 keep an O(n^-1/2) block-size signal at n = 2000
        node_ood_auc, _ = report.mean_std("inductive_ood", "node", "auc")
        node_ood_mcc, _ = report.mean_std("inductive_ood", "node", "mcc")
        node_ood_bacc, _ = report.mean_std("inductive_ood", "node",
                                           "balanced_accuracy")

        checks = {
            "oracle mcc in 0.93+-0.05": abs(oracle_mcc - 0.93) <= 0.05,
            "pair_fixed OOD mcc within 0.05 of oracle":
                abs(pf_ood_mcc - oracle_ood_mcc) <= 0.05,
            "node OOD auc in [0.45, 0.55]": 0.45 <= node_ood_auc <= 0.55,
            "pair_fixed inductive mcc > 0.85": pf_ind_mcc > 0.85,
            "runtime < 30 min": elapsed < 1800.0,
        }
        detail = (
            f"oracle mcc {oracle_mcc:.3f}, pair_fixed OOD {pf_ood_mcc:.3f} "
            f"(oracle OOD {oracle_ood_mcc:.3f}), node OOD auc "
            f"{node_ood_auc:.3f} (mcc {node_ood_mcc:.3f} bacc "
            f"{node_ood_bacc:.3f}, not gated), pair_fixed inductive "
            f"{pf_ind_mcc:.3f}, {elapsed:.0f} s"
        )
        failed = [name for name, good in checks.items() if not good]
        assert _report(7, not failed, detail + (
            f" | failed: {failed}" if failed else ""))


class TestCriterion8:
    def test_gradients_of_every_trainable_net(self):
        # the nets instantiated for criteria 3-7: sweep backbones, link
        # backbones, and both heads
        nets = []
        for mpnn in (
            graphsage_mpnn([1, 8, 8], update_hidden=10, seed=0),
            learnable_psi_mpnn(2, hidden=5, seed=1),
        ):
            nets.extend(mpnn.trainable_nets())
        node_model = node_link_model(seed=11)
        pair_model = pair_link_model(T=2, learn_update=True, seed=12)
        nets.extend(node_model.trainable_nets())
        nets.extend(pair_model.trainable_nets())

        rng = np.random.default_rng(0)
        worst = 0.0
        for net in nets:
            x = rng.normal(size=(5, net.width_in))
            g = rng.normal(size=(5, net.width_out))

            def loss():
                return float(np.sum(net.forward(x) * g))

            _, cache = net.forward_cache(x)
            analytic, _ = net.backward(cache, g)
            numeric = finite_difference_gradients(loss, net.parameters())
            worst = max(worst, max_relative_error(analytic, numeric))
        ok = worst < 1e-4
        assert _report(
            8, ok,
            f"gradient check max relative error {worst:.2e} over "
            f"{len(nets)} nets",
        )


class TestCriterion9:
    def test_byte_identical_reruns(self, tmp_path, linkpred_spec):
        import subprocess
        import sys

        t0 = time.time()
        spec_path = tmp_path / "model.sbm"
        write_spec_file(linkpred_spec, spec_path)

        configs = {
            "sample": "[sbm]\nspec = model.sbm\n[sample]\nn = 64\nseed = 3\n",
            "converge": (
                "[sbm]\nspec = model.sbm\n[converge]\nmode = node_mean\n"
                "n_list = 32, 64, 128\nseeds = 0, 1\nfeature_dim = 4\n"
            ),
            "stability": (
                "[sbm]\nspec = model.sbm\n[stability]\nn_list = 64, 128\n"
                "seeds = 0\nfeature_dim = 4\nsample_budget = 50\n"
            ),
            "table": (
                "[sbm]\nspec = model.sbm\n[table]\nn_train = 150\n"
                "n_test_ood = 300\nruns = 2\nseed = 0\nk_list = 1, 5\n"
                "methods = oracle, pair_fixed\nepochs_head = 20\n"
            ),
        }
        all_identical = True
        compared = []
        for sub, body in configs.items():
            outputs = []
            for attempt in ("a", "b"):
                out_dir = tmp_path / f"{sub}_{attempt}"
                cfg_path = tmp_path / f"{sub}_{attempt}.cfg"
                cfg_path.write_text(body + f"[output]\ndir = {out_dir}\n")
                proc = subprocess.run(
                    [sys.executable, "-m", "graphon_mpnn", sub, str(cfg_path)],
                    capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(out_dir)
            a_files = sorted(p.name for p in outputs[0].iterdir())
            b_files = sorted(p.name for p in outputs[1].iterdir())
            assert a_files == b_files
            for name in a_files:
                if name == "manifest.txt":
                    continue  # embeds the config, which names the out dir
                same = (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
                all_identical = all_identical and same
                compared.append(f"{sub}/{name}")
        elapsed = time.time() - t0
        ok = all_identical and len(compared) >= 6
        assert _report(
            9, ok,
            f"byte-identical outputs for {len(compared)} files across "
            f"4 subcommands, {elapsed:.0f} s",
        )
