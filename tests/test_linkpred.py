import tracemalloc
import weakref

import numpy as np
import pytest

from graphon_mpnn import (
    PreconditionError,
    SbmSpec,
    build_scenario,
    evaluate,
    node_link_model,
    oracle_scores,
    pair_link_model,
    sample_graph,
    train_link_model,
)
from graphon_mpnn.linkpred import (
    TAU,
    LinkDataset,
    _bce_loss_and_grad,
    _engines,
    _hide_edges,
    _loss_and_grads,
    build_training_split,
    model_scores,
    sample_across_block_nonedges,
)
from graphon_mpnn import linkpred, pair_mpnn, sbm
from graphon_mpnn.nn import AdamState, Buffers, adam_step
from graphon_mpnn.rng import child_seed, stream
from graphon_mpnn.sbm import isomorphic_block_pairs

from oracles import (
    across_block_nonedges_oracle,
    edge_list,
    finite_difference_gradients,
    max_relative_error,
    pair_update_rows_oracle,
)


def tiny_dataset(spec, n, seed, n_pos=6, n_neg=6):
    """Hand-rolled dataset on a small graph: first edges vs first non-edges."""
    g = sample_graph(spec, n, seed=seed)
    edges = edge_list(g)
    iu, ju = np.triu_indices(n, k=1)
    non = np.column_stack([iu, ju])[g.adjacency[iu, ju] == 0]
    assert len(edges) >= 2 * n_pos and len(non) >= 2 * n_neg
    return LinkDataset(
        observed=g,
        positives={"train": edges[:n_pos], "val": edges[n_pos : 2 * n_pos]},
        negatives={"train": non[:n_neg], "val": non[n_neg : 2 * n_neg]},
    )


class TestBuildScenario:
    def test_transductive_shares_observed_graph(self, linkpred_spec):
        train_ds, test_ds = build_scenario(linkpred_spec, 120, 120, seed=0,
                                           scenario="transductive")
        assert test_ds.observed is train_ds.observed
        assert "test" in test_ds.positives

    def test_split_counts(self, linkpred_spec):
        train_ds, test_ds = build_scenario(linkpred_spec, 200, 200, seed=1,
                                           scenario="transductive")
        g = sample_graph(linkpred_spec, 200, seed=0)  # not the same graph
        m_observed = len(edge_list(train_ds.observed))
        n_tr = len(train_ds.positives["train"])
        n_val = len(train_ds.positives["val"])
        n_te = len(test_ds.positives["test"])
        n_hidden = n_tr + n_val + n_te
        m_full = m_observed + n_hidden
        assert n_hidden == int(np.floor(0.1 * m_full))
        assert n_tr == int(np.floor(0.8 * n_hidden))
        assert n_val == int(np.floor(0.1 * n_hidden))
        assert abs(n_tr - round(0.8 * 0.1 * m_full)) <= 1
        for split, pos in train_ds.positives.items():
            assert len(train_ds.negatives[split]) == len(pos)
        assert len(test_ds.negatives["test"]) == n_te

    def test_hidden_positives_disjoint_and_removed(self, linkpred_spec):
        train_ds, test_ds = build_scenario(linkpred_spec, 150, 150, seed=2,
                                           scenario="transductive")
        seen = set()
        for pos in (train_ds.positives["train"], train_ds.positives["val"],
                    test_ds.positives["test"]):
            for i, j in pos:
                assert (i, j) not in seen
                seen.add((i, j))
                assert train_ds.observed.adjacency[i, j] == 0.0

    @pytest.mark.parametrize("n, seed", [(2, 0), (7, 1), (128, 2), (300, 3), (1000, 4)])
    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_hidden_edges_are_the_permutations_first(self, linkpred_spec, n, seed, fraction):
        # the edges at order[:n_hide] of one permutation of the row-major
        # edge list, in its order, and the observed graph lacks exactly them
        g = sample_graph(linkpred_spec, n, seed=seed)
        edges = edge_list(g)
        order = np.random.default_rng(seed).permutation(len(edges))
        want = edges[order[: int(np.floor(fraction * len(edges)))]]
        observed, hidden = _hide_edges(g, fraction, np.random.default_rng(seed))
        assert hidden.dtype == np.intp and np.array_equal(hidden, want)
        left = edge_list(observed)
        assert len(left) == len(edges) - len(hidden)
        assert np.array_equal(np.sort(np.concatenate([left, hidden]) @ [n, 1]),
                              edges @ [n, 1])

    def test_hidden_edges_follow_the_strip_height(self, linkpred_spec, monkeypatch):
        # only sbm knows how many rows a strip of edge_strips holds
        monkeypatch.setattr(sbm, "_MIRROR_ROWS", 64)
        g = sample_graph(linkpred_spec, 300, seed=0)
        edges = edge_list(g)
        order = np.random.default_rng(0).permutation(len(edges))
        n_hide = int(np.floor(0.1 * len(edges)))
        _, hidden = _hide_edges(g, 0.1, np.random.default_rng(0))
        assert np.array_equal(hidden, edges[order[:n_hide]])

    def test_hiding_edges_forms_no_edge_list(self, linkpred_spec):
        # each hidden edge is read from its strip, so the peak is the
        # permutation of the m edges (8 m bytes) and strip-sized arrays:
        # reads 1.39 times the permutation at n = 2000, where the (m, 2)
        # list and its gather read 4.0 (16.3 MiB)
        g = sample_graph(linkpred_spec, 2000, seed=0)
        m = int(g.upper_counts().sum())
        tracemalloc.start()
        try:
            _hide_edges(g, 0.1, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * m

    def test_negatives_are_across_block_nonedges(self, linkpred_spec):
        train_ds, test_ds = build_scenario(linkpred_spec, 150, 300, seed=3,
                                           scenario="inductive_ood")
        full_train = sample_graph(linkpred_spec, 150,
                                  seed=train_ds.observed.seed)
        for split, negs in train_ds.negatives.items():
            for i, j in negs:
                assert full_train.adjacency[i, j] == 0.0
                blocks = {train_ds.observed.block_of[i],
                          train_ds.observed.block_of[j]}
                assert blocks == {0, 2}
        full_test = sample_graph(linkpred_spec, 300, seed=test_ds.observed.seed)
        for i, j in test_ds.negatives["test"]:
            assert full_test.adjacency[i, j] == 0.0
            assert {test_ds.observed.block_of[i],
                    test_ds.observed.block_of[j]} == {0, 2}

    def test_negatives_are_ordered_like_edges(self, linkpred_spec):
        # a negative's endpoint order must not reveal which matched block
        # each endpoint is in: pairs come back as i < j, like edge_list
        train_ds, test_ds = build_scenario(linkpred_spec, 150, 300, seed=3,
                                           scenario="inductive_ood")
        splits = [(train_ds.observed, negs)
                  for negs in train_ds.negatives.values()]
        splits.append((test_ds.observed, test_ds.negatives["test"]))
        for graph, negs in splits:
            assert np.all(negs[:, 0] < negs[:, 1])
            first_blocks = set(graph.block_of[negs[:, 0]].tolist())
            assert first_blocks == {0, 2}

    def test_inductive_counts_match_transductive(self, linkpred_spec):
        _, test_trans = build_scenario(linkpred_spec, 150, 150, seed=4,
                                       scenario="transductive")
        _, test_same = build_scenario(linkpred_spec, 150, 150, seed=4,
                                      scenario="inductive_same")
        _, test_ood = build_scenario(linkpred_spec, 150, 450, seed=4,
                                     scenario="inductive_ood")
        n = len(test_trans.positives["test"])
        assert len(test_same.positives["test"]) == n
        assert len(test_ood.positives["test"]) == n
        assert test_ood.observed.n == 450

    def test_deterministic(self, linkpred_spec):
        a = build_scenario(linkpred_spec, 100, 200, seed=5, scenario="inductive_ood")
        b = build_scenario(linkpred_spec, 100, 200, seed=5, scenario="inductive_ood")
        np.testing.assert_array_equal(a[0].positives["train"],
                                      b[0].positives["train"])
        np.testing.assert_array_equal(a[1].negatives["test"],
                                      b[1].negatives["test"])
        np.testing.assert_array_equal(a[1].observed.adjacency,
                                      b[1].observed.adjacency)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_negatives_match_the_loop_reference(self, linkpred_spec, seed):
        # pins the draw order: one index per draw into the matched pool,
        # listed i-major per block pair, from the seed's "negatives" stream
        train_ds, test_ds = build_training_split(linkpred_spec, 150, seed)
        full = sample_graph(linkpred_spec, 150, child_seed(seed, "train-graph"))
        got = np.concatenate([train_ds.negatives["train"], train_ds.negatives["val"],
                              test_ds.negatives["test"]])
        want = across_block_nonedges_oracle(full.block_of, full.adjacency,
                                            isomorphic_block_pairs(linkpred_spec),
                                            len(got), stream(seed, "negatives"))
        assert np.array_equal(got, want)

    def test_ood_negatives_match_the_loop_reference(self, linkpred_spec):
        _, test_ds = build_scenario(linkpred_spec, 150, 300, seed=3,
                                    scenario="inductive_ood")
        full = sample_graph(linkpred_spec, 300, child_seed(3, "test-graph/inductive_ood"))
        got = test_ds.negatives["test"]
        want = across_block_nonedges_oracle(full.block_of, full.adjacency,
                                            isomorphic_block_pairs(linkpred_spec),
                                            len(got), stream(3, "negatives/inductive_ood"))
        assert np.array_equal(got, want)

    def test_shared_training_split_across_scenarios(self, linkpred_spec):
        tr_a, _ = build_scenario(linkpred_spec, 100, 100, seed=6,
                                 scenario="transductive")
        tr_b, _ = build_scenario(linkpred_spec, 100, 1000, seed=6,
                                 scenario="inductive_ood")
        np.testing.assert_array_equal(tr_a.positives["train"],
                                      tr_b.positives["train"])
        np.testing.assert_array_equal(tr_a.observed.adjacency,
                                      tr_b.observed.adjacency)

    def test_requires_matched_blocks(self):
        spec = SbmSpec(block_mass=[0.5, 0.5], S=[[0.7, 0.2], [0.2, 0.5]],
                       B=np.ones((2, 1)))
        with pytest.raises(PreconditionError):
            build_scenario(spec, 60, 60, seed=0, scenario="transductive")

    def test_insufficient_negative_pool(self):
        # nearly complete bipartite connection between the matched blocks
        spec = SbmSpec(block_mass=[0.5, 0.5], S=[[0.9, 0.99], [0.99, 0.9]],
                       B=np.ones((2, 1)))
        with pytest.raises(PreconditionError):
            build_scenario(spec, 60, 60, seed=0, scenario="transductive")


class TestEndToEndGradients:
    def test_node_backbone_gradients(self, linkpred_spec):
        ds = tiny_dataset(linkpred_spec, 14, seed=0)
        model = node_link_model(feature_dims=(3, 2), update_hidden=4,
                                head_hidden=(4,), seed=1)
        backbone = _engines(ds.observed)[model.kind]
        pairs = np.concatenate([ds.positives["train"], ds.negatives["train"]])
        labels = np.concatenate([np.ones(6), np.zeros(6)])
        _, grads, _ = _loss_and_grads(model, backbone, pairs, labels)
        params = []
        for net in model.trainable_nets():
            params.extend(net.parameters())

        def loss():
            l, _, _ = _loss_and_grads(model, backbone, pairs, labels)
            return l

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(grads, numeric) < 1e-4

    @pytest.mark.parametrize("T", [1, 3])
    def test_pair_backbone_gradients_at_depth(self, linkpred_spec, T):
        ds = tiny_dataset(linkpred_spec, 12, seed=3)
        model = pair_link_model(T=T, learn_update=True, update_hidden=3,
                                head_hidden=(4,), seed=2)
        backbone = _engines(ds.observed)[model.kind]
        pairs = np.concatenate([ds.positives["train"], ds.negatives["train"]])
        labels = np.concatenate([np.ones(6), np.zeros(6)])
        _, grads, _ = _loss_and_grads(model, backbone, pairs, labels)
        params = [p for net in model.trainable_nets() for p in net.parameters()]

        def loss():
            l, _, _ = _loss_and_grads(model, backbone, pairs, labels)
            return l

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(grads, numeric) < 1e-4

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_pair_backbone_gradients_match_per_row_reference(self, linkpred_spec, T):
        ds = tiny_dataset(linkpred_spec, 60, seed=4)
        model = pair_link_model(T=T, learn_update=True, update_hidden=3,
                                head_hidden=(4,), seed=2)
        backbone = _engines(ds.observed)[model.kind]
        pairs = np.concatenate([ds.positives["train"], ds.negatives["train"]])
        labels = np.concatenate([np.ones(6), np.zeros(6)])
        _, grads, head_in = _loss_and_grads(model, backbone, pairs, labels)
        _, cache = model.head.forward_cache(head_in)
        _, d_logits = _bce_loss_and_grad(cache[1].reshape(-1), labels)
        head_grads, d_head_in = model.head.backward_from_logits(
            cache, d_logits.reshape(-1, 1))
        _, net_grads = pair_update_rows_oracle(
            ds.observed.adjacency, model.mpnn.trainable_nets(), pairs, d_head_in)
        expected = list(head_grads) + [g for layer in net_grads for g in layer]
        assert max_relative_error(grads, expected) < 1e-12

    def test_pair_backbone_gradients(self, linkpred_spec):
        ds = tiny_dataset(linkpred_spec, 12, seed=3)
        model = pair_link_model(T=2, learn_update=True, update_hidden=3,
                                head_hidden=(4,), seed=2)
        backbone = _engines(ds.observed)[model.kind]
        pairs = np.concatenate([ds.positives["train"], ds.negatives["train"]])
        labels = np.concatenate([np.ones(6), np.zeros(6)])
        _, grads, _ = _loss_and_grads(model, backbone, pairs, labels)
        params = []
        for net in model.trainable_nets():
            params.extend(net.parameters())

        def loss():
            l, _, _ = _loss_and_grads(model, backbone, pairs, labels)
            return l

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(grads, numeric) < 1e-4


class TestTraining:
    def test_zero_epochs_returns_initial(self, linkpred_spec):
        ds = tiny_dataset(linkpred_spec, 20, seed=1)
        model = pair_link_model(T=1, learn_update=False, head_hidden=(4,), seed=0)
        before = [p.copy() for p in model.head.parameters()]
        trained, log = train_link_model(model, ds, epochs=0)
        for p, q in zip(before, trained.head.parameters()):
            np.testing.assert_array_equal(p, q)
        assert log.best_epoch == -1

    def test_negative_epochs_is_an_error(self, linkpred_spec):
        ds = tiny_dataset(linkpred_spec, 20, seed=1)
        model = pair_link_model(T=1, learn_update=False, head_hidden=(4,), seed=0)
        with pytest.raises(PreconditionError, match="epochs must be >= 0"):
            train_link_model(model, ds, epochs=-1)

    def test_separable_instance_reaches_full_accuracy(self, linkpred_spec):
        # in-block edges vs across-matched-block non-edges: the pairwise
        # features concentrate near 0.6 and 0.02, a separable instance
        g = sample_graph(linkpred_spec, 60, seed=2)
        bo = g.block_of
        edges = edge_list(g)
        within = edges[(bo[edges[:, 0]] == 0) & (bo[edges[:, 1]] == 0)]
        iu, ju = np.triu_indices(60, k=1)
        non = np.column_stack([iu, ju])[g.adjacency[iu, ju] == 0]
        across = non[((bo[non[:, 0]] == 0) & (bo[non[:, 1]] == 2))
                     | ((bo[non[:, 0]] == 2) & (bo[non[:, 1]] == 0))]
        assert len(within) >= 10 and len(across) >= 10
        # validating on the training pairs makes best-validation selection
        # track training accuracy for this toy
        ds = LinkDataset(
            observed=g,
            positives={"train": within[:10], "val": within[:10]},
            negatives={"train": across[:10], "val": across[:10]},
        )
        model = pair_link_model(T=2, learn_update=False, head_hidden=(8,), seed=3)
        trained, log = train_link_model(model, ds, epochs=200, lr=1e-2)
        backbone = _engines(ds.observed)[trained.kind]
        sp = model_scores(trained, ds.observed, ds.positives["train"], backbone)
        sn = model_scores(trained, ds.observed, ds.negatives["train"], backbone)
        acc = (np.sum(sp > 0.5) + np.sum(sn <= 0.5)) / (len(sp) + len(sn))
        assert acc == 1.0

    def test_fixed_pair_loss_decreases_early(self, linkpred_spec):
        train_ds, _ = build_scenario(linkpred_spec, 300, 300, seed=7,
                                     scenario="transductive")
        model = pair_link_model(T=2, learn_update=False, seed=4)
        _, log = train_link_model(model, train_ds, epochs=30, lr=1e-3)
        assert all(b <= a + 1e-12 for a, b in zip(log.losses, log.losses[1:]))

    def test_node_backbone_learns_non_matched_blocks(self, linkpred_spec):
        # Across the matched blocks 0 and 2 node embeddings cannot tell an
        # edge from a non-edge as n grows; across blocks 0 and 1 the
        # expected degrees differ, so a working trainer must separate them.
        # Same split and model as run 0 of a table; only the negatives move.
        seed = child_seed(0, "run/0")
        train_ds, test_ds = build_training_split(linkpred_spec, 500, seed)
        # negatives are non-edges of the graph before its edges were hidden
        full = sample_graph(linkpred_spec, 500, child_seed(seed, "train-graph"))
        n_tr, n_val = len(train_ds.positives["train"]), len(train_ds.positives["val"])
        pos_test = test_ds.positives["test"]
        negs = sample_across_block_nonedges(full, [(0, 1)],
                                            n_tr + n_val + len(pos_test),
                                            stream(seed, "negatives"))
        ds = LinkDataset(
            observed=train_ds.observed,
            positives=train_ds.positives,
            negatives={"train": negs[:n_tr], "val": negs[n_tr : n_tr + n_val]},
        )
        model = node_link_model(seed=child_seed(seed, "model/node"))
        trained, log = train_link_model(model, ds, epochs=150, lr=1e-3)
        scores_pos = model_scores(trained, ds.observed, pos_test)
        scores_neg = model_scores(trained, ds.observed, negs[n_tr + n_val :])
        assert evaluate(scores_pos, scores_neg, k_list=(10,))["auc"] >= 0.9
        assert log.best_val_accuracy >= 0.9

    def test_caller_model_is_left_untouched(self, linkpred_spec):
        # Adam steps the trained copy's arrays in place; none of them may be
        # the caller's, or the caller's model would move with it.
        train_ds, _ = build_training_split(linkpred_spec, 150, 7)
        for model in (node_link_model(seed=1), pair_link_model(T=2, seed=0),
                      pair_link_model(T=2, learn_update=True, seed=2)):
            params = [p for net in model.trainable_nets() for p in net.parameters()]
            before = [p.copy() for p in params]
            trained, _ = train_link_model(model, train_ds, epochs=5, lr=5e-2)
            for p, q in zip(params, before):
                assert p.tobytes() == q.tobytes()
            trained_ids = {id(p) for net in trained.trainable_nets()
                           for p in net.parameters()}
            assert trained_ids.isdisjoint(id(p) for p in params)

    def test_returned_model_carries_the_best_epoch(self, linkpred_spec):
        train_ds, _ = build_training_split(linkpred_spec, 150, 7)
        model = pair_link_model(T=2, seed=0)
        trained, log = train_link_model(model, train_ds, epochs=5, lr=1e-2)
        # validation peaks before the last epoch, so the best parameters
        # must be restored, not left at the last step
        assert log.val_accuracies[-1] < log.best_val_accuracy
        pos, neg = train_ds.positives["val"], train_ds.negatives["val"]
        scores = model_scores(trained, train_ds.observed, np.concatenate([pos, neg]))
        correct = np.sum(scores[:len(pos)] > TAU) + np.sum(scores[len(pos):] <= TAU)
        assert correct / len(scores) == log.best_val_accuracy

    @pytest.mark.parametrize("method, T", [("node", None), ("pair_learn", 2),
                                           ("pair_learn", 3), ("pair_fixed", 2)])
    def test_buffered_epochs_are_bitwise(self, linkpred_spec, method, T):
        # epochs that write into one run's Buffers give the loss, the
        # gradients and the head inputs of epochs that allocate, bit for bit
        train_ds, _ = build_training_split(linkpred_spec, 150, 7)
        model = (node_link_model(seed=1) if method == "node"
                 else pair_link_model(T=T, learn_update=method == "pair_learn", seed=2))
        backbone = _engines(train_ds.observed)[model.kind]
        pos, neg = train_ds.positives, train_ds.negatives
        pairs = np.concatenate([pos["train"], neg["train"], pos["val"], neg["val"]])
        labels = np.concatenate([np.ones(len(pos["train"])), np.zeros(len(neg["train"]))])
        params = [p for net in model.trainable_nets() for p in net.parameters()]
        state = AdamState.for_parameters(params, lr=5e-2)
        buffers = Buffers()
        for _ in range(3):
            loss, grads, head_in = _loss_and_grads(model, backbone, pairs, labels)
            loss_b, grads_b, head_in_b = _loss_and_grads(model, backbone, pairs, labels,
                                                         buffers=buffers)
            assert loss_b == loss and np.array_equal(head_in_b, head_in)
            assert len(grads_b) == len(grads)
            assert all(np.array_equal(a, b) for a, b in zip(grads_b, grads))
            adam_step(params, grads_b, state)

    def test_training_allocates_its_buffers_once(self, linkpred_spec, monkeypatch):
        # every epoch writes into the arrays the first epoch allocated, and
        # the run lets them go when it returns
        runs = []

        class Counting(Buffers):
            def __init__(self):
                super().__init__()
                self.handed = set()  # (key, id of the array handed out)
                runs.append(self)

            def get(self, key, shape):
                array = super().get(key, shape)
                self.handed.add((key, id(array)))
                return array

        monkeypatch.setattr(linkpred, "Buffers", Counting)
        train_ds, _ = build_training_split(linkpred_spec, 150, 7)
        for model in (node_link_model(seed=1), pair_link_model(T=2, learn_update=True, seed=2)):
            allocated = []
            for epochs in (1, 4):
                train_link_model(model, train_ds, epochs=epochs)
                handed = runs[-1].handed
                assert len({key for key, _ in handed}) == len(handed)
                allocated.append(len(handed))
            assert allocated[0] == allocated[1] > 0
        released = [weakref.ref(run) for run in runs]
        runs.clear()
        assert all(ref() is None for ref in released)

    def test_backbone_trainable_is_read_off_the_network(self):
        node = node_link_model()
        learn = pair_link_model(learn_update=True)
        fixed = pair_link_model(learn_update=False)
        assert node.backbone_trainable and learn.backbone_trainable
        assert not fixed.backbone_trainable
        assert fixed.trainable_nets() == [fixed.head]
        for model in (node, learn):
            nets = model.trainable_nets()
            assert nets[0] is model.head
            assert nets[1:] == [upd.net for _, upd in model.mpnn.layers]

    # the infinite head weights make the matmul warn before the loss is checked
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_aborts(self, linkpred_spec):
        from graphon_mpnn import NumericalError

        ds = tiny_dataset(linkpred_spec, 20, seed=1)
        model = pair_link_model(T=1, learn_update=False, head_hidden=(4,), seed=0)
        model.head.weights[-1][:] = np.inf
        with pytest.raises(NumericalError):
            train_link_model(model, ds, epochs=3)


class TestOracle:
    def test_block_pair_values(self, linkpred_spec):
        g = sample_graph(linkpred_spec, 100, seed=0)
        same = np.array([[i, j] for i in range(100) for j in range(100)
                         if g.block_of[i] == 0 and g.block_of[j] == 0][:3])
        cross = np.array(
            [[i, j] for i in range(100) for j in range(100)
             if g.block_of[i] == 0 and g.block_of[j] == 2][:3]
        )
        np.testing.assert_allclose(oracle_scores(linkpred_spec, g, same), 0.6)
        np.testing.assert_allclose(oracle_scores(linkpred_spec, g, cross), 0.02)

    def test_single_block_constant(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.42]], B=[[1.0]])
        g = sample_graph(spec, 10, seed=0)
        pairs = np.array([[0, 1], [2, 9]])
        np.testing.assert_allclose(oracle_scores(spec, g, pairs), 0.42)


class TestEvaluate:
    def test_perfect_separation(self):
        pos = np.array([0.9, 0.8, 0.95] * 40)
        neg = np.array([0.1, 0.2, 0.05] * 40)
        m = evaluate(pos, neg, tau=0.5, k_list=(10, 50, 100))
        assert m["hits@10"] == 1.0 and m["hits@100"] == 1.0
        assert m["mcc"] == 1.0 and m["balanced_accuracy"] == 1.0
        assert m["auc"] == 1.0

    def test_auc_reversed_scores(self):
        m = evaluate([0.1, 0.2, 0.3], [0.7, 0.8, 0.9], k_list=(1,))
        assert m["auc"] == 0.0

    def test_auc_all_tied(self):
        m = evaluate([0.5] * 4, [0.5] * 7, k_list=(1,))
        assert m["auc"] == 0.5

    def test_auc_hand_case_with_ties(self):
        pos = [0.9, 0.5, 0.3]
        neg = [0.5, 0.3, 0.1, 0.5]
        m = evaluate(pos, neg, k_list=(1,))
        # 0.9 beats all 4; 0.5 beats 0.3, 0.1 and ties twice; 0.3 beats
        # 0.1 and ties once: (4 + 3 + 1.5) / 12
        assert m["auc"] == pytest.approx(8.5 / 12)

    def test_random_scores_are_chance_level(self):
        rng = np.random.default_rng(0)
        mccs, baccs, aucs = [], [], []
        for _ in range(50):
            pos = rng.random(200)
            neg = rng.random(200)
            m = evaluate(pos, neg, tau=0.5, k_list=(10,))
            mccs.append(m["mcc"])
            baccs.append(m["balanced_accuracy"])
            aucs.append(m["auc"])
        assert abs(np.mean(mccs)) < 0.02
        assert abs(np.mean(baccs) - 0.5) < 0.01
        assert abs(np.mean(aucs) - 0.5) < 0.01

    def test_hand_confusion_case(self):
        pos = [0.9, 0.4, 0.35]
        neg = [0.8, 0.3, 0.2]
        m = evaluate(pos, neg, tau=0.5, k_list=(1,))
        assert m["hits@1"] == pytest.approx(1 / 3)
        assert m["balanced_accuracy"] == pytest.approx(0.5)
        # TP=1 FN=2 FP=1 TN=2 by the direct formula
        expected_mcc = (1 * 2 - 1 * 2) / np.sqrt(2 * 3 * 3 * 4)
        assert m["mcc"] == pytest.approx(expected_mcc)

    def test_k_exceeding_negatives_is_an_error(self):
        with pytest.raises(PreconditionError):
            evaluate([0.9], [0.1, 0.2], k_list=(3,))

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_an_error(self, k):
        # hits@0 would read the smallest negative, hits@-3 the third smallest
        with pytest.raises(PreconditionError):
            evaluate([0.9], [0.1, 0.2], k_list=(k,))

    def test_hits_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        pos, neg = rng.random(50), rng.random(60)
        a = evaluate(pos, neg, k_list=(5, 20))
        b = evaluate(2 * pos + 1, 2 * neg + 1, k_list=(5, 20))
        assert a["hits@5"] == b["hits@5"]
        assert a["hits@20"] == b["hits@20"]
        assert a["auc"] == b["auc"]

    def test_sigmoid_threshold_matches_logit_threshold(self):
        from graphon_mpnn.nn import sigmoid

        rng = np.random.default_rng(2)
        logits_pos, logits_neg = rng.normal(size=40), rng.normal(size=40)
        a = evaluate(sigmoid(logits_pos), sigmoid(logits_neg), tau=0.5, k_list=(5,))
        b = evaluate(logits_pos, logits_neg, tau=0.0, k_list=(5,))
        assert a["mcc"] == b["mcc"]
        assert a["balanced_accuracy"] == b["balanced_accuracy"]

    def test_mcc_zero_when_denominator_vanishes(self):
        m = evaluate([0.9, 0.8], [0.7, 0.6], tau=0.5, k_list=(1,))
        assert m["mcc"] == 0.0  # no predicted negatives


class TestRunTable:
    def test_oracle_only_dwarf_table(self, linkpred_spec):
        from graphon_mpnn import RunTableConfig, run_table

        cfg = RunTableConfig(
            spec=linkpred_spec, n_train=150, n_test_ood=300, runs=2, seed=0,
            methods=("oracle",), k_list=(1, 2),
        )
        report = run_table(cfg)
        for scenario in ("transductive", "inductive_same", "inductive_ood"):
            mean, std = report.mean_std(scenario, "oracle", "mcc")
            assert mean > 0.7
        rows = report.csv_rows()
        assert rows and rows[0][2].startswith("hits@")
        text = report.format_table()
        assert "oracle" in text and "mcc" in text

    def test_curves_are_the_training_logs(self, linkpred_spec):
        # each run keeps the log of every model it trains, the log that
        # train_link_model returns for that model and split
        from graphon_mpnn import RunTableConfig, run_table

        cfg = RunTableConfig(
            spec=linkpred_spec, n_train=150, n_test_ood=300, runs=2, seed=0,
            methods=("oracle", "pair_fixed", "node"), scenarios=("transductive",),
            epochs_head=2, epochs_end_to_end=3, k_list=(1,),
        )
        report = run_table(cfg)
        assert list(report.curves) == [(0, "pair_fixed"), (0, "node"),
                                       (1, "pair_fixed"), (1, "node")]
        seed = child_seed(0, "run/1")
        train_ds, _ = build_training_split(linkpred_spec, 150, seed)
        _, log = train_link_model(linkpred._untrained_model("node", cfg, seed), train_ds,
                                  epochs=3)
        assert report.curves[(1, "node")] == log
        rows = report.curve_rows()
        assert [row[:3] for row in rows[:7]] == [[0, "node", e] for e in range(4)] + [
            [0, "pair_fixed", e] for e in range(3)]
        assert len(rows) == 2 * (4 + 3)
        node_rows = rows[7:11]  # run 1's node model
        assert [row[3] for row in node_rows] == [repr(x) for x in log.losses] + [""]
        assert [row[4] for row in node_rows] == [repr(x) for x in log.val_accuracies]

    def test_each_graph_builds_its_pair_classes_once(self, linkpred_spec, monkeypatch):
        # pair_fixed and pair_learn share one PairGraph per graph, in
        # training and in scoring: layer 0's count class table is built once
        # on the training graph, which the transductive scenario scores too,
        # and once on each of the inductive_same and inductive_ood graphs
        from graphon_mpnn import RunTableConfig, run_table

        built = []

        class Counted(pair_mpnn._CountClasses):
            def __init__(self, stats):
                built.append(stats)
                super().__init__(stats)

        monkeypatch.setattr(pair_mpnn, "_CountClasses", Counted)
        cfg = RunTableConfig(
            spec=linkpred_spec, n_train=150, n_test_ood=300, runs=1, seed=0,
            methods=("pair_fixed", "pair_learn"), epochs_head=2, epochs_end_to_end=2,
            k_list=(1,),
        )
        run_table(cfg)
        assert len(built) == len({id(stats) for stats in built}) == 3
        assert sorted(stats.n for stats in built) == [150, 150, 300]


class TestEvalReport:
    def report(self, runs):
        from graphon_mpnn import EvalReport

        values = {("transductive", "oracle"): {
            "hits@1": [0.5, 0.7][:runs], "mcc": [0.2, 0.4][:runs],
            "balanced_accuracy": [0.6, 0.8][:runs], "auc": [0.75, 0.85][:runs]}}
        return EvalReport(values=values, runs=runs, k_list=(1,))

    def test_single_run_reports_no_deviation(self):
        report = self.report(1)
        assert report.mean_std("transductive", "oracle", "mcc") == (0.2, None)
        rows = report.csv_rows()
        assert all(len(row) == 6 and row[4] == "" for row in rows)
        assert rows[0] == ["transductive", "oracle", "hits@1", "0.5", "", 1]
        line = report.format_table().splitlines()[1]
        assert "(" not in line and "0.5000" in line

    def test_several_runs_report_sample_deviation(self):
        report = self.report(2)
        mean, std = report.mean_std("transductive", "oracle", "mcc")
        assert mean == pytest.approx(0.3) and std == pytest.approx(np.sqrt(0.02))
        rows = report.csv_rows()
        assert rows[0][4] == repr(float(np.std([0.5, 0.7], ddof=1)))
        assert f"0.3000({np.sqrt(0.02):.4f})" in report.format_table()
