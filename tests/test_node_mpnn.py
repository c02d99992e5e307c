import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphon_mpnn import (
    NumericalError,
    PreconditionError,
    SbmSpec,
    cmpnn_node_sbm,
    gmpnn_node,
    graph_stats,
    graphon_degree,
    sample_graph,
)
from graphon_mpnn.mpnn import (
    Mpnn,
    NeighborProjection,
    NetFunction,
    graphsage_mpnn,
)
from graphon_mpnn.analysis import delta_node
from graphon_mpnn.nn import init_net
from graphon_mpnn.node_mpnn import NodeGraph

from oracles import (
    cmpnn_node_oracle,
    finite_difference_gradients,
    max_relative_error,
    node_mpnn_oracle,
    with_adjacency,
)


class TakeMessage:
    """Update (x, m) -> m; turns the recursion into plain neighbor averaging."""

    is_neighbor_projection = False
    net = None

    def __init__(self, width):
        self.width_in = 2 * width
        self.width_out = width

    def __call__(self, x, m):
        return np.asarray(m, dtype=float)

    def lipschitz(self):
        return 1.0

    def formal_bias(self):
        return 0.0


def random_net_mpnn(feature_dims, message_dims, hidden=6, seed=0,
                    aggregation="neighbor_average") -> Mpnn:
    """Random tanh nets for both message and update."""
    layers = []
    for t in range(len(feature_dims) - 1):
        f_in, f_out, h = feature_dims[t], feature_dims[t + 1], message_dims[t]
        msg = init_net([2 * f_in, hidden, h], seed=seed, tag=f"init/msg{t}")
        upd = init_net([f_in + h, hidden, f_out], seed=seed,
                       tag=f"init/upd{t}")
        layers.append((NetFunction(msg), NetFunction(upd)))
    return Mpnn(layers=tuple(layers), aggregation=aggregation)


def averaging_mpnn(width=1, layers=1, aggregation="neighbor_average"):
    return Mpnn(
        layers=tuple(
            (NeighborProjection(width), TakeMessage(width)) for _ in range(layers)
        ),
        aggregation=aggregation,
    )


def permuted(graph, perm):
    from graphon_mpnn.sbm import _freeze

    return dataclasses.replace(
        graph,
        positions=_freeze(graph.positions[perm]),
        block_of=_freeze(graph.block_of[perm]),
        bits=_freeze(np.packbits(graph.adjacency[np.ix_(perm, perm)], axis=1)),
        node_features=_freeze(graph.node_features[perm]),
    )


def layer_callables(mpnn):
    return [(msg, upd) for msg, upd in mpnn.layers]


class TestDiscrete:
    def test_mean_mode_is_neighbor_average(self, convergence_spec):
        g = sample_graph(convergence_spec, 40, seed=2)
        stats = graph_stats(g)
        out = gmpnn_node(g, stats, averaging_mpnn(), init="degree")
        d = g.adjacency.mean(axis=1).reshape(-1, 1)
        # the engine's D_i / n is bitwise the mean of the adjacency row
        assert np.array_equal(NodeGraph(g, stats, init="degree").start, d)
        expected = np.zeros_like(d)
        for i in range(g.n):
            nbrs = np.flatnonzero(g.adjacency[i])
            if len(nbrs):
                expected[i] = d[nbrs].mean()
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_sum_mode_on_empty_graph(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[3.0]])
        g = sample_graph(spec, 6, seed=0)
        g = with_adjacency(g, np.zeros((6, 6)))
        stats = graph_stats(g)
        net = init_net([2, 4, 1], seed=5)
        mpnn = Mpnn(
            layers=((NeighborProjection(1), NetFunction(net)),),
            aggregation="n_normalized_sum",
        )
        out = gmpnn_node(g, stats, mpnn)
        expected = net.forward(np.concatenate([g.node_features,
                                               np.zeros((6, 1))], axis=1))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("aggregation", ["neighbor_average", "n_normalized_sum"])
    def test_matches_nested_loop_oracle(self, aggregation):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.7, 0.3], [0.3, 0.6]], B=[[1.0], [2.0]]
        )
        for seed in range(3):
            g = sample_graph(spec, 5, seed=seed)
            stats = graph_stats(g)
            mpnn = random_net_mpnn([1, 3, 2], [2, 3], seed=seed,
                                   aggregation=aggregation)
            out = gmpnn_node(g, stats, mpnn)
            expected = node_mpnn_oracle(
                g.adjacency, g.node_features, layer_callables(mpnn), aggregation
            )
            np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("aggregation", ["neighbor_average", "n_normalized_sum"])
    def test_oracle_envelope_n8_t3(self, aggregation):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.7, 0.3], [0.3, 0.6]], B=[[1.0], [2.0]]
        )
        g = sample_graph(spec, 8, seed=5)
        stats = graph_stats(g)
        mpnn = random_net_mpnn([1, 3, 3, 2], [2, 2, 3], seed=6,
                               aggregation=aggregation)
        out = gmpnn_node(g, stats, mpnn)
        expected = node_mpnn_oracle(
            g.adjacency, g.node_features, layer_callables(mpnn), aggregation
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_permutation_equivariance(self, convergence_spec):
        g = sample_graph(convergence_spec, 50, seed=8)
        stats = graph_stats(g)
        mpnn = graphsage_mpnn([1, 6, 4], seed=3)
        base = gmpnn_node(g, stats, mpnn, init="degree")
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(50)
            gp = permuted(g, perm)
            out = gmpnn_node(gp, graph_stats(gp), mpnn, init="degree")
            np.testing.assert_allclose(out, base[perm], atol=1e-12)

    def test_isolated_nodes_get_zero_message(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.0]])
        g = sample_graph(spec, 8, seed=1)
        adj = g.adjacency.copy()
        adj[3, :] = 0.0
        adj[:, 3] = 0.0
        g = with_adjacency(g, adj)
        stats = graph_stats(g)
        out = gmpnn_node(g, stats, averaging_mpnn(), init=None)
        assert out[3, 0] == 0.0
        assert np.all(np.isfinite(out))

    def test_width_mismatch_is_an_error(self, convergence_spec):
        g = sample_graph(convergence_spec, 10, seed=0)
        stats = graph_stats(g)
        mpnn = graphsage_mpnn([2, 4], seed=0)
        with pytest.raises(ValueError):
            gmpnn_node(g, stats, mpnn, init="degree")

    @pytest.mark.parametrize("init", ["degrees", np.ones((10, 1))])
    def test_start_is_block_signal_or_degree(self, convergence_spec, init):
        g = sample_graph(convergence_spec, 10, seed=0)
        with pytest.raises(ValueError, match="unknown init"):
            gmpnn_node(g, graph_stats(g), averaging_mpnn(), init=init)
        with pytest.raises(ValueError, match="unknown init"):
            cmpnn_node_sbm(convergence_spec, averaging_mpnn(), init=init)


def queried_pairs(n, count, seed):
    """Random pairs in both orders, plus a diagonal pair and a repeat."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(count, 2))
    return np.concatenate([pairs, [[3, 3], pairs[0]]])


class TestNodeEngine:
    @pytest.mark.parametrize("aggregation", ["neighbor_average", "n_normalized_sum"])
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_queried_pairs_equal_dense_gather(self, convergence_spec, T, aggregation):
        g = sample_graph(convergence_spec, 80, seed=4)
        stats = graph_stats(g)
        mpnn = graphsage_mpnn([1] + [3] * T, seed=T, aggregation=aggregation)
        dense = gmpnn_node(g, stats, mpnn, init="degree")
        pairs = queried_pairs(80, 50, seed=T)
        ng = NodeGraph(g, stats, init="degree")
        queried, tape = ng.forward(mpnn, pairs)
        assert tape is None
        expected = np.concatenate([dense[pairs[:, 0]], dense[pairs[:, 1]]], axis=-1)
        np.testing.assert_array_equal(queried, expected)
        recorded, tape = ng.forward(mpnn, pairs, record=True)
        assert tape is not None
        np.testing.assert_array_equal(recorded, expected)

    @pytest.mark.parametrize("queried", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_raise(self, convergence_spec, bad, queried):
        # the engines share one check: an output bias of ``bad`` makes the
        # layer's features non-finite
        g = sample_graph(convergence_spec, 40, seed=0)
        mpnn = graphsage_mpnn([1, 3], seed=0)
        mpnn.layers[0][1].net.biases[-1][1] = bad
        pairs = queried_pairs(40, 10, seed=0) if queried else None
        with pytest.raises(NumericalError, match="non-finite node features"):
            NodeGraph(g, graph_stats(g), init="degree").forward(mpnn, pairs)

    @pytest.mark.parametrize("aggregation", ["neighbor_average", "n_normalized_sum"])
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_tape_gradients_match_finite_differences(self, convergence_spec, T,
                                                     aggregation):
        g = sample_graph(convergence_spec, 14, seed=2)
        ng = NodeGraph(g, graph_stats(g), init="degree")
        mpnn = graphsage_mpnn([1] + [2] * T, update_hidden=3, seed=T,
                              aggregation=aggregation)
        pairs = queried_pairs(14, 10, seed=0)
        d_out = np.random.default_rng(1).normal(size=(len(pairs), 4))
        _, tape = ng.forward(mpnn, pairs, record=True)
        analytic = [g for layer in tape.backward(d_out) for g in layer]
        params = [p for net in mpnn.trainable_nets() for p in net.parameters()]

        def loss():
            values, _ = ng.forward(mpnn, pairs)
            return float(np.sum(values * d_out))

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_endpoint_pull_equals_add_at(self, convergence_spec):
        # the pull at the returned values sums each endpoint's gradient onto
        # its node in pair order, first endpoints then second ones
        g = sample_graph(convergence_spec, 30, seed=1)
        ng = NodeGraph(g, graph_stats(g), init="degree")
        mpnn = graphsage_mpnn([1, 3, 3], seed=0)
        pairs = np.concatenate([queried_pairs(30, 60, seed=2), [[5, 5], [5, 5]]])
        d = np.random.default_rng(3).normal(size=(len(pairs), 6))
        expected = np.zeros((30, 3))
        np.add.at(expected, pairs[:, 0], d[:, :3])
        np.add.at(expected, pairs[:, 1], d[:, 3:])
        assert np.array_equal(ng._pull(mpnn, pairs)(mpnn.depth, d), expected)

    def test_pass_holds_no_float64_adjacency(self, convergence_spec):
        # the products widen the packed adjacency one row strip at a time:
        # the 1024-row strip (0.5 n^2 floats) and the features read
        # 0.52 n^2 floats at n = 2048, where a float64 copy of A is n^2
        n = 2048
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        mpnn = graphsage_mpnn([1, 8, 8], update_hidden=10, seed=0)
        tracemalloc.start()
        try:
            gmpnn_node(g, stats, mpnn, init="degree")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * n * n * 8

    def test_record_needs_pairs_and_update_nets(self, convergence_spec):
        g = sample_graph(convergence_spec, 20, seed=0)
        ng = NodeGraph(g, graph_stats(g))
        with pytest.raises(PreconditionError):
            ng.forward(graphsage_mpnn([1, 2]), record=True)
        with pytest.raises(PreconditionError):
            ng.forward(averaging_mpnn(), np.array([[0, 1]]), record=True)
        with pytest.raises(PreconditionError):
            ng.forward(random_net_mpnn([1, 2], [2]), np.array([[0, 1]]), record=True)


class TestContinuous:
    def test_single_layer_hand_value(self, convergence_spec):
        out = cmpnn_node_sbm(convergence_spec, averaging_mpnn(), init="degree")
        d = graphon_degree(convergence_spec)
        expected_b1 = (
            0.45 * 0.55 * d[0] + 0.10 * 0.05 * d[1] + 0.45 * 0.02 * d[2]
        ) / d[0]
        assert out[0, 0] == pytest.approx(expected_b1, abs=1e-15)

    def test_single_block_scalar_recursion(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.4]], B=[[2.0]])
        net = init_net([2, 4, 1], seed=9)
        mpnn = Mpnn(layers=((NeighborProjection(1), NetFunction(net)),) * 3)
        out = cmpnn_node_sbm(spec, mpnn)
        # scalar recursion: message average over the single block is the
        # block value itself in mean mode
        f = 2.0
        for _ in range(3):
            f = float(net.forward(np.array([f, f]))[0])
        assert out[0, 0] == pytest.approx(f, abs=1e-14)

    @pytest.mark.parametrize("aggregation", ["neighbor_average", "n_normalized_sum"])
    def test_matches_block_loop_oracle_with_nets(self, aggregation):
        # distinct blocks and message nets that read both arguments, every layer
        spec = SbmSpec(block_mass=[0.5, 0.3, 0.2],
                       S=[[0.6, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.4]],
                       B=[[1.0], [-0.5], [2.0]])
        mpnn = random_net_mpnn([1, 2, 3], [2, 3], seed=4, aggregation=aggregation)
        trace = cmpnn_node_sbm(spec, mpnn, return_layers=True)
        expected = cmpnn_node_oracle(spec.block_mass, spec.S, spec.B,
                                     layer_callables(mpnn), aggregation)
        assert len(trace) == len(expected) == 3
        for got, want in zip(trace, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_interchangeable_blocks_stay_equal(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 5, 5], seed=21)
        trace = cmpnn_node_sbm(convergence_spec, mpnn, init="degree",
                               return_layers=True)
        for layer in trace:
            assert np.array_equal(layer[0], layer[2])

    def test_zero_degree_block_is_hard_error(self):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.5, 0.0], [0.0, 0.0]], B=np.ones((2, 1))
        )
        with pytest.raises(PreconditionError):
            cmpnn_node_sbm(spec, averaging_mpnn())

    def test_norm_growth_bounded_per_layer(self, convergence_spec):
        from graphon_mpnn import bound_constants

        mpnn = graphsage_mpnn([1, 5, 5], seed=4)
        f_inf = float(np.max(np.abs(graphon_degree(convergence_spec))))
        report = bound_constants(mpnn, f_inf, convergence_spec,
                                 mode="node_mean", n=1024)
        trace = cmpnn_node_sbm(convergence_spec, mpnn, init="degree",
                               return_layers=True)
        for l, layer in enumerate(trace[1:]):
            cap = report.b1[l] + report.b2[l] * f_inf
            assert float(np.max(np.abs(layer))) <= cap + 1e-12


class TestLift:
    """The gap reads each node's row of the block values by its block."""

    def test_single_block_rows_identical(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.5]])
        g = sample_graph(spec, 12, seed=0)
        block = cmpnn_node_sbm(spec, averaging_mpnn())
        values = np.random.default_rng(2).normal(size=(12, 1))
        assert delta_node(values, block, g.block_of) == np.max(np.abs(values - block[0]))
        assert delta_node(np.repeat(block, 12, axis=0), block, g.block_of) == 0.0

    def test_permutation_equivariance(self, convergence_spec):
        # relabelling the nodes leaves the gap unchanged
        g = sample_graph(convergence_spec, 30, seed=5)
        mpnn = averaging_mpnn()
        block = cmpnn_node_sbm(convergence_spec, mpnn, init="degree")
        values = gmpnn_node(g, graph_stats(g), mpnn, init="degree")
        base = delta_node(values, block, g.block_of)
        assert base > 0.0
        perm = np.random.default_rng(1).permutation(30)
        assert delta_node(values[perm], block, permuted(g, perm).block_of) == base

    def test_interchangeable_blocks_lift_identically(self, convergence_spec):
        # blocks 0 and 2 carry equal rows, so swapping their labels is no change
        g = sample_graph(convergence_spec, 64, seed=6)
        mpnn = graphsage_mpnn([1, 4], seed=2)
        block = cmpnn_node_sbm(convergence_spec, mpnn, init="degree")
        values = gmpnn_node(g, graph_stats(g), mpnn, init="degree")
        swapped = np.array([2, 1, 0])[g.block_of]
        assert np.array_equal(block[0], block[2])
        assert delta_node(values, block, swapped) == delta_node(values, block, g.block_of)
