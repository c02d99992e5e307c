import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphon_mpnn import (
    PreconditionError,
    SbmSpec,
    cmpnn_pair_sbm,
    fixed_psi_mpnn,
    gmpnn_pair,
    graph_stats,
    sample_graph,
)
from graphon_mpnn.mpnn import EPS_DIV, Mpnn, NeighborProjection, NetFunction, RatioUpdate
from graphon_mpnn import pair_mpnn
from graphon_mpnn.analysis import delta_pair
from graphon_mpnn.nn import init_net
from graphon_mpnn.pair_mpnn import PairGraph, learnable_psi_mpnn

from oracles import (
    finite_difference_gradients,
    max_relative_error,
    message_weights_oracle,
    pair_mpnn_oracle,
    pair_update_rows_oracle,
)


class ProjectionWithoutFastPath(NeighborProjection):
    """Same function as the projection, forced through the general path."""

    is_neighbor_projection = False


class TestFixedVariant:
    def test_rejects_zero_layers(self):
        with pytest.raises(PreconditionError):
            fixed_psi_mpnn(0)

    def test_ratio_update_values(self):
        psi = RatioUpdate(1)
        assert psi(np.array([3.0]), np.array([2.0]))[0] == pytest.approx(1.5)
        assert psi(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(1.0 / EPS_DIV)

    def test_ratio_update_in_place_is_the_same_formula(self):
        # the dense pass writes the quotient into f, or in layer 0 into m
        rng = np.random.default_rng(0)
        x, m = rng.normal(size=(2, 7, 7, 1))
        m[0, 0, 0] = 0.0
        expected = x / np.maximum(m, EPS_DIV)
        assert np.array_equal(RatioUpdate(1)(x, m), expected)
        out = RatioUpdate(1)(x, m.copy(), out=x)
        assert out is x and np.array_equal(x, expected)
        first = np.ones_like(m) / np.maximum(m, EPS_DIV)
        out = RatioUpdate(1)(1.0, m, out=m)
        assert out is m and np.array_equal(m, first)

    def test_first_layer_closed_form(self, convergence_spec):
        # From the all-ones start the first layer is the Sorensen-Dice index
        # of the two neighborhoods, 2 CN_ij / (D_i + D_j) in integer counts;
        # a pair without common neighbors reads 2 / (D_i + D_j).
        g = sample_graph(convergence_spec, 60, seed=3)
        out = gmpnn_pair(g, graph_stats(g), fixed_psi_mpnn(1))
        a = g.adjacency.astype(np.int64)
        cn = a @ a
        deg = a.sum(axis=1)
        expected = 2.0 * np.maximum(cn, 1) / (deg[:, None] + deg[None, :])
        np.testing.assert_allclose(out[:, :, 0], expected, rtol=1e-15, atol=0)

    def test_complete_graph_value(self):
        spec = SbmSpec(block_mass=[1.0], S=[[1.0]], B=[[1.0]])
        n = 9
        g = sample_graph(spec, n, seed=0)
        out = gmpnn_pair(g, graph_stats(g), fixed_psi_mpnn(1))[:, :, 0]
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(out[off], (n - 2) / (n - 1), atol=1e-14)


class TestDiscrete:
    def test_matches_nested_loop_oracle_fixed(self, convergence_spec):
        for seed in range(2):
            g = sample_graph(convergence_spec, 6, seed=seed)
            stats = graph_stats(g)
            mpnn = fixed_psi_mpnn(2)
            out = gmpnn_pair(g, stats, mpnn)
            expected = pair_mpnn_oracle(g.adjacency, list(mpnn.layers))
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_nested_loop_oracle_nets(self):
        spec = SbmSpec(block_mass=[0.6, 0.4], S=[[0.8, 0.3], [0.3, 0.7]],
                       B=np.ones((2, 1)))
        for seed in range(2):
            g = sample_graph(spec, 5, seed=seed)
            stats = graph_stats(g)
            msg = NetFunction(init_net([2, 4, 2], seed=seed, tag="m"))
            upd = NetFunction(init_net([3, 4, 1], seed=seed, tag="u"))
            msg2 = NetFunction(init_net([2, 3, 1], seed=seed, tag="m2"))
            upd2 = NetFunction(init_net([2, 3, 1], seed=seed, tag="u2"))
            mpnn = Mpnn(layers=((msg, upd), (msg2, upd2)))
            out = gmpnn_pair(g, stats, mpnn)
            expected = pair_mpnn_oracle(g.adjacency, list(mpnn.layers))
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_fast_path_equals_general_path(self, convergence_spec):
        g = sample_graph(convergence_spec, 512, seed=1)
        stats = graph_stats(g)
        fast = gmpnn_pair(g, stats, fixed_psi_mpnn(1))
        slow_mpnn = Mpnn(layers=((ProjectionWithoutFastPath(1), RatioUpdate(1)),))
        slow = gmpnn_pair(g, stats, slow_mpnn)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_symmetry_exact_every_layer(self, convergence_spec):
        g = sample_graph(convergence_spec, 40, seed=7)
        stats = graph_stats(g)
        for T in (1, 2, 3, 4):
            for mpnn in (learnable_psi_mpnn(T, hidden=4, seed=11), fixed_psi_mpnn(T)):
                f = gmpnn_pair(g, stats, mpnn)
                assert np.array_equal(f, np.swapaxes(f, 0, 1))

    def test_cap_enforced(self, convergence_spec, monkeypatch):
        monkeypatch.setattr(pair_mpnn, "N_MAX_GENERAL", 10)
        monkeypatch.setattr(pair_mpnn, "N_MAX_SYMBOLIC", 10)
        g = sample_graph(convergence_spec, 20, seed=0)
        stats = graph_stats(g)
        with pytest.raises(PreconditionError):
            gmpnn_pair(g, stats, fixed_psi_mpnn(1))
        with pytest.raises(PreconditionError):
            PairGraph(g, stats).forward(learnable_psi_mpnn(1), np.array([[0, 1]]))


def queried_pairs(n, count, seed):
    """Random pairs in both orders, plus a diagonal pair and a repeat."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(count, 2))
    return np.vstack([pairs, [[3, 3]], pairs[:1]])


class TestPairEngine:
    # at n = 120, an unrecorded pass takes the neighbor map for 40 pairs,
    # whose sums add in another order than the product A F; 300 and 4000
    # pairs pass its crossover and take that product, which matches the
    # dense pass bitwise
    @pytest.mark.parametrize("count", [40, 300, 4000])
    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("learn", [False, True])
    def test_queried_pairs_match_dense(self, convergence_spec, T, learn, count):
        g = sample_graph(convergence_spec, 120, seed=4)
        stats = graph_stats(g)
        mpnn = learnable_psi_mpnn(T, hidden=4, seed=5) if learn else fixed_psi_mpnn(T)
        dense = gmpnn_pair(g, stats, mpnn)
        pairs = queried_pairs(120, count, seed=T)
        pg = PairGraph(g, stats)
        queried, tape = pg.forward(mpnn, pairs)
        assert tape is None
        expected = dense[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(queried, expected, rtol=1e-12, atol=0.0)
        assert (pg._map is not None) == (T > 1 and count == 40)
        if count > 40:
            assert np.array_equal(queried, expected)

    # a recorded pass keeps its map for every epoch, so it takes the map up
    # to a larger crossover: 300 pairs take it, 4000 take the product
    @pytest.mark.parametrize("count", [300, 4000])
    @pytest.mark.parametrize("T", [2, 3])
    def test_recorded_pairs_match_dense(self, convergence_spec, T, count):
        g = sample_graph(convergence_spec, 120, seed=4)
        stats = graph_stats(g)
        mpnn = learnable_psi_mpnn(T, hidden=4, seed=5)
        pairs = queried_pairs(120, count, seed=T)
        pg = PairGraph(g, stats)
        queried, _ = pg.forward(mpnn, pairs, record=True)
        expected = gmpnn_pair(g, stats, mpnn)[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(queried, expected, rtol=1e-12, atol=0.0)
        entries = stats.degree_counts[pairs].sum()
        assert (entries > pair_mpnn._MAP_C * 120 ** 2) == (count == 4000)
        assert (pg._map is not None) == (count == 300)
        if count == 4000:
            assert np.array_equal(queried, expected)

    def test_first_message_is_the_degree_product_exactly(self, convergence_spec):
        g = sample_graph(convergence_spec, 200, seed=6)
        stats = graph_stats(g)
        pg = PairGraph(g, stats)
        y = g.adjacency @ np.ones((200, 200))
        assert np.array_equal(stats.degree_counts, g.adjacency @ np.ones(200))
        assert np.array_equal(pg.first_messages(np.empty((200, 200))),
                              (y + y.T) * message_weights_oracle(g.adjacency))

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_tape_gradients_match_finite_differences(self, convergence_spec, T):
        g = sample_graph(convergence_spec, 14, seed=2)
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(T, hidden=3, seed=T)
        pairs = queried_pairs(14, 10, seed=0)
        d_out = np.random.default_rng(1).normal(size=(len(pairs), 1))
        _, tape = pg.forward(mpnn, pairs, record=True)
        analytic = [g for layer in tape.backward(d_out) for g in layer]
        params = [p for net in mpnn.trainable_nets() for p in net.parameters()]

        def loss():
            values, _ = pg.forward(mpnn, pairs)
            return float(np.sum(values * d_out))

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_record_needs_pairs_and_update_nets(self, convergence_spec):
        g = sample_graph(convergence_spec, 20, seed=0)
        pg = PairGraph(g, graph_stats(g))
        with pytest.raises(PreconditionError):
            pg.forward(learnable_psi_mpnn(2), record=True)
        with pytest.raises(PreconditionError):
            pg.forward(fixed_psi_mpnn(2), np.array([[0, 1]]), record=True)


def isolate(graph, nodes):
    """The graph with every edge at ``nodes`` removed."""
    a = graph.adjacency.copy()
    a[nodes, :] = 0.0
    a[:, nodes] = 0.0
    return graph.with_adjacency(a)


def graph_with_isolated_node(spec, n):
    """An n-node graph of ``spec`` whose node 0 has no edge, so that its
    pairs share no neighbor; n = 1 keeps node 0 of a two-node graph."""
    g = isolate(sample_graph(spec, max(n, 2), seed=2), [0])
    return g if n > 1 else dataclasses.replace(g, n=1, adjacency=g.adjacency[:1, :1])


def map_pairs(n, count, seed):
    """``count`` random pairs, a diagonal pair, repeats in both orders, and
    pairs at the isolated nodes 0 and 1: one endpoint, both endpoints
    (mid-list and last, where reduceat would read the next entry or run
    past the end)."""
    pairs = np.random.default_rng(seed).integers(2, n, size=(count, 2))
    half = count // 2
    return np.vstack([pairs[:half], [[0, 5], [6, 1], [0, 1], [1, 1]], pairs[half:],
                      [[4, 4]], pairs[:2], pairs[:3, ::-1], [[1, 0]]])


class TestQueryMap:
    """A queried last layer reads the layer below through a neighbor map."""

    @pytest.mark.parametrize("T", [2, 3])
    @pytest.mark.parametrize("learn", [False, True])
    def test_map_matches_dense_and_oracle(self, convergence_spec, T, learn):
        g = isolate(sample_graph(convergence_spec, 24, seed=1), [0, 1])
        stats = graph_stats(g)
        mpnn = learnable_psi_mpnn(T, hidden=3, seed=T) if learn else fixed_psi_mpnn(T)
        pairs = map_pairs(24, 6, seed=T)
        pg = PairGraph(g, stats)
        queried, _ = pg.forward(mpnn, pairs)
        assert pg._map is not None and len(pg._map.empty) == 3
        dense = gmpnn_pair(g, stats, mpnn)[pairs[:, 0], pairs[:, 1]]
        oracle = pair_mpnn_oracle(g.adjacency, list(mpnn.layers))[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(queried, dense, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(queried, oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("T", [2, 3])
    def test_map_values_are_symmetric_exactly(self, convergence_spec, T):
        g = sample_graph(convergence_spec, 60, seed=2)
        pairs = queried_pairs(60, 50, seed=0)
        mpnn = learnable_psi_mpnn(T, hidden=4, seed=1)
        pg = PairGraph(g, graph_stats(g))
        values, _ = pg.forward(mpnn, np.vstack([pairs, pairs[:, ::-1]]), record=True)
        assert pg._map is not None
        assert np.array_equal(values[:len(pairs)], values[len(pairs):])

    def test_empty_segments_read_zero(self, convergence_spec):
        # both endpoints isolated: the message is 0, and the layer-1 net
        # sees [x, 0] whatever reduceat read at the segment's start
        g = isolate(sample_graph(convergence_spec, 30, seed=3), [0, 1])
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(2, hidden=3, seed=0)
        pairs = np.array([[2, 3], [0, 1], [4, 5], [1, 1], [0, 0]])
        pg.forward(mpnn, pairs)
        src = np.random.default_rng(0).normal(size=(len(pg.first_classes[0]), 1))
        out = np.full((len(pairs), 1), np.nan)
        pg._map.messages(src, out)
        assert np.array_equal(out[[1, 3, 4], 0], np.zeros(3))
        assert np.all(out[[0, 2], 0] != 0.0)

    @pytest.mark.parametrize("T", [2, 3])
    def test_gradients_match_per_row_reference(self, convergence_spec, T):
        g = isolate(sample_graph(convergence_spec, 40, seed=5), [0, 1])
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(T, hidden=3, seed=T)
        pairs = map_pairs(40, 20, seed=T)
        d_out = np.random.default_rng(2).normal(size=(len(pairs), 1))
        values, tape = pg.forward(mpnn, pairs, record=True)
        analytic = [g_ for layer in tape.backward(d_out) for g_ in layer]
        dense, expected = pair_update_rows_oracle(g.adjacency, mpnn.trainable_nets(),
                                                  pairs, d_out)
        np.testing.assert_allclose(values[:, 0], dense[pairs[:, 0], pairs[:, 1]],
                                   rtol=1e-12, atol=0.0)
        assert max_relative_error(analytic, [g_ for layer in expected for g_ in layer]) < 1e-12

    @pytest.mark.parametrize("T", [2, 3])
    def test_gradients_match_finite_differences(self, convergence_spec, T):
        g = isolate(sample_graph(convergence_spec, 14, seed=2), [0, 1])
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(T, hidden=3, seed=T)
        pairs = map_pairs(14, 20, seed=0)
        d_out = np.random.default_rng(1).normal(size=(len(pairs), 1))
        _, tape = pg.forward(mpnn, pairs, record=True)
        analytic = [g_ for layer in tape.backward(d_out) for g_ in layer]
        params = [p for net in mpnn.trainable_nets() for p in net.parameters()]

        def loss():
            values, _ = pg.forward(mpnn, pairs)
            return float(np.sum(values * d_out))

        numeric = finite_difference_gradients(loss, params)
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_map_is_kept_for_the_same_pairs(self, convergence_spec):
        g = sample_graph(convergence_spec, 50, seed=0)
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(2, hidden=3, seed=0)
        pairs = queried_pairs(50, 30, seed=1)
        pg.forward(mpnn, pairs)
        kept = pg._map
        pg.forward(mpnn, pairs.copy(), record=True)
        assert pg._map is kept
        pg.forward(mpnn, pairs[:-1])
        assert pg._map is not kept and len(pg._map.pairs) == len(pairs) - 1
        pg.forward(fixed_psi_mpnn(2), pairs[:-1])  # the dense features are its source
        assert pg._map.kind == "dense"

    def test_stable_order_is_argsort(self):
        rng = np.random.default_rng(0)
        for n_keys in (1, 2, 300, 1 << 16, (1 << 16) + 1, 200_000):
            keys = rng.integers(0, n_keys, size=5000).astype(np.int32)
            assert np.array_equal(pair_mpnn._stable_order(keys, n_keys),
                                  np.argsort(keys, kind="stable"))

    def test_blocks_cut_at_segment_starts(self, monkeypatch):
        monkeypatch.setattr(pair_mpnn, "_MAP_BLOCK", 10)
        # a segment longer than two blocks is one block alone
        starts = np.array([0, 0, 3, 12, 12, 40])
        assert pair_mpnn._blocks(starts, 45).tolist() == [0, 3, 5, 6]
        assert pair_mpnn._blocks(np.zeros(0, dtype=np.intp), 0).tolist() == [0]
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 50, size=45).astype(np.int32)
        src = rng.normal(size=(50, 2))
        out = np.empty((len(starts), 2))
        pair_mpnn._SegmentSum(idx, starts)(src, out)
        bounds = np.append(starts, 45)
        for s in (1, 2, 4, 5):  # 0 and 3 are empty
            np.testing.assert_allclose(out[s], src[idx[bounds[s]:bounds[s + 1]]].sum(axis=0),
                                       rtol=1e-13)

    def test_training_epoch_allocates_no_n_by_n_array(self, convergence_spec):
        # after the first pass has built the classes, the map and its
        # transpose, a recorded T = 2 pass and its backward at queried
        # pairs stay below one n x n float array
        n = 500
        g = sample_graph(convergence_spec, n, seed=0)
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(2, hidden=5, seed=0)
        pairs = queried_pairs(n, 6000, seed=0)
        assert pg.stats.degree_counts[pairs].sum() > 2 * n * n  # past the old n^2 / 150 rule
        d_out = np.random.default_rng(0).normal(size=(len(pairs), 1))
        values, tape = pg.forward(mpnn, pairs, record=True)
        tape.backward(d_out)
        tracemalloc.start()
        try:
            values, tape = pg.forward(mpnn, pairs, record=True)
            tape.backward(d_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestFirstLayerClasses:
    """Layer 0's update net runs once per (D_i + D_j, CN_ij) class."""

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_dense_pass_equals_per_row_reference(self, convergence_spec, T):
        g = sample_graph(convergence_spec, 90, seed=5)
        mpnn = learnable_psi_mpnn(T, hidden=4, seed=T)
        dense = gmpnn_pair(g, graph_stats(g), mpnn)
        no_pairs = np.zeros((0, 2), dtype=int)
        expected, _ = pair_update_rows_oracle(g.adjacency, mpnn.trainable_nets(),
                                              no_pairs, np.zeros((0, 1)))
        assert np.array_equal(dense[:, :, 0], expected)

    def test_one_class_per_distinct_counts(self, convergence_spec):
        n = 60
        g = sample_graph(convergence_spec, n, seed=3)
        messages, inv = PairGraph(g, graph_stats(g)).first_classes
        a = g.adjacency.astype(np.int64)
        cn, deg = a @ a, a.sum(axis=1)
        # the 1/n fallback reads CN = 0 as 1: those pairs share the class
        # of their degree sum with CN = 1, message (D_i + D_j) / 2
        keys = {(deg[i] + deg[j], max(cn[i, j], 1))
                for i in range(n) for j in range(i, n)}
        assert len(messages) == len(keys)
        assert np.array_equal(inv, inv.T)
        zero = cn == 0
        one = cn == 1
        assert zero.any() and one.any()
        s = deg[:, None] + deg[None, :]
        shared = [s_ for s_ in np.unique(s[zero]) if s_ in s[one]]
        assert shared
        for s_ in shared:
            assert np.unique(inv[(zero | one) & (s == s_)]).size == 1
        np.testing.assert_allclose(1.0 / messages[inv[zero]], 2.0 / s[zero],
                                   rtol=1e-15, atol=0)


def reference_fixed_pass(adjacency, weights, T):
    """The fixed variant's dense pass as separate array operations: all
    ones, then per layer Y = A F, m = (Y + Y^T) W, F <- F / max(m, EPS_DIV)."""
    f = np.ones(adjacency.shape)
    for _ in range(T):
        y = adjacency @ f
        m = np.add(y, y.T) * weights
        f = f / np.maximum(m, EPS_DIV)
    return f


class TestDenseBuffers:
    """The dense pass works in two reused n x n buffers, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, pair_mpnn._TILE - 1, pair_mpnn._TILE,
                                   pair_mpnn._TILE + 1, 2 * pair_mpnn._TILE + 3])
    def test_tiled_symmetrization_is_y_plus_its_transpose(self, convergence_spec, n):
        # the weights are formed per tile from the counts, and the mirror
        # tile reads them transposed: bitwise the full-array formula, the
        # 1/n fallback of the isolated node 0 included
        rng = np.random.default_rng(n)
        y = rng.normal(size=(n, n))
        g = graph_with_isolated_node(convergence_spec, n)
        weights = pair_mpnn.pair_message_weights(graph_stats(g))
        full = message_weights_oracle(g.adjacency)
        assert (weights.counts == 0).any()
        for w, expected in ((np.ones((n, n)), y + y.T), (weights, (y + y.T) * full)):
            m = y.copy()
            pair_mpnn._symmetrize(m, w)
            assert np.array_equal(m, expected)

    @pytest.mark.parametrize("n", [1, pair_mpnn._TILE - 1, pair_mpnn._TILE,
                                   pair_mpnn._TILE + 1, 2 * pair_mpnn._TILE + 3])
    def test_first_messages_by_strips_are_the_full_formula(self, convergence_spec, n):
        g = graph_with_isolated_node(convergence_spec, n)
        pg = PairGraph(g, graph_stats(g))
        d = g.adjacency.sum(axis=1)
        expected = np.add.outer(d, d) * message_weights_oracle(g.adjacency)
        assert np.array_equal(pg.first_messages(np.empty((n, n))), expected)
        messages, inv = pg.first_classes
        assert np.array_equal(messages[inv], expected)

    def test_building_a_pair_graph_allocates_no_n_by_n_array(self, convergence_spec):
        n = 512
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the build
        tracemalloc.start()
        try:
            pg = PairGraph(g, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8
        # nor does it keep one after dense, queried and recorded passes
        mpnn = learnable_psi_mpnn(2, hidden=3, seed=0)
        pg.forward(mpnn)
        pairs = queried_pairs(n, 300, seed=0)
        pg.forward(mpnn, pairs, record=True)[1].backward(np.ones((len(pairs), 1)))
        held = [v for value in vars(pg).values()
                for v in (value if isinstance(value, tuple) else (value,))]
        held += list(vars(pg.weights).values())
        assert pg._map is not None and "first_classes" in vars(pg)
        assert not [v for v in held if isinstance(v, np.ndarray) and v.dtype == np.float64
                    and v.size >= n * n and v is not g.adjacency]

    @pytest.mark.parametrize("n", [150, 2 * pair_mpnn._TILE + 3])
    def test_fixed_pass_equals_separate_operations(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=3)
        stats = graph_stats(g)
        weights = message_weights_oracle(g.adjacency)
        for T in (1, 2, 3, 4):
            dense = gmpnn_pair(g, stats, fixed_psi_mpnn(T))
            assert np.array_equal(dense[:, :, 0], reference_fixed_pass(g.adjacency, weights, T))

    def test_fixed_pass_working_set(self, convergence_spec):
        # f and m: 2 n^2 floats, plus tile-sized temporaries; W is formed
        # per tile from the counts (3.13 n^2 floats while W was an array)
        n = 512
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the pass
        tracemalloc.start()
        try:
            gmpnn_pair(g, stats, fixed_psi_mpnn(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * n * 8

    def test_pair_net_pass_working_set(self, convergence_spec):
        # the update input [x, m] is gathered once into one (n^2 / 2, 2)
        # array and W is no array: 12.07 n^2 floats at n = 512, where a
        # held W read 13.07 and a concatenation of the gathered x and m
        # rows 14.07
        n = 512
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the pass
        tracemalloc.start()
        try:
            gmpnn_pair(g, stats, learnable_psi_mpnn(3, hidden=10, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.25 * n * n * 8


class TestContinuous:
    def test_stationary_at_edge_probabilities(self, convergence_spec):
        mpnn = fixed_psi_mpnn(5)
        trace = cmpnn_pair_sbm(convergence_spec, mpnn, init=convergence_spec.S,
                               return_layers=True)
        for layer in trace:
            assert np.max(np.abs(layer[:, :, 0] - convergence_spec.S)) < 1e-12

    def test_single_block_reaches_edge_probability_in_one_step(self):
        p = 0.37
        spec = SbmSpec(block_mass=[1.0], S=[[p]], B=[[1.0]])
        out = cmpnn_pair_sbm(spec, fixed_psi_mpnn(1))
        assert out[0, 0, 0] == pytest.approx(p, abs=1e-15)

    def test_ones_init_converges_to_edge_probabilities(self, convergence_spec):
        out = cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(50))
        assert np.max(np.abs(out[:, :, 0] - convergence_spec.S)) < 1e-6

    def test_zero_common_neighbors_is_hard_error(self):
        spec = SbmSpec(block_mass=[0.5, 0.5], S=np.eye(2), B=np.ones((2, 1)))
        with pytest.raises(PreconditionError):
            cmpnn_pair_sbm(spec, fixed_psi_mpnn(1))


class TestLift:
    """The gap reads each pair's entry of the block values by its blocks."""

    def test_single_block_constant(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.0]])
        g = sample_graph(spec, 15, seed=0)
        block = cmpnn_pair_sbm(spec, fixed_psi_mpnn(2))
        values = np.random.default_rng(0).normal(size=(15, 15, 1))
        off = ~np.eye(15, dtype=bool)
        expected = np.max(np.abs(values[off] - block[0, 0]))
        assert delta_pair(values, block, g.block_of) == expected

    def test_entries_depend_only_on_block_pair(self, convergence_spec):
        g = sample_graph(convergence_spec, 30, seed=2)
        block = cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(2))
        values = gmpnn_pair(g, graph_stats(g), fixed_psi_mpnn(2))
        bo = g.block_of
        expected = max(float(np.max(np.abs(values[i, j] - block[bo[i], bo[j]])))
                       for i in range(30) for j in range(30) if i != j)
        assert delta_pair(values, block, g.block_of) == expected

    def test_permutation_equivariance(self, convergence_spec):
        # relabelling the nodes leaves the gap unchanged
        g = sample_graph(convergence_spec, 25, seed=4)
        block = cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(1))
        values = gmpnn_pair(g, graph_stats(g), fixed_psi_mpnn(1))
        base = delta_pair(values, block, g.block_of)
        assert base > 0.0
        perm = np.random.default_rng(3).permutation(25)
        assert delta_pair(values[np.ix_(perm, perm)], block, g.block_of[perm]) == base
