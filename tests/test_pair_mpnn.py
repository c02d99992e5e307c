import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphon_mpnn import (
    NumericalError,
    PreconditionError,
    SbmSpec,
    cmpnn_pair_sbm,
    fixed_psi_mpnn,
    gmpnn_pair,
    graph_stats,
    sample_graph,
)
from graphon_mpnn.mpnn import (EPS_DIV, Mpnn, NeighborProjection, NetFunction, RatioUpdate,
                               require_finite)
from graphon_mpnn import pair_mpnn, sbm
from graphon_mpnn.analysis import delta_pair
from graphon_mpnn.nn import init_net
from graphon_mpnn.pair_mpnn import PairGraph, learnable_psi_mpnn

from oracles import (
    class_map_oracle,
    cmpnn_pair_oracle,
    count_matrix,
    finite_difference_gradients,
    max_relative_error,
    message_weights_oracle,
    pair_mpnn_oracle,
    pair_update_rows_oracle,
    with_adjacency,
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
        # the dense pass writes the quotient into f, in layer 0 into a new f
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


def full(triangle):
    """The dense (n, n, width) messages of a ``_Triangle``, read from its
    i <= j entries alone."""
    n = triangle.n
    m = np.empty((n, n, triangle.width))
    for i in range(n):
        m[i, i:] = m[i:, i] = triangle.row(i)
    return m


def queried_pairs(n, count, seed):
    """Random pairs in both orders, plus a diagonal pair and a repeat."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(count, 2))
    return np.vstack([pairs, [[3, 3]], pairs[:1]])


def message_net_mpnn(T):
    """T = 1 or 2 layers whose messages and updates are all nets."""
    layers = [(NetFunction(init_net([2, 4, 2], seed=T, tag="m")),
               NetFunction(init_net([3, 4, 1], seed=T, tag="u")))]
    if T == 2:
        layers.append((NetFunction(init_net([2, 3, 1], seed=T, tag="m2")),
                       NetFunction(init_net([2, 3, 1], seed=T, tag="u2"))))
    return Mpnn(layers=tuple(layers))


class TestPairEngine:
    # at n = 120, an unrecorded pass with T > 1 takes the neighbor map for
    # 40 pairs, whose sums add in another order than the product A F; 300
    # and 4000 pairs pass its crossover, and T = 1 takes no map: those read
    # the dense last layer at the pairs, bitwise the dense pass
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
        if pg._map is None:
            assert np.array_equal(queried, expected)

    @pytest.mark.parametrize("T", [1, 2])
    def test_queried_general_messages_match_dense(self, T):
        # a message net takes no map: the queried pass reads the dense last
        # layer at the pairs
        spec = SbmSpec(block_mass=[0.6, 0.4], S=[[0.8, 0.3], [0.3, 0.7]],
                       B=np.ones((2, 1)))
        g = sample_graph(spec, 12, seed=T)
        stats = graph_stats(g)
        mpnn = message_net_mpnn(T)
        pairs = queried_pairs(12, 30, seed=T)
        pg = PairGraph(g, stats)
        queried, _ = pg.forward(mpnn, pairs)
        assert pg._map is None
        dense = gmpnn_pair(g, stats, mpnn)
        assert np.array_equal(queried, dense[pairs[:, 0], pairs[:, 1]])

    # a recorded pass keeps its map for every epoch, so it takes the map up
    # to a larger crossover: 300 pairs take it, 4000 take the product, and
    # the pull of that last layer is the dense one, on pairs in both orders;
    # T = 1 takes no map. In strips of 37 rows the pull's tiles of W
    # straddle the cuts of the counts' triangle.
    @pytest.mark.parametrize("strip", [None, 37])
    @pytest.mark.parametrize("count", [300, 4000])
    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_recorded_pairs_match_dense(self, convergence_spec, monkeypatch, T, count, strip):
        if strip is not None:
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip * 120)
        g = sample_graph(convergence_spec, 120, seed=4)
        stats = graph_stats(g)
        assert stats.strip_rows == (strip or 120)
        mpnn = learnable_psi_mpnn(T, hidden=4, seed=5)
        pairs = queried_pairs(120, count, seed=T)
        pg = PairGraph(g, stats)
        queried, tape = pg.forward(mpnn, pairs, record=True)
        expected = gmpnn_pair(g, stats, mpnn)[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(queried, expected, rtol=1e-12, atol=0.0)
        entries = stats.degree_counts[pairs].sum()
        assert (entries > pair_mpnn._MAP_C * 120 ** 2) == (count == 4000)
        assert (pg._map is not None) == (T > 1 and count == 300)
        if pg._map is None:
            assert np.array_equal(queried, expected)
        d_out = np.random.default_rng(6).normal(size=(len(pairs), 1))
        analytic = [g_ for layer in tape.backward(d_out) for g_ in layer]
        _, oracle = pair_update_rows_oracle(g.adjacency, mpnn.trainable_nets(), pairs, d_out)
        assert max_relative_error(analytic, [g_ for layer in oracle for g_ in layer]) < 1e-12

    # the rows of each layer at n = 120: a dense pass (count None), passes
    # queried at 40 pairs (under the one-use map limit) and 4000 (over it),
    # and recorded passes at 300 (under the recorded limit) and 4000. In
    # strips of 37 rows the plan is the same, W is read across the cuts of
    # the counts' triangle (by the net messages' rows and the "upper" map's
    # pairs among others), and the values are those of one strip.
    @pytest.mark.parametrize("strip", [None, 37])
    @pytest.mark.parametrize("model, T, count, record, plan", [
        ("fixed", 1, None, False, "dense"),
        ("fixed", 1, 40, False, "pairs"),
        ("fixed", 1, 4000, False, "pairs"),
        ("fixed", 2, None, False, "dense dense"),
        ("fixed", 2, 40, False, "classes map"),
        ("fixed", 2, 4000, False, "dense pairs"),
        ("fixed", 3, None, False, "dense dense dense"),
        ("fixed", 3, 40, False, "dense dense map"),
        ("fixed", 3, 4000, False, "dense dense pairs"),
        ("fixed", 4, None, False, "dense dense dense dense"),
        ("fixed", 4, 40, False, "dense dense dense map"),
        ("fixed", 4, 4000, False, "dense dense dense pairs"),
        ("learn", 1, None, False, "classes"),
        ("learn", 1, 40, False, "pairs"),
        ("learn", 1, 4000, False, "pairs"),
        ("learn", 1, 300, True, "pairs"),
        ("learn", 1, 4000, True, "pairs"),
        ("learn", 2, None, False, "classes upper"),
        ("learn", 2, 40, False, "classes map"),
        ("learn", 2, 4000, False, "classes pairs"),
        ("learn", 2, 300, True, "classes map"),
        ("learn", 2, 4000, True, "classes pairs"),
        ("learn", 3, None, False, "classes upper upper"),
        ("learn", 3, 40, False, "classes upper map"),
        ("learn", 3, 4000, False, "classes upper pairs"),
        ("learn", 3, 300, True, "classes upper map"),
        ("learn", 3, 4000, True, "classes upper pairs"),
        ("learn", 4, None, False, "classes upper upper upper"),
        ("learn", 4, 40, False, "classes upper upper map"),
        ("learn", 4, 4000, False, "classes upper upper pairs"),
        ("learn", 4, 300, True, "classes upper upper map"),
        ("learn", 4, 4000, True, "classes upper upper pairs"),
        ("net", 1, None, False, "upper"),
        ("net", 1, 40, False, "pairs"),
        ("net", 2, None, False, "upper upper"),
        ("net", 2, 40, False, "upper pairs"),
    ])
    def test_plan_of_each_pass(self, convergence_spec, monkeypatch, model, T, count, record,
                               plan, strip):
        g = sample_graph(convergence_spec, 120, seed=4)
        models = {"fixed": fixed_psi_mpnn, "net": message_net_mpnn,
                  "learn": lambda T: learnable_psi_mpnn(T, hidden=4, seed=5)}
        mpnn = models[model](T)
        pairs = None if count is None else queried_pairs(120, count, seed=T)
        if strip is not None:
            whole, _ = PairGraph(g, graph_stats(g)).forward(mpnn, pairs, record)
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip * 120)
        pg = PairGraph(g, graph_stats(g))
        assert pg.stats.strip_rows == (strip or 120)
        plan = plan.split()
        assert pg._plan(mpnn, pairs, record) == plan
        values, _ = pg.forward(mpnn, pairs, record)
        if plan[-1] == "map":
            assert pg._map.kind == plan[-2]
        else:
            assert pg._map is None
        if strip is not None:
            np.testing.assert_allclose(values, whole, rtol=1e-12, atol=0.0)

    def test_first_message_is_the_degree_product_exactly(self, convergence_spec):
        g = sample_graph(convergence_spec, 200, seed=6)
        stats = graph_stats(g)
        pg = PairGraph(g, stats)
        y = g.adjacency @ np.ones((200, 200))
        assert np.array_equal(stats.degree_counts, g.adjacency @ np.ones(200))
        first = full(pg.dense_messages(None, NeighborProjection(1)))[:, :, 0]
        assert np.array_equal(first, (y + y.T) * message_weights_oracle(g.adjacency))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_check_reads_min_and_max(self, bad):
        # one bad entry anywhere among finite ones, of either sign, is
        # caught; an empty array, such as zero queried pairs, passes
        for at in (0, 7, 23):
            values = np.linspace(-3.0, 3.0, 24).reshape(8, 3)
            values.flat[at] = bad
            with pytest.raises(NumericalError, match="non-finite pair features"):
                require_finite(values, "pair")
        require_finite(np.linspace(-3.0, 3.0, 24).reshape(8, 3), "pair")
        require_finite(np.zeros((0, 1)), "pair")

    # a dense pass, a queried pass through the map (30 pairs) and one
    # without (4000 pairs); an output bias of ``bad`` in layer 0's or the
    # last layer's update net makes that layer's rows non-finite
    @pytest.mark.parametrize("count", [None, 30, 4000])
    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_raise(self, convergence_spec, bad, layer, count):
        g = sample_graph(convergence_spec, 60, seed=1)
        mpnn = learnable_psi_mpnn(2, hidden=3, seed=0)
        mpnn.layers[layer][1].net.biases[-1][0] = bad
        pairs = None if count is None else queried_pairs(60, count, seed=0)
        pg = PairGraph(g, graph_stats(g))
        with pytest.raises(NumericalError, match="non-finite pair features"):
            pg.forward(mpnn, pairs)
        if count is not None:
            assert (pg._map is not None) == (count == 30)

    @pytest.mark.parametrize("mpnn", [fixed_psi_mpnn(2), learnable_psi_mpnn(2, hidden=3)])
    def test_empty_pair_set_passes(self, convergence_spec, mpnn):
        g = sample_graph(convergence_spec, 40, seed=0)
        values, _ = PairGraph(g, graph_stats(g)).forward(mpnn, np.zeros((0, 2), dtype=int))
        assert values.shape == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, pair_mpnn._TILE - 1, pair_mpnn._TILE + 1, 300])
    def test_neighbor_lists_are_nonzero_in_int32(self, convergence_spec, n):
        g = graph_with_isolated_node(convergence_spec, n)
        pg = PairGraph(g, graph_stats(g))
        indptr, indices = pg.neighbor_lists(np.arange(n))
        rows, cols = np.nonzero(g.adjacency)
        assert indices.dtype == np.int32
        assert np.array_equal(indices, cols)
        assert indptr[0] == 0 and np.array_equal(np.diff(indptr), np.bincount(rows, minlength=n))
        # some of the nodes: node 0 (isolated), the last, and every third
        nodes = np.unique(np.r_[0, np.arange(1, n, 3), n - 1])
        indptr, indices = pg.neighbor_lists(nodes)
        rows, cols = np.nonzero(g.adjacency[nodes])
        assert np.array_equal(indices, cols)
        assert np.array_equal(np.diff(indptr), np.bincount(rows, minlength=len(nodes)))

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
    return with_adjacency(graph, a)


def graph_with_isolated_node(spec, n):
    """An n-node graph of ``spec`` whose node 0 has no edge, so that its
    pairs share no neighbor; n = 1 keeps node 0 of a two-node graph."""
    g = isolate(sample_graph(spec, max(n, 2), seed=2), [0])
    if n > 1:
        return g
    return dataclasses.replace(g, n=1, bits=np.packbits(g.adjacency[:1, :1], axis=1))


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
        assert pg._map is not None and np.count_nonzero(pg._map.lengths == 0) == 3
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
        src = np.random.default_rng(0).normal(size=(len(pg.first_classes.messages), 1))
        out = np.full((len(pairs), 1), np.nan)
        pg._map.messages(src, out)
        assert np.array_equal(out[[1, 3, 4], 0], np.zeros(3))
        assert np.all(out[[0, 2], 0] != 0.0)

    @pytest.mark.parametrize("block", [None, 10])
    @pytest.mark.parametrize("T", [2, 3, 4])
    def test_gradients_match_per_row_reference(self, convergence_spec, monkeypatch,
                                               T, block):
        # with 10-entry blocks most segments outgrow a block, blocks begin
        # on empty segments and the last ends on them; the forward adds in
        # another order for each block size, so each is held to the
        # oracle, not to the other
        if block is not None:
            monkeypatch.setattr(pair_mpnn, "_MAP_BLOCK", block)
        g = isolate(sample_graph(convergence_spec, 40, seed=5), [0, 1])
        pg = PairGraph(g, graph_stats(g))
        mpnn = learnable_psi_mpnn(T, hidden=3, seed=T)
        pairs = map_pairs(40, 20, seed=T)
        d_out = np.random.default_rng(2).normal(size=(len(pairs), 1))
        values, tape = pg.forward(mpnn, pairs, record=True)
        if block is not None:
            lengths, cuts = pg._map.lengths, pg._map.cuts
            assert np.count_nonzero(lengths > block) > len(pairs) // 2
            assert (lengths[cuts[1:-1]] == 0).any() and lengths[-1] == 0
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
        assert kept.idx.dtype == kept.own.dtype == np.int32
        pg.forward(mpnn, pairs.copy(), record=True)
        assert pg._map is kept  # widened in place: a recorded pass reads intp entries
        assert kept.idx.dtype == kept.own.dtype == np.intp
        pg.forward(mpnn, pairs[:-1])
        assert pg._map is not kept and len(pg._map.pairs) == len(pairs) - 1
        kept = pg._map
        # layer 0's count classes are the source of the fixed pass's map too
        pg.forward(fixed_psi_mpnn(2), pairs[:-1])
        assert pg._map is kept and kept.kind == "classes"
        pg.forward(fixed_psi_mpnn(3), pairs[:-1])  # layer 1's dense features are its source
        assert pg._map is not kept and pg._map.kind == "dense"
        for qmap in (kept, pg._map):
            assert qmap.idx.dtype == qmap.own.dtype == np.int32

    @pytest.mark.parametrize("T", [2, 3])
    def test_int32_entries_read_as_intp_entries(self, convergence_spec, T):
        # the map keeps its entries and own rows in int32: its messages and
        # its pull equal those of the same map in intp bit for bit
        g = isolate(sample_graph(convergence_spec, 40, seed=5), [0, 1])
        pg = PairGraph(g, graph_stats(g))
        pairs = map_pairs(40, 20, seed=T)
        pg.forward(fixed_psi_mpnn(T), pairs)
        narrow = pg._map
        wide = copy.copy(narrow)
        wide._buf = None
        wide.widen()
        assert narrow.idx.dtype == np.int32 and wide.idx.dtype == wide.own.dtype == np.intp
        rng = np.random.default_rng(T)
        src = rng.normal(size=(narrow.n_rows, 2))
        d_x, d_m = rng.normal(size=(2, len(pairs), 2))
        out = np.empty((2, len(pairs), 2))
        for qmap, o in zip((narrow, wide), out):
            qmap.messages(src, out=o)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(narrow.pull(d_x, d_m), wide.pull(d_x, d_m))

    @pytest.mark.parametrize("n, count", [(60, 20), (300, 50)])
    def test_fixed_map_reads_layer_0_by_class(self, convergence_spec, n, count):
        # under a map, the closed-form layer 0 runs on the count classes,
        # whose rows are the floats of its dense features: the values equal
        # a map over the dense layer 0 bit for bit. The dense pass adds each
        # pair's two neighbor sums apart, so it agrees at rounding level;
        # where no map serves, the queried pass reads the dense one exactly
        # (test_queried_pairs_match_dense)
        g = sample_graph(convergence_spec, n, seed=1)
        stats = graph_stats(g)
        pairs = queried_pairs(n, count, seed=2)
        pg = PairGraph(g, stats)
        values, _ = pg.forward(fixed_psi_mpnn(2), pairs)
        assert pg._map.kind == "classes"
        f0 = gmpnn_pair(g, stats, fixed_psi_mpnn(1)).reshape(-1, 1)
        dense_map = pair_mpnn._QueryMap(pg, pairs, "dense")
        m = np.empty((len(pairs), 1))
        dense_map.messages(f0, out=m)
        assert np.array_equal(values, RatioUpdate(1)(f0[dense_map.own], m))
        dense = gmpnn_pair(g, stats, fixed_psi_mpnn(2))[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(values, dense, rtol=1e-12, atol=0.0)

    def test_queried_fixed_pass_holds_no_n_by_n_float_array(self, convergence_spec):
        # layer 0 runs on its count classes and the map reads their rows,
        # from the endpoints' rows of the counts: 0.41 n^2 floats at
        # n = 2000, where the int32 class map (0.5 n^2 floats) and its
        # build read 0.74, and a dense layer 0 and an n x n finiteness mask
        # 1.78
        n = 2000
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the pass
        pg = PairGraph(g, stats)
        pairs = queried_pairs(n, 672, seed=0)
        tracemalloc.start()
        try:
            pg.forward(fixed_psi_mpnn(2), pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pg._map.kind == "classes"
        assert peak < n * n * 8
        held = [v for value in vars(pg).values()
                for v in (value if isinstance(value, tuple) else (value,))]
        assert not [v for v in held if isinstance(v, np.ndarray) and v.dtype == np.float64
                    and v.size >= n * n]

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("n, cn_rows", [(600, None), (333, 100)])
    def test_class_map_equals_the_full_count_oracle(self, convergence_spec, monkeypatch,
                                                    n, cn_rows, cached):
        # the map over layer 0's classes, built from its endpoints' rows of
        # the counts, streamed from the row-block products (n = 600: blocks
        # of 512 and 88 rows; n = 333 in blocks of 100, the last of 33) or
        # read from the whole counts, equals the oracle's from the whole
        # counts and class map; nodes 0 and 1 are isolated, so some pairs
        # have no common neighbor
        if cn_rows is not None:
            monkeypatch.setattr(sbm, "_CN_ROWS", cn_rows)
        g = isolate(sample_graph(convergence_spec, n, seed=4), [0, 1])
        stats = graph_stats(g)
        if cached:
            stats.common_neighbors
        pg = PairGraph(g, stats)
        pairs = map_pairs(n, 200, seed=n)
        values, _ = pg.forward(fixed_psi_mpnn(2), pairs)
        qmap = pg._map
        assert qmap.kind == "classes"
        assert (stats._common is not None) == cached  # the stream builds no counts
        a = g.adjacency.astype(np.int64)
        assert ((a @ a)[pairs[:, 0], pairs[:, 1]] == 0).any()
        idx, own, w, n_rows, messages = class_map_oracle(g.adjacency, pairs)
        assert qmap.n_rows == n_rows
        assert np.array_equal(qmap.idx, idx) and np.array_equal(qmap.own, own)
        assert np.array_equal(qmap.w, w)
        assert np.array_equal(pg.first_classes.messages, messages)
        dense = gmpnn_pair(g, stats, fixed_psi_mpnn(2))[pairs[:, 0], pairs[:, 1]]
        np.testing.assert_allclose(values, dense, rtol=1e-12, atol=0.0)

    def test_streamed_pass_holds_no_n_by_n_array(self, convergence_spec):
        # a queried T = 2 pass on a fresh graph streams the counts' row
        # blocks: two float32 blocks of 512 rows, a block result, the
        # endpoints' rows of the counts and the map, 16.5 MiB at n = 2000,
        # where the whole uint16 counts, the int32 class map and its build
        # read 30.3
        n = 2000
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        pairs = queried_pairs(n, 672, seed=0)
        tracemalloc.start()
        try:
            pg = PairGraph(g, stats)
            pg.forward(fixed_psi_mpnn(2), pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pg._map.kind == "classes" and stats._common is None
        assert "weights" not in vars(pg) and "_class_inv" not in vars(pg)
        assert peak <= 17.5 * 2 ** 20

    def test_blocks_cut_at_segment_starts(self, monkeypatch):
        monkeypatch.setattr(pair_mpnn, "_MAP_BLOCK", 10)
        # a segment longer than two blocks is one block alone
        starts = np.array([0, 0, 3, 12, 12, 40])
        assert pair_mpnn._blocks(starts, 45).tolist() == [0, 3, 5, 6]
        assert pair_mpnn._blocks(np.zeros(0, dtype=np.intp), 0).tolist() == [0]

    def test_training_epoch_allocates_no_n_by_n_array(self, convergence_spec):
        # after the first pass has built the classes and the map, a
        # recorded T = 2 pass and its backward at queried pairs stay below
        # one n x n float array
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
        pg = PairGraph(g, graph_stats(g))
        messages, inv = pg.first_classes.messages, pg.row_inv("classes")
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


def strip_reference(graph, stats, mpnn):
    """The dense pass of neighbor-projection messages as whole-array
    operations from all ones, every product through ``stats.product`` so
    that it runs in the pass's strips: per layer Y = A F and
    m = (Y + Y^T) W, then the ratio update, or the update net on every
    i <= j row as one batch."""
    n = graph.n
    w = message_weights_oracle(graph.adjacency)
    rows = np.triu_indices(n)
    f = np.ones((n, n))
    for _, update in mpnn.layers:
        y = stats.product(f)
        m = (y + y.T) * w
        if update.net is None:
            f = f / np.maximum(m, EPS_DIV)
        else:
            out = update.net.forward(np.stack([f[rows], m[rows]], axis=1))[:, 0]
            f = np.empty((n, n))
            f[rows] = out
            f.T[rows] = out
    return f


class TestDenseBuffers:
    """The dense pass works in one n x n feature buffer and the messages'
    i <= j triangle, bit for bit."""

    @pytest.mark.parametrize("strip", [None, 37])
    @pytest.mark.parametrize("n", [1, 2, pair_mpnn._TILE - 1, pair_mpnn._TILE,
                                   pair_mpnn._TILE + 1, 2 * pair_mpnn._TILE + 3])
    def test_tiled_symmetrization_is_y_plus_its_transpose(self, convergence_spec, monkeypatch,
                                                          n, strip):
        # the weights are formed per tile from the counts, and the mirror
        # tile reads them transposed: bitwise the full-array formula, the
        # 1/n fallback of the isolated node 0 included, from the counts in
        # one strip or in strips of 37 rows, which tiles straddle
        if strip is not None:
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip * n)
        rng = np.random.default_rng(n)
        y = rng.normal(size=(n, n))
        g = graph_with_isolated_node(convergence_spec, n)
        stats = graph_stats(g)
        weights = pair_mpnn.pair_message_weights(stats)
        full = message_weights_oracle(g.adjacency)
        assert (count_matrix(stats) == 0).any()
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
        first = full(pg.dense_messages(None, NeighborProjection(1)))[:, :, 0]
        assert np.array_equal(first, expected)
        assert np.array_equal(pg.first_classes.messages[pg.row_inv("classes")], expected)

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
        held += list(vars(pg.weights).values()) + list(vars(pg.first_classes).values())
        assert pg._map is not None and pg._classes is not None
        assert not [v for v in held if isinstance(v, np.ndarray) and v.dtype == np.float64
                    and v.size >= n * n and v is not g.adjacency]

    def test_first_classes_hold_no_n_by_n_key_array(self, convergence_spec):
        # the keys are formed per row strip: beyond the int32 inv (0.5 n^2
        # floats) only strips and a table over the key range are alive,
        # 0.72 n^2 floats at n = 1024, where two intp n x n arrays read 2.0
        n = 1024
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the build
        pg = PairGraph(g, stats)
        tracemalloc.start()
        try:
            pg.row_inv("classes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * n * n * 8

    @pytest.mark.parametrize("n", [150, 2 * pair_mpnn._TILE + 3])
    def test_fixed_pass_equals_separate_operations(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=3)
        stats = graph_stats(g)
        weights = message_weights_oracle(g.adjacency)
        for T in (1, 2, 3, 4):
            dense = gmpnn_pair(g, stats, fixed_psi_mpnn(T))
            assert np.array_equal(dense[:, :, 0], reference_fixed_pass(g.adjacency, weights, T))

    @pytest.mark.parametrize("n, rows", [(300, 70), (333, 128)])
    def test_strip_passes_equal_the_strip_reference(self, convergence_spec, monkeypatch,
                                                    n, rows):
        # strips of 70 rows end mid-tile and leave a last strip of 20, strips
        # of 128 rows leave one of 77, and node 0 is isolated: the triangle
        # completed strip by strip is the dense formula bit for bit, for
        # the dense pass and for a queried one that takes no map
        monkeypatch.setattr(sbm, "_STRIP_ENTRIES", rows * n)
        g = graph_with_isolated_node(convergence_spec, n)
        stats = graph_stats(g)
        assert stats.strip_rows == rows
        first = PairGraph(g, stats).dense_messages(None, NeighborProjection(1))
        assert len(first.blocks) == -(-n // rows)
        assert np.shares_memory(first.blocks[-1], first.strip)
        d = g.adjacency.sum(axis=1)
        expected = np.add.outer(d, d) * message_weights_oracle(g.adjacency)
        assert np.array_equal(full(first)[:, :, 0], expected)
        pairs = queried_pairs(n, 3000, seed=n)
        for mpnn in ([fixed_psi_mpnn(T) for T in (1, 2, 3, 4)]
                     + [learnable_psi_mpnn(T, hidden=4, seed=T) for T in (1, 2, 3)]):
            expected = strip_reference(g, stats, mpnn)
            assert np.array_equal(gmpnn_pair(g, stats, mpnn)[:, :, 0], expected)
            pg = PairGraph(g, stats)
            queried, _ = pg.forward(mpnn, pairs)
            assert pg._map is None
            assert np.array_equal(queried[:, 0], expected[pairs[:, 0], pairs[:, 1]])

    def test_fixed_pass_working_set(self, convergence_spec):
        # one strip: f and the triangle, which is the strip buffer of the
        # whole product Y, 2 n^2 floats, plus 165 KiB of tile-sized
        # temporaries, 2.02 n^2 at n = 1024; W is formed per tile from the
        # counts (3.13 n^2 floats while W was an array), and the finiteness
        # check forms no n x n mask (2.13 n^2 floats with one)
        n = 1024
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the pass
        tracemalloc.start()
        try:
            gmpnn_pair(g, stats, fixed_psi_mpnn(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * n * n * 8

    def test_fixed_pass_working_set_in_strips(self, convergence_spec, monkeypatch):
        # f, the triangle's seven separate blocks (0.547 n^2 floats), its
        # strip buffer for Y and the stats' strip of A (0.125 n^2 each) and
        # tile-sized temporaries: 1.82 n^2 floats at n = 1024, where f, a
        # dense m and the strip of A read 2.15
        n = 1024
        monkeypatch.setattr(sbm, "_STRIP_ENTRIES", 128 * n)  # 8 strips, as at n = 4096
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        stats.common_neighbors  # computed lazily; not part of the pass
        tracemalloc.start()
        try:
            gmpnn_pair(g, stats, fixed_psi_mpnn(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.83 * n * n * 8

    def test_fixed_pass_working_set_with_the_count_build_in_strips(self, convergence_spec,
                                                                  monkeypatch):
        # the pass and the count build it starts: f, the message triangle's
        # seven separate blocks and its strip buffer for Y, the counts on
        # their triangle (0.141 n^2 floats), the stats' strip of A and
        # tile-sized temporaries: 1.96 n^2 floats at n = 1024 in eight
        # strips, where the n x n counts (0.25 n^2 floats) read 2.07
        n = 1024
        monkeypatch.setattr(sbm, "_STRIP_ENTRIES", 128 * n)  # 8 strips, as at n = 4096
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        tracemalloc.start()
        try:
            gmpnn_pair(g, stats, fixed_psi_mpnn(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        starts = range(0, n, 128)
        f, strips = 8 * n * n, 2 * 8 * 128 * n
        messages = sum(8 * 128 * (n - s) for s in starts[:-1])
        counts = sum(2 * 128 * (n - s) for s in starts)
        assert stats.common_neighbors.nbytes == counts
        assert peak <= f + messages + counts + strips + 2 ** 18

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

    def test_matches_block_loop_oracle_with_nets(self, convergence_spec):
        # msg(x, y) != msg(y, x): the oracle tells msg(F_ab, F_ac) from
        # msg(F_ac, F_ac), every layer; widths 1 -> 2 -> 3 from the S start
        layers = []
        for t, (f_in, h, f_out) in enumerate(((1, 2, 2), (2, 3, 3))):
            msg = NetFunction(init_net([2 * f_in, 4, h], seed=8, tag=f"m{t}"))
            upd = NetFunction(init_net([f_in + h, 4, f_out], seed=8, tag=f"u{t}"))
            layers.append((msg, upd))
        x, y = np.array([0.3, -0.2]), np.array([0.7, 0.1])
        assert not np.allclose(layers[1][0](x, y), layers[1][0](y, x))
        for aggregation in ("neighbor_average", "n_normalized_sum"):
            mpnn = Mpnn(layers=tuple(layers), aggregation=aggregation)
            trace = cmpnn_pair_sbm(convergence_spec, mpnn, init=convergence_spec.S,
                                   return_layers=True)
            expected = cmpnn_pair_oracle(convergence_spec.block_mass, convergence_spec.S,
                                         convergence_spec.S[:, :, None], layers)
            assert len(trace) == len(expected) == 3
            for got, want in zip(trace, expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_single_block_reaches_edge_probability_in_one_step(self):
        p = 0.37
        spec = SbmSpec(block_mass=[1.0], S=[[p]], B=[[1.0]])
        out = cmpnn_pair_sbm(spec, fixed_psi_mpnn(1))
        assert out[0, 0, 0] == pytest.approx(p, abs=1e-15)

    def test_ones_init_converges_to_edge_probabilities(self, convergence_spec):
        out = cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(50))
        assert np.max(np.abs(out[:, :, 0] - convergence_spec.S)) < 1e-6

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    @pytest.mark.parametrize("learn", [False, True])
    @pytest.mark.parametrize("model", ["convergence_spec", "linkpred_spec"])
    def test_symmetry_exact_every_layer(self, request, model, learn, T):
        # the recursion runs on the a <= b states and returns their mirror:
        # the states were off by up to 1.1e-16 when both halves were updated
        spec = request.getfixturevalue(model)
        mpnn = learnable_psi_mpnn(T, hidden=5, seed=T) if learn else fixed_psi_mpnn(T)
        for init in (None, spec.S):
            trace = cmpnn_pair_sbm(spec, mpnn, init=init, return_layers=True)
            assert len(trace) == T + 1
            for f in trace:
                assert np.array_equal(f, f.transpose(1, 0, 2))
            assert np.array_equal(cmpnn_pair_sbm(spec, mpnn, init=init), trace[-1])

    def test_asymmetric_init_is_rejected(self, convergence_spec):
        init = convergence_spec.S.copy()
        init[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(1), init=init)

    @pytest.mark.parametrize("shape", [(3, 3, 1, 2), (3, 3, 2), (3, 2), (3,)])
    def test_init_of_another_shape_is_rejected(self, convergence_spec, shape):
        with pytest.raises(ValueError, match=r"init must be \(3, 3, 1\)"):
            cmpnn_pair_sbm(convergence_spec, fixed_psi_mpnn(1), init=np.ones(shape))

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
