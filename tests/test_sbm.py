import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphon_mpnn import (
    SbmSpec,
    SpecValidationError,
    graph_stats,
    graphon_common_neighbors,
    graphon_degree,
    isomorphic_block_pairs,
    sample_graph,
    validate_sbm,
)
from graphon_mpnn.pair_mpnn import _TILE as TILE, pair_message_weights
from graphon_mpnn.rng import stream
from graphon_mpnn.sbm import read_spec_file, write_edge_list, write_spec_file

from oracles import common_neighbors_oracle, message_weights_oracle, sample_graph_oracle


def graph_from_adjacency(adj):
    adj = np.asarray(adj, dtype=float)
    n = adj.shape[0]
    from graphon_mpnn.sbm import SampledGraph, _freeze

    return SampledGraph(
        n=n,
        positions=_freeze(np.linspace(0, 1, n, endpoint=False)),
        block_of=_freeze(np.zeros(n, dtype=int)),
        adjacency=_freeze(adj),
        node_features=_freeze(np.ones((n, 1))),
        seed=0,
    )


def graph_with_isolated_node(spec, n):
    """An n-node graph of ``spec`` whose node 0 has no edge, so that its
    pairs share no neighbor."""
    adj = sample_graph(spec, n, seed=2).adjacency.copy() if n > 1 else np.zeros((1, 1))
    adj[0, :] = adj[:, 0] = 0.0
    return graph_from_adjacency(adj)


class TestValidation:
    def test_reference_model_degrees(self, convergence_spec):
        report = validate_sbm(convergence_spec)
        np.testing.assert_allclose(
            graphon_degree(convergence_spec), [0.2615, 0.1, 0.2615], atol=1e-15
        )
        assert report.ok and report.node_use_ok and report.pair_use_ok
        assert report.d_min == pytest.approx(0.1)

    def test_single_block(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.3]], B=[[1.0]])
        report = validate_sbm(spec)
        assert report.d_min == pytest.approx(0.3)
        assert report.d_cmin == pytest.approx(0.09)

    def test_d_cmin_matches_triple_loop(self, convergence_spec):
        report = validate_sbm(convergence_spec)
        oracle = common_neighbors_oracle(
            convergence_spec.block_mass, convergence_spec.S
        )
        assert report.d_cmin == pytest.approx(oracle.min(), abs=1e-15)
        np.testing.assert_allclose(
            graphon_common_neighbors(convergence_spec), oracle, atol=1e-15
        )

    def test_violations_are_listed(self):
        spec = SbmSpec(
            block_mass=[0.6, 0.6], S=[[0.5, 1.5], [0.2, 0.5]], B=np.ones((2, 1))
        )
        report = validate_sbm(spec)
        assert not report.ok
        text = " ".join(report.violations)
        assert "sum to 1" in text
        assert "symmetric" in text
        assert "[0, 1]" in text

    def test_nan_entries_are_violations(self):
        spec = SbmSpec(block_mass=[np.nan, np.nan], S=[[0.5, np.nan], [np.nan, 0.5]],
                       B=np.ones((2, 1)))
        text = " ".join(validate_sbm(spec).violations)
        assert "strictly positive" in text
        assert "sum to 1" in text
        assert "[0, 1]" in text
        with pytest.raises(SpecValidationError):
            spec.require_valid()

    def test_disjoint_blocks_fail_pairwise_use(self):
        spec = SbmSpec(block_mass=[0.5, 0.5], S=np.eye(2), B=np.ones((2, 1)))
        report = validate_sbm(spec)
        assert report.ok
        assert graphon_common_neighbors(spec)[0, 1] == 0.0
        assert not report.pair_use_ok
        with pytest.raises(SpecValidationError):
            spec.require_valid(pairwise=True)


class TestDegree:
    def test_all_ones_graphon(self):
        spec = SbmSpec(block_mass=[0.3, 0.7], S=np.ones((2, 2)), B=np.ones((2, 1)))
        np.testing.assert_allclose(graphon_degree(spec), [1.0, 1.0])
        np.testing.assert_allclose(graphon_common_neighbors(spec), np.ones((2, 2)))

    def test_hand_sum(self):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.8, 0.2], [0.2, 0.4]], B=np.ones((2, 1))
        )
        np.testing.assert_allclose(graphon_degree(spec), [0.5, 0.3])

    @given(
        r=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_common_neighbors_identity(self, r, seed):
        rng = np.random.default_rng(seed)
        mass = rng.dirichlet(np.ones(r))
        S = rng.uniform(0.05, 0.95, size=(r, r))
        S = (S + S.T) / 2
        spec = SbmSpec(block_mass=mass, S=S, B=np.ones((r, 1)))
        np.testing.assert_allclose(
            graphon_common_neighbors(spec),
            common_neighbors_oracle(mass, S),
            atol=1e-14,
        )


class TestSampling:
    def test_deterministic(self, convergence_spec):
        g1 = sample_graph(convergence_spec, 64, seed=9)
        g2 = sample_graph(convergence_spec, 64, seed=9)
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.positions, g2.positions)
        assert np.array_equal(g1.node_features, g2.node_features)

    def test_all_ones_gives_complete_graph(self):
        spec = SbmSpec(block_mass=[1.0], S=[[1.0]], B=[[2.0]])
        g = sample_graph(spec, 10, seed=0)
        expected = np.ones((10, 10)) - np.eye(10)
        assert np.array_equal(g.adjacency, expected)
        assert np.all(g.node_features == 2.0)

    def test_block_assignment_matches_positions(self, convergence_spec):
        g = sample_graph(convergence_spec, 500, seed=4)
        bounds = convergence_spec.boundaries
        lo = np.concatenate([[0.0], bounds[:-1]])
        assert np.all(g.positions >= lo[g.block_of])
        assert np.all(g.positions < bounds[g.block_of])

    def test_empirical_degree_matches_model(self, convergence_spec):
        means = []
        for seed in range(10):
            g = sample_graph(convergence_spec, 4096, seed=seed)
            d = g.adjacency.mean(axis=1)
            means.append(d[g.block_of == 0].mean())
        assert abs(np.mean(means) - 0.2615) < 0.02

    def test_block_frequencies_converge(self, convergence_spec):
        for seed in range(5):
            g = sample_graph(convergence_spec, 10_000, seed=seed)
            freq = np.bincount(g.block_of, minlength=3) / 10_000
            assert np.max(np.abs(freq - convergence_spec.block_mass)) <= 0.05

    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 300])
    def test_matches_row_by_row_oracle(self, convergence_spec, linkpred_spec, n):
        for spec in (convergence_spec, linkpred_spec):
            for seed in (0, 1, 6):
                g = sample_graph(spec, n, seed=seed)
                block_of, adj = sample_graph_oracle(
                    spec.block_mass.tolist(), spec.S.tolist(), n,
                    stream(seed, "positions"), stream(seed, "edges"))
                assert np.array_equal(g.block_of, block_of)
                assert np.array_equal(g.adjacency, adj)
                assert np.array_equal(g.adjacency, g.adjacency.T)
                assert np.all(np.diag(g.adjacency) == 0.0)

    def test_rejects_tiny_n(self, convergence_spec):
        from graphon_mpnn import PreconditionError

        with pytest.raises(PreconditionError):
            sample_graph(convergence_spec, 1, seed=0)


class TestIsomorphicBlocks:
    def test_reference_model(self, convergence_spec):
        assert isomorphic_block_pairs(convergence_spec) == [(0, 2)]

    def test_single_block(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.4]], B=[[1.0]])
        assert isomorphic_block_pairs(spec) == []

    def test_two_equal_blocks(self):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.6, 0.1], [0.1, 0.6]], B=np.ones((2, 1))
        )
        assert isomorphic_block_pairs(spec) == [(0, 1)]

    def test_signal_mismatch_breaks_pair(self):
        spec = SbmSpec(
            block_mass=[0.5, 0.5], S=[[0.6, 0.1], [0.1, 0.6]], B=[[1.0], [2.0]]
        )
        assert isomorphic_block_pairs(spec) == []


class TestGraphStats:
    """GraphStats holds exact counts; pair_message_weights derives 1/(2n c)
    from them with the 1/n fallback where a pair shares no neighbor."""

    def test_path_graph(self):
        g = graph_from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        stats = graph_stats(g)
        assert np.array_equal(stats.degree_counts, [1.0, 2.0, 1.0])
        assert stats.common_neighbors[0, 2] == 1.0
        w = pair_message_weights(stats)
        assert w[0, 2] == pytest.approx(1 / (2 * 3 * (1 / 3)))
        # nodes 0 and 1 share no neighbor: c falls back to 1/n
        assert stats.common_neighbors[0, 1] == 0.0
        assert w[0, 1] == 1.0 / (2.0 * 3 * (1 / 3))

    def test_empty_graph_fallback(self):
        g = graph_from_adjacency(np.zeros((5, 5)))
        stats = graph_stats(g)
        assert np.all(stats.degree_counts == 0.0)
        assert np.all(stats.common_neighbors == 0.0)
        assert np.all(pair_message_weights(stats)[...] == 1.0 / (2.0 * 5 * (1 / 5)))

    def test_complete_graph(self):
        adj = np.ones((4, 4)) - np.eye(4)
        stats = graph_stats(graph_from_adjacency(adj))
        assert np.all(stats.degree_counts == 3.0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(stats.common_neighbors[off] == 2.0)
        np.testing.assert_allclose(pair_message_weights(stats)[off],
                                   1 / (2 * 4 * (2 / 4)))

    @pytest.mark.parametrize("n", [3, 129, 300])
    def test_common_neighbors_are_exact_counts(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=2)
        stats = graph_stats(g)
        c = stats.common_neighbors
        a = g.adjacency.astype(np.int64)
        assert c.dtype == np.float32
        assert not c.flags.writeable
        assert np.array_equal(c, a @ a)
        assert np.array_equal(stats.degree_counts, a.sum(axis=1))
        assert stats.degree_counts.dtype == np.float64

    @pytest.mark.parametrize("n", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
    def test_pair_message_weights_in_fraction_order(self, convergence_spec, n):
        # W is formed from the float32 counts where it is read: at tiles,
        # row strips, rows and pairs it equals the full-array formula
        # bitwise, the 1/n fallback included (node 0 is isolated)
        g = graph_with_isolated_node(convergence_spec, n)
        expected = message_weights_oracle(g.adjacency)
        w = pair_message_weights(graph_stats(g))
        assert (w.counts == 0).any()
        assert np.array_equal(w[...], expected)
        for lo in range(0, n, TILE):
            rows = slice(lo, lo + TILE)
            assert np.array_equal(w[rows], expected[rows])
            for lo2 in range(0, n, TILE):
                cols = slice(lo2, lo2 + TILE)
                assert np.array_equal(w[rows, cols], expected[rows, cols])
        for i in range(n):
            assert np.array_equal(w[i], expected[i])
        pairs = np.random.default_rng(n).integers(0, n, size=(500, 2))
        pairs[:n, 0] = pairs[:n, 1] = 0  # pairs of the isolated node
        assert np.array_equal(w[pairs[:, 0], pairs[:, 1]], expected[pairs[:, 0], pairs[:, 1]])
        x = np.random.default_rng(0).normal(size=(n, n))
        assert np.array_equal(w.scale(x.copy()), x * expected)
        counts = np.arange(n + 1)
        assert np.array_equal(w.of(counts),
                              1 / (2.0 * n * np.where(counts > 0, counts / n, 1 / n)))


class TestSerialization:
    def test_round_trip(self, tmp_path, convergence_spec):
        path = tmp_path / "model.sbm"
        write_spec_file(convergence_spec, path)
        loaded = read_spec_file(path)
        np.testing.assert_array_equal(loaded.S, convergence_spec.S)
        np.testing.assert_array_equal(loaded.block_mass, convergence_spec.block_mass)
        np.testing.assert_array_equal(loaded.B, convergence_spec.B)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.sbm"
        path.write_text("r = 2\n")
        with pytest.raises(SpecValidationError):
            read_spec_file(path)

    @pytest.mark.parametrize("n", [2, 3, 129, 300])
    def test_edge_list_is_the_upper_triangle_row_major(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=4)
        iu, ju = np.triu_indices(n, k=1)
        upper = g.adjacency[iu, ju] > 0
        edges = g.edge_list()
        assert edges.dtype == np.intp
        assert np.array_equal(edges, np.column_stack([iu[upper], ju[upper]]))
        assert g.with_adjacency(np.zeros((n, n))).edge_list().shape == (0, 2)

    def test_edge_list_builds_no_pair_index_arrays(self, convergence_spec):
        # row strips: the result and its strips, where the n^2 / 2
        # triu_indices pair and mask peaked at 6 times the result
        g = sample_graph(convergence_spec, 600, seed=0)
        tracemalloc.start()
        try:
            edges = g.edge_list()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * edges.nbytes

    def test_edge_list_format(self, tmp_path):
        g = graph_from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        edges = tmp_path / "edges.txt"
        blocks = tmp_path / "blocks.txt"
        assert write_edge_list(g, edges, blocks) == 2
        assert edges.read_text() == "0 1\n1 2\n"
        assert blocks.read_text() == "0\n0\n0\n"
