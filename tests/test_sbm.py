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
from graphon_mpnn.cli import _stability_point
from graphon_mpnn.linkpred import (RunTableConfig, _hide_edges, run_table,
                                   sample_across_block_nonedges)
from graphon_mpnn.mpnn import Mpnn, NetFunction, graphsage_mpnn
from graphon_mpnn.nn import init_net
from graphon_mpnn.node_mpnn import gmpnn_node
from graphon_mpnn.pair_mpnn import (_TILE as TILE, PairGraph, fixed_psi_mpnn, gmpnn_pair,
                                    learnable_psi_mpnn, pair_message_weights)
from graphon_mpnn import sbm
from graphon_mpnn.rng import stream
from graphon_mpnn.sbm import (
    _CN_ROWS,
    _MIRROR_ROWS,
    _STRIP_ENTRIES,
    BlockPairPool,
    SampledGraph,
    read_spec_file,
    write_edge_list,
)

from oracles import (common_neighbors_oracle, count_matrix, edge_list, message_weights_oracle,
                     sample_graph_oracle, with_adjacency, write_edge_list_oracle,
                     write_spec_file)


def graph_from_adjacency(adj):
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    from graphon_mpnn.sbm import _freeze

    return SampledGraph(
        n=n,
        positions=_freeze(np.linspace(0, 1, n, endpoint=False)),
        block_of=_freeze(np.zeros(n, dtype=int)),
        bits=_freeze(np.packbits(adj, axis=1)),
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

    # 255 and 385: n % 8 != 0, so a row's last byte is part pad, in the
    # strip's rows and in the mirrored rows below each strip
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 255, 300, 385])
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

    @pytest.mark.parametrize("n", [3, 129, 500])
    def test_integer_thresholds_at_probabilities_0_and_1(self, n):
        # the sampler compares raw words with ceil(p 2**53): p = 1 is the
        # threshold 2**53, which every word passes, p = 0 is 0, which none
        # does, and 2**-53 passes only a zero word
        S = [[1.0, 0.0, 2.0 ** -53], [0.0, 0.0, 1.0], [2.0 ** -53, 1.0, 1.0 - 2.0 ** -53]]
        spec = SbmSpec(block_mass=[0.3, 0.3, 0.4], S=S, B=np.ones((3, 1)))
        g = sample_graph(spec, n, seed=3)
        block_of, adj = sample_graph_oracle(spec.block_mass.tolist(), S, n,
                                            stream(3, "positions"), stream(3, "edges"))
        assert np.array_equal(g.adjacency, adj)
        first, second = g.block_of == 0, g.block_of == 1
        assert np.all(g.adjacency[np.ix_(first, first)] == ~np.eye(first.sum(), dtype=bool))
        assert not g.adjacency[np.ix_(first, second)].any()
        assert not g.adjacency[np.ix_(second, second)].any()
        assert np.all(g.adjacency[np.ix_(second, ~first & ~second)])

    @pytest.mark.parametrize("n", [300, 385])
    def test_adjacency_is_one_bit_per_pair(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=0)
        assert g.bits.dtype == np.uint8 and not g.bits.flags.writeable
        assert g.bits.nbytes == n * ((n + 7) // 8)
        assert np.array_equal(g.bits, np.packbits(g.adjacency, axis=1))  # pad bits are 0
        assert g.adjacency.dtype == bool and not g.adjacency.flags.writeable
        for lo, hi in ((0, 1), (5, 133), (n - 3, n + 10)):
            assert np.array_equal(g.rows(lo, hi), g.adjacency[lo:hi])
        out = np.full((n - 7, n), np.nan)
        assert np.array_equal(g.rows(7, n, out=out), g.adjacency[7:])

    def test_working_set_is_the_packed_adjacency_and_one_strip(self, convergence_spec):
        # the n^2 / 8 bytes of the result, then per node a 128-row bool
        # strip, its mirrored part's transpose and row-sized temporaries:
        # 0.125 n^2 + 324 n bytes at n = 1024 (0.44 n^2), where the bool
        # sampler held 1.23 n^2 and the float64 one 8 n^2
        n = 1024
        sample_graph(convergence_spec, 16, seed=0)  # first-call imports
        tracemalloc.start()
        try:
            sample_graph(convergence_spec, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n / 8 + 330 * n

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


class TestBlockPairPool:
    def test_numbering_is_i_major_in_the_given_order(self, convergence_spec):
        g = sample_graph(convergence_spec, 40, seed=2)
        block_pairs = [(2, 0), (1, 1), (0, 1)]
        listed = [(i, j) for a, b in block_pairs
                  for i in range(g.n) if g.block_of[i] == a
                  for j in range(g.n) if g.block_of[j] == b]
        pool = BlockPairPool(g, block_pairs)
        assert pool.size == len(listed)
        i, j = pool.pairs(np.arange(pool.size))
        assert list(zip(i.tolist(), j.tolist())) == listed
        flat = np.random.default_rng(0).permutation(pool.size)[:25]
        i, j = pool.pairs(flat)
        assert list(zip(i.tolist(), j.tolist())) == [listed[k] for k in flat]

    def test_empty_block_takes_no_index(self):
        pool = BlockPairPool(graph_from_adjacency(np.zeros((4, 4))), [(0, 1), (0, 0)])
        assert pool.size == 16 and pool.offsets.tolist() == [0, 0, 16]
        i, j = pool.pairs([0, 6, 15])
        assert i.tolist() == [0, 1, 3] and j.tolist() == [0, 2, 3]


class TestWithAdjacency:
    """The oracle helper with_adjacency stores a bool copy of a symmetric
    0/1 matrix with a zero diagonal and rejects any other matrix."""

    def test_stores_a_bool_copy(self, convergence_spec):
        g = sample_graph(convergence_spec, 20, seed=1)
        a = g.adjacency.astype(float)
        a[0, :] = a[:, 0] = 0.0
        h = with_adjacency(g, a)
        assert h.adjacency.dtype == bool and not h.adjacency.flags.writeable
        assert np.array_equal(h.adjacency, a)
        a[1, 2] = a[2, 1] = 1.0 - a[1, 2]  # the caller's array stays its own
        assert not np.array_equal(h.adjacency, a)

    @pytest.mark.parametrize("name", ["weights", "nan", "asymmetric", "diagonal",
                                      "not square", "other size", "three axes"])
    def test_rejects(self, convergence_spec, name):
        g = sample_graph(convergence_spec, 20, seed=1)
        a = g.adjacency.astype(float)
        if name == "weights":
            a[a == 1.0] = 0.5
        elif name == "nan":
            a[0, 1] = a[1, 0] = np.nan
        elif name == "asymmetric":
            a[0, 1], a[1, 0] = 1.0, 0.0
        elif name == "diagonal":
            a[3, 3] = 1.0
        elif name == "not square":
            a = a[:, :19]
        elif name == "other size":
            a = np.zeros((21, 21))
        else:
            a = a[:, :, None]
        with pytest.raises(ValueError):
            with_adjacency(g, a)


class TestProduct:
    """GraphStats.product widens the packed adjacency strip by strip, in
    strips of ``strip_height`` rows: a thin product (fewer than
    _MIRROR_ROWS columns) reads 2 to 4 MiB strips of at most _MIRROR_ROWS
    rows, a square one strips of 2^21 entries, or of one sixteenth of the
    graph past n = 5792. It is the whole-matrix product bit for bit where one
    strip covers the graph and at every size a benchmark workload runs,
    the strips every product read before bit for bit at n = 4096 and 8192,
    and within rounding elsewhere."""

    @staticmethod
    def products(convergence_spec, n, width):
        g = sample_graph(convergence_spec, n, seed=0)
        x = np.random.default_rng(width).standard_normal((n, width))
        return graph_stats(g).product(x), g.adjacency.astype(float) @ x

    @staticmethod
    def strips(g, x, rows):
        return np.concatenate([g.rows(lo, lo + rows).astype(float) @ x
                               for lo in range(0, g.n, rows)])

    @pytest.mark.parametrize("n", [131, 500, 1024])
    def test_one_strip_is_the_whole_matrix(self, convergence_spec, n):
        assert n * n <= _STRIP_ENTRIES
        for width in (1, 8):
            got, want = self.products(convergence_spec, n, width)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, width", [(2000, 1), (2000, 8), (4096, 1), (4096, 8),
                                          (2048, 2048)])
    def test_strips_at_workload_sizes_are_bitwise(self, convergence_spec, n, width):
        assert n * n > _STRIP_ENTRIES
        got, want = self.products(convergence_spec, n, width)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1449, 3000])
    def test_strips_elsewhere_agree_to_rounding(self, convergence_spec, n):
        assert n * n > _STRIP_ENTRIES
        for width in (1, 8):
            got, want = self.products(convergence_spec, n, width)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    # thin strips hold 2^18 entries, and 2^20 multiply-adds from two
    # columns on, in a power of two rows from 8 to 128; square strips hold
    # 2^21 entries through n = 5792 and n / 16 rows beyond
    @pytest.mark.parametrize("n, rows, narrow, square", [
        (2000, 128, 128, 1048), (4096, 64, 128, 512), (5000, 64, 128, 419),
        (8192, 32, 64, 512), (32768, 8, 16, 2048), (65536, 8, 8, 4096)])
    def test_strip_height_follows_the_kind_and_n(self, n, rows, narrow, square):
        assert [sbm.strip_height(n, w) for w in (1, 4, 8, _MIRROR_ROWS - 1)] == [rows] * 4
        assert [sbm.strip_height(n, w) for w in (2, 3)] == [narrow] * 2
        assert sbm.strip_height(n, _MIRROR_ROWS) == sbm.strip_height(n, n) == square

    def test_square_strips_grow_past_5792(self):
        # 2^21 entries give 362 rows at n = 5792 and 361 at 5808
        assert [sbm.strip_height(n, _MIRROR_ROWS) for n in (5792, 5808, 5824)] == [362, 363, 364]

    # the strip of 128 rows at n = 2000 (2.0 MB) and of 32 at 8192 (2 MiB),
    # the output and one strip's bool unpack; a strip of strip_rows rows
    # (1048) is 16.8 MB at n = 2000, and the 128-row strip 8 MiB at 8192
    @pytest.mark.parametrize("n, rows", [(2000, 128), (8192, 32)])
    def test_thin_product_holds_one_short_strip(self, convergence_spec, n, rows):
        width = 8
        stats = graph_stats(sample_graph(convergence_spec, n, seed=0))
        x = np.random.default_rng(0).standard_normal((n, width))
        tracemalloc.start()
        try:
            stats.product(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 * rows + rows + 8 * width) * n + 16384

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_thin_strips_are_the_128_row_strips(self, convergence_spec, n):
        # the whole float64 matrix is 512 MiB at n = 8192, so the reference
        # is built from the 128-row strips that every thin product read
        # before; the strips are 64 rows at n = 4096 and 32 at 8192
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        assert sbm.strip_height(n, 1) < _MIRROR_ROWS
        for width in (1, 2, 8, 16):
            x = np.random.default_rng(width).standard_normal((n, width))
            assert np.array_equal(stats.product(x), self.strips(g, x, 128))

    def test_square_strips_at_8192_are_the_256_row_strips(self, convergence_spec):
        # 512-row strips, where every square product read 256 rows before;
        # x is 8 and 16 MiB and no n x n operand is built
        n = 8192
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        assert stats.strip_rows == 512
        for width in (128, 256):
            x = np.random.default_rng(width).standard_normal((n, width))
            assert np.array_equal(stats.product(x), self.strips(g, x, 256))

    @pytest.mark.parametrize("n", [2000, 4096])
    def test_thin_and_square_products_share_the_strip_buffer(self, convergence_spec, n):
        # thin, square (_MIRROR_ROWS columns or more), thin: the buffer
        # grows for the square product and each strip is widened anew;
        # the heights are 128 and 1048 rows at n = 2000, 64 and 512 at 4096
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        rng = np.random.default_rng(0)
        for width in (8, _MIRROR_ROWS, 1):
            x = rng.standard_normal((n, width))
            assert np.array_equal(stats.product(x), graph_stats(g).product(x))

    def test_writes_into_strided_out(self, convergence_spec):
        n = 1500
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        x = np.random.default_rng(0).standard_normal((n, 3))
        want = stats.product(x)
        out = np.full((n, 5), np.nan)
        stats.product(x, out=out[:, 1:4])  # strided columns, as the engines write
        assert np.array_equal(out[:, 1:4], want)
        assert np.isnan(out[:, [0, 4]]).all()


class TestGraphStats:
    """GraphStats holds exact counts; pair_message_weights derives 1/(2n c)
    from them with the 1/n fallback where a pair shares no neighbor."""

    def test_path_graph(self):
        g = graph_from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        stats = graph_stats(g)
        assert np.array_equal(stats.degree_counts, [1.0, 2.0, 1.0])
        assert count_matrix(stats)[0, 2] == 1.0
        w = pair_message_weights(stats)
        assert w[0, 2] == pytest.approx(1 / (2 * 3 * (1 / 3)))
        # nodes 0 and 1 share no neighbor: c falls back to 1/n
        assert count_matrix(stats)[0, 1] == 0.0
        assert w[0, 1] == 1.0 / (2.0 * 3 * (1 / 3))

    def test_empty_graph_fallback(self):
        g = graph_from_adjacency(np.zeros((5, 5)))
        stats = graph_stats(g)
        assert np.all(stats.degree_counts == 0.0)
        assert np.all(stats.common_neighbors == 0.0)
        assert np.all(pair_message_weights(stats)[:, :] == 1.0 / (2.0 * 5 * (1 / 5)))

    def test_complete_graph(self):
        adj = np.ones((4, 4)) - np.eye(4)
        stats = graph_stats(graph_from_adjacency(adj))
        assert np.all(stats.degree_counts == 3.0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(count_matrix(stats)[off] == 2.0)
        np.testing.assert_allclose(pair_message_weights(stats)[:, :][off],
                                   1 / (2 * 4 * (2 / 4)))

    @pytest.mark.parametrize("n", [3, 129, 300])
    def test_common_neighbors_are_exact_counts(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=2)
        stats = graph_stats(g)
        c = stats.common_neighbors
        a = g.adjacency.astype(np.int64)
        assert c.dtype == np.uint16  # two bytes per pair: every count is at most n - 1
        assert not c.flags.writeable
        assert np.array_equal(count_matrix(stats), a @ a)
        assert np.array_equal(stats.degree_counts, a.sum(axis=1))
        assert stats.degree_counts.dtype == np.float64

    @pytest.mark.parametrize("n", [511, 1023, 1024, 1025, 2500])
    def test_common_neighbors_in_row_blocks_are_exact(self, convergence_spec, n):
        # one block; two blocks, the last one row short; two full blocks;
        # two blocks and a one-row block; five blocks, the last part full
        assert _CN_ROWS == 512
        g = sample_graph(convergence_spec, n, seed=2)
        a = g.adjacency.astype(np.float64)
        assert np.array_equal(count_matrix(graph_stats(g)), a @ a)

    # strips of 37 rows cross the cuts of the 100-row blocks the counts are
    # built from, strips of 128 rows hold the blocks' cuts inside, strips
    # of 100 rows meet them and leave a last strip of 33, and one strip
    # holds the whole counts
    @pytest.mark.parametrize("n, rows", [(300, 37), (300, 128), (333, 100), (150, 150)])
    def test_counts_on_the_triangle_in_strips(self, convergence_spec, monkeypatch, n, rows):
        monkeypatch.setattr(sbm, "_CN_ROWS", 100)
        monkeypatch.setattr(sbm, "_STRIP_ENTRIES", rows * n)
        g = graph_with_isolated_node(convergence_spec, n)
        a = g.adjacency.astype(np.int64)
        cn = a @ a
        stats = graph_stats(g)
        flat = stats.common_neighbors
        assert stats.strip_rows == rows and flat.ndim == 1 and not flat.flags.writeable
        assert len(flat) == sum(min(rows, n - s) * (n - s) for s in range(0, n, rows))
        assert np.array_equal(count_matrix(stats), cn)
        # read like the n x n counts: tiles, some across a strip's cut, row
        # strips, rows and pairs; a tile in one strip right of its start
        # is a view
        counts = sbm.CountTriangle(n, rows, flat)
        for lo in range(0, n, TILE):
            r = slice(lo, lo + TILE)
            assert np.array_equal(counts[r], cn[r])
            for lo2 in range(0, n, TILE):
                c = slice(lo2, lo2 + TILE)
                assert np.array_equal(counts[r, c], cn[r, c])
        for s in range(0, n, rows):
            r = slice(s, min(s + rows, n))
            assert np.shares_memory(counts[r, s:], flat)
            assert np.array_equal(counts[r, s:], cn[r, s:])
        for i in range(n):
            assert np.array_equal(counts[i], cn[i])
        pairs = np.random.default_rng(n).integers(0, n, size=(2000, 2))
        assert np.array_equal(counts[pairs[:, 0], pairs[:, 1]], cn[pairs[:, 0], pairs[:, 1]])
        assert counts[n:, :].shape == (0, n) and counts[:0, 5:9].shape == (0, 4)

    def test_common_neighbors_hold_two_row_blocks(self, convergence_spec):
        # beyond the uint16 counts on the triangle in two strips of 1024
        # rows (6 MiB), two float32 row blocks of _CN_ROWS rows, one float32
        # block result and one 128-row bool strip unpacked into a block:
        # 15.3 MiB at n = 2048, where the n x n counts read 17.3 (28.3 in
        # blocks of 1024 rows) and the whole-matrix syrk held A and the
        # counts in float32, 32 MiB
        n = 2048
        g = sample_graph(convergence_spec, n, seed=0)
        stats = graph_stats(g)
        rows = stats.strip_rows
        assert rows == 1024
        triangle = 2 * sum(min(rows, n - s) * (n - s) for s in range(0, n, rows))
        tracemalloc.start()
        try:
            stats.common_neighbors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.common_neighbors.nbytes == triangle == 6 * 2 ** 20
        assert peak <= triangle + 2 * 4 * _CN_ROWS * n + 4 * _CN_ROWS ** 2 + 128 * n + 2 ** 16

    @pytest.mark.parametrize("n, rows, strip", [(1, None, None), (600, None, None),
                                                (333, 100, None), (333, 100, 70)])
    def test_common_neighbor_blocks_cover_the_upper_triangle(self, convergence_spec,
                                                             monkeypatch, n, rows, strip):
        # streamed from row-block products, or read from the built counts'
        # triangle (in one strip, or in strips of 70 rows), the blocks are
        # the counts' blocks at lo <= lo2, and with their mirrors they are
        # every count once
        if rows is not None:
            monkeypatch.setattr(sbm, "_CN_ROWS", rows)
        if strip is not None:
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip * n)
        g = graph_with_isolated_node(convergence_spec, n)
        a = g.adjacency.astype(np.int64)
        stats = graph_stats(g)
        for built in (False, True):
            seen = np.zeros((n, n), dtype=int)
            for lo, lo2, c in stats.common_neighbor_blocks():
                assert lo <= lo2 and c.dtype == (np.uint16 if built else np.float32)
                block = np.s_[lo : lo + c.shape[0], lo2 : lo2 + c.shape[1]]
                assert np.array_equal(c, (a @ a)[block])
                seen[block] += 1
                if lo2 > lo:
                    seen[block[::-1]] += 1
            assert (seen == 1).all()
            assert (stats._common is not None) == built
            stats.common_neighbors

    @pytest.mark.parametrize("n", [1500, 4100])
    def test_degrees_are_counted_in_strips(self, convergence_spec, n):
        # the degrees, a popcount of _MIRROR_ROWS rows of bytes at a time
        # and the reduction's 64 KiB cast buffer: 162 KB at n = 4100, where
        # a popcount of every byte held n^2 / 8 bytes, 2.1 MB; the stats
        # widen no strip of the adjacency where one strip does not cover it
        g = sample_graph(convergence_spec, n, seed=1)
        tracemalloc.start()
        try:
            stats = graph_stats(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.strip_rows < n
        assert np.array_equal(stats.degree_counts, g.adjacency.sum(axis=1))
        assert peak <= 8 * n + _MIRROR_ROWS * (-(-n // 8)) + 2 ** 17

    @pytest.mark.parametrize("strip", [None, 37])
    @pytest.mark.parametrize("n", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
    def test_pair_message_weights_in_fraction_order(self, convergence_spec, monkeypatch,
                                                    n, strip):
        # W is formed from the counts where it is read: at tiles, row
        # strips, rows and pairs it equals the full-array formula bitwise,
        # the 1/n fallback included (node 0 is isolated), from the counts
        # in one strip or in strips of 37 rows, which tiles straddle
        if strip is not None:
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip * n)
        g = graph_with_isolated_node(convergence_spec, n)
        expected = message_weights_oracle(g.adjacency)
        stats = graph_stats(g)
        w = pair_message_weights(stats)
        assert (count_matrix(stats) == 0).any()
        assert np.array_equal(w[:, :], expected)
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
    def test_edge_strips_are_the_upper_triangle_row_major(self, convergence_spec, n):
        g = sample_graph(convergence_spec, n, seed=4)
        iu, ju = np.triu_indices(n, k=1)
        upper = g.adjacency[iu, ju] > 0
        strips = list(g.edge_strips())
        assert len(strips) == -(-n // _MIRROR_ROWS)
        for lo, edges in zip(range(0, n, _MIRROR_ROWS), strips):
            assert edges.dtype == np.intp and edges.shape[1] == 2
            assert np.all((edges[:, 0] >= lo) & (edges[:, 0] < lo + _MIRROR_ROWS))
        edges = np.concatenate(strips)
        assert np.array_equal(edges, np.column_stack([iu[upper], ju[upper]]))
        assert np.array_equal(g.upper_counts(), np.bincount(edges[:, 0], minlength=n))
        empty = with_adjacency(g, np.zeros((n, n)))
        assert np.concatenate(list(empty.edge_strips())).shape == (0, 2)
        assert not empty.upper_counts().any()

    def test_edge_strips_build_no_pair_index_arrays(self, convergence_spec):
        # row strips: one strip's edges, its flat indices and its unpacked
        # rows are alive at a time, 2.44 times the largest strip's edges
        # (3.5 with nonzero's index pair, the upper mask and their filtered
        # copies; the n^2 / 2 triu_indices pair and mask once peaked at 6
        # times all edges)
        g = sample_graph(convergence_spec, 600, seed=0)
        largest = max(edges.nbytes for edges in g.edge_strips())
        tracemalloc.start()
        try:
            for _ in g.edge_strips():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * largest

    def test_edge_list_format(self, tmp_path):
        g = graph_from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        edges = tmp_path / "edges.txt"
        blocks = tmp_path / "blocks.txt"
        assert write_edge_list(g, edges, blocks) == 2
        assert edges.read_text() == "0 1\n1 2\n"
        assert blocks.read_text() == "0\n0\n0\n"

    # at n = 700 the first strip's edges outgrow one formatting call's
    # _MIRROR_ROWS^2 edges
    @pytest.mark.parametrize("n, seed", [(2, 0), (129, 1), (700, 2)])
    def test_edge_list_file_matches_the_per_edge_writer(self, convergence_spec, tmp_path,
                                                        n, seed):
        g = sample_graph(convergence_spec, n, seed=seed)
        assert (max(len(e) for e in g.edge_strips()) > _MIRROR_ROWS ** 2) == (n == 700)
        written = []
        for name, write in (("strips", write_edge_list), ("oracle", write_edge_list_oracle)):
            edges, blocks = tmp_path / f"{name}_edges.txt", tmp_path / f"{name}_blocks.txt"
            count = write(g, edges, blocks)
            written.append((count, edges.read_bytes(), blocks.read_bytes()))
        assert written[0] == written[1]


    def test_edge_list_file_formats_bounded_chunks(self, convergence_spec, tmp_path):
        # one strip's edges and its unpacked rows, or one strip's edges and
        # the Python ints of _MIRROR_ROWS^2 of them: 3.29 times the largest
        # strip's edges at n = 2000 (0.93 MiB), 2.76 past 2^19 bytes, where
        # the strips' nonzero index pair read 3.9 and formatting a strip's
        # edges in one call 7.4
        g = sample_graph(convergence_spec, 2000, seed=0)
        largest = max(edges.nbytes for edges in g.edge_strips())
        tracemalloc.start()
        try:
            write_edge_list(g, tmp_path / "edges.txt", tmp_path / "blocks.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * largest + 2 ** 19


class TestWithoutEdges:
    def test_clears_both_halves_of_edges_sharing_a_byte(self, convergence_spec):
        g = sample_graph(convergence_spec, 203, seed=5)
        edges = edge_list(g)
        hidden = np.concatenate([edges[edges[:, 0] == 0], edges[::7]])  # row 0 whole
        want = g.adjacency.copy()
        want[hidden[:, 0], hidden[:, 1]] = want[hidden[:, 1], hidden[:, 0]] = False
        h = g.without_edges(hidden)
        assert np.array_equal(h.adjacency, want)
        assert np.array_equal(h.bits, np.packbits(want, axis=1))
        assert not h.bits.flags.writeable


class TestNoDenseAdjacency:
    """No reader in the package unpacks the whole adjacency: with
    ``SampledGraph.adjacency`` raising, every path still runs."""

    @pytest.fixture(autouse=True)
    def no_dense_adjacency(self, monkeypatch):
        def dense(graph):
            raise AssertionError("the package read the whole adjacency")

        monkeypatch.setattr(SampledGraph, "adjacency", property(dense))

    def test_stability_point(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 4, 4], update_hidden=5, seed=0)
        iso = isomorphic_block_pairs(convergence_spec)
        gaps = _stability_point((convergence_spec, mpnn, iso, 300, 0, 100))
        assert gaps.gaps_iso.shape == gaps.gaps_non_iso.shape == (100,)

    def test_dense_and_queried_pair_passes(self, convergence_spec):
        g = sample_graph(convergence_spec, 150, seed=0)
        pg = PairGraph(g, graph_stats(g))
        pairs = np.random.default_rng(0).integers(0, g.n, size=(40, 2))
        for mpnn in (fixed_psi_mpnn(2), learnable_psi_mpnn(2, hidden=3, seed=0)):
            dense, _ = pg.forward(mpnn)
            queried, _ = pg.forward(mpnn, pairs)
            np.testing.assert_allclose(queried, dense[pairs[:, 0], pairs[:, 1]], rtol=1e-12)
        msg = NetFunction(init_net([2, 3, 2], seed=0, tag="m"))
        upd = NetFunction(init_net([3, 3, 1], seed=0, tag="u"))
        small = sample_graph(convergence_spec, 20, seed=0)
        general = gmpnn_pair(small, graph_stats(small), Mpnn(layers=((msg, upd),)))
        assert general.shape == (20, 20, 1)

    def test_node_pass_with_a_net_message(self, convergence_spec):
        g = sample_graph(convergence_spec, 300, seed=0)
        msg = NetFunction(init_net([2, 3, 2], seed=0, tag="m"))
        upd = NetFunction(init_net([3, 3, 1], seed=0, tag="u"))
        assert gmpnn_node(g, graph_stats(g), Mpnn(layers=((msg, upd),))).shape == (300, 1)

    def test_hidden_edges_negatives_and_edge_list(self, linkpred_spec, tmp_path):
        g = sample_graph(linkpred_spec, 300, seed=0)
        rng = np.random.default_rng(0)
        observed, hidden = _hide_edges(g, 0.1, rng)
        negatives = sample_across_block_nonedges(
            observed, isomorphic_block_pairs(linkpred_spec), 50, rng)
        assert len(hidden) and negatives.shape == (50, 2)
        count = write_edge_list(observed, tmp_path / "edges.txt", tmp_path / "blocks.txt")
        assert count == sum(len(edges) for edges in g.edge_strips()) - len(hidden)

    def test_two_run_table(self, linkpred_spec):
        report = run_table(RunTableConfig(
            spec=linkpred_spec, n_train=150, n_test_ood=300, runs=2, seed=0,
            epochs_head=3, epochs_end_to_end=3, k_list=(1, 2)))
        assert np.isfinite(report.mean_std("inductive_ood", "pair_learn", "mcc")[0])
