import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from graphon_mpnn import (
    ConvergenceRecord,
    PreconditionError,
    SbmSpec,
    bound_constants,
    convergence_sweep,
    delta_node,
    delta_pair,
    gmpnn_node,
    graph_stats,
    iso_gap_stats,
    isomorphic_block_pairs,
    loglog_slope,
    sample_graph,
)
from graphon_mpnn import analysis, sbm
from graphon_mpnn.analysis import default_probability_budget
from graphon_mpnn.mpnn import Mpnn, NeighborProjection, NetFunction, graphsage_mpnn
from graphon_mpnn.nn import FeedForwardNet
from graphon_mpnn.pair_mpnn import fixed_psi_mpnn, learnable_psi_mpnn
from graphon_mpnn.rng import stream

from test_node_mpnn import TakeMessage


def loop_delta_node(values, block_values, block_of):
    """Reference: the largest coordinate gap, node by node."""
    return max(abs(values[i, h] - block_values[block_of[i], h])
               for i in range(len(block_of)) for h in range(values.shape[1]))


def loop_delta_pair(values, block_values, block_of):
    """Reference: the largest coordinate gap over pairs i != j."""
    n = len(block_of)
    return max(abs(values[i, j, h] - block_values[block_of[i], block_of[j], h])
               for i in range(n) for j in range(n) if i != j
               for h in range(values.shape[2]))


class TestDeltas:
    def test_zero_on_identical(self):
        block = np.random.default_rng(0).normal(size=(3, 2))
        block_of = np.array([2, 0, 1, 1, 0, 2])
        assert delta_node(block[block_of], block, block_of) == 0.0
        pair_block = np.random.default_rng(1).normal(size=(3, 3, 2))
        lifted = pair_block[np.ix_(block_of, block_of)]
        assert delta_pair(lifted, pair_block, block_of) == 0.0

    def test_single_perturbation(self):
        block_of = np.array([0, 1, 1, 0])
        v = np.zeros((4, 2))
        v[2, 1] = 0.3
        assert delta_node(v, np.zeros((2, 2)), block_of) == pytest.approx(0.3)

    def test_small_case_hand_value(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 3.0], [1.0, 1.0], [0.0, 0.0]])
        block = np.array([[1.5, 2.0], [0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [0.2, 0.0]])
        block_of = np.array([0, 1, 2, 3, 4])
        # row sup gaps: 0.5, 1.0, 1.0, 0.0, 0.2 -> max 1.0
        assert delta_node(a, block, block_of) == pytest.approx(1.0)
        # nodes 2 and 3 read block 0 instead: gaps 1.5, 1.5 -> max 1.5
        assert delta_node(a, block, np.array([0, 1, 0, 0, 4])) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        block_of = np.array([0, 1, 0])
        with pytest.raises(ValueError, match="shape mismatch"):
            delta_node(np.zeros((4, 2)), np.zeros((2, 2)), block_of)
        with pytest.raises(ValueError, match="shape mismatch"):
            delta_node(np.zeros((3, 2)), np.zeros((2, 3)), block_of)
        with pytest.raises(ValueError, match="shape mismatch"):
            delta_pair(np.zeros((3, 4, 1)), np.zeros((2, 2, 1)), block_of)
        with pytest.raises(ValueError, match="shape mismatch"):
            delta_pair(np.zeros((3, 3, 2)), np.zeros((2, 2, 1)), block_of)

    def test_block_count_must_cover_the_blocks(self):
        block_of = np.array([0, 2, 1])
        with pytest.raises(ValueError, match="does not cover"):
            delta_node(np.zeros((3, 1)), np.zeros((2, 1)), block_of)
        with pytest.raises(ValueError, match="does not cover"):
            delta_pair(np.zeros((3, 3, 1)), np.zeros((2, 2, 1)), block_of)

    def test_pair_excludes_diagonal_by_default(self):
        a = np.zeros((3, 3, 1))
        a[1, 1, 0] = 9.0
        a[0, 2, 0] = 0.25
        assert delta_pair(a, np.zeros((1, 1, 1)), np.zeros(3, dtype=int)) == 0.25

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strip_rows", [None, 2])
    def test_match_the_loop_reference(self, seed, strip_rows, monkeypatch):
        rng = np.random.default_rng(seed)
        n, r = 23, 4
        if strip_rows:
            # strips of 2 rows, the last of 1, each crossing the diagonal
            monkeypatch.setattr(sbm, "_STRIP_ENTRIES", strip_rows * n * 2)
        block_of = rng.permutation(np.arange(n) % r)
        node_block = rng.normal(size=(r, 2))
        pair_block = rng.normal(size=(r, r, 2))
        node_values = rng.normal(size=(n, 2))
        pair_values = rng.normal(size=(n, n, 2))
        # a planted diagonal gap larger than every other is ignored
        pair_values[n - 1, n - 1, 1] = 100.0
        assert (delta_node(node_values, node_block, block_of)
                == loop_delta_node(node_values, node_block, block_of))
        want = loop_delta_pair(pair_values, pair_block, block_of)
        assert want < 50.0
        assert delta_pair(pair_values, pair_block, block_of) == want

    def test_single_block_model(self):
        rng = np.random.default_rng(5)
        block_of = np.zeros(7, dtype=int)
        node_values, pair_values = rng.normal(size=(7, 2)), rng.normal(size=(7, 7, 2))
        node_block, pair_block = rng.normal(size=(1, 2)), rng.normal(size=(1, 1, 2))
        assert (delta_node(node_values, node_block, block_of)
                == np.max(np.abs(node_values - node_block[0])))
        assert (delta_pair(pair_values, pair_block, block_of)
                == loop_delta_pair(pair_values, pair_block, block_of))

    @given(
        a=arrays(np.float64, (5, 2), elements=st.floats(-10, 10)),
        b=arrays(np.float64, (5, 2), elements=st.floats(-10, 10)),
        c=arrays(np.float64, (5, 2), elements=st.floats(-10, 10)),
    )
    def test_metric_properties(self, a, b, c):
        # one block per node: the gap is the sup-norm distance of a and b
        own = np.arange(5)
        d_ab = delta_node(a, b, own)
        d_ba = delta_node(b, a, own)
        d_ac = delta_node(a, c, own)
        d_cb = delta_node(c, b, own)
        assert d_ab == d_ba
        assert (d_ab == 0.0) == np.array_equal(a, b)
        assert d_ab <= d_ac + d_cb + 1e-12


class TestSlopeFit:
    def _records(self, ns, deltas):
        return [ConvergenceRecord(mode="node_mean", n=n, seed=0, delta=d)
                for n, d in zip(ns, deltas)]

    def test_exact_inverse_sqrt(self):
        ns = [32, 64, 128, 256, 512]
        fit = loglog_slope(self._records(ns, [3.0 / math.sqrt(n) for n in ns]))
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_linear(self):
        ns = [10, 100, 1000]
        fit = loglog_slope(self._records(ns, [5.0 / n for n in ns]))
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_nonpositive_deltas_excluded(self, caplog):
        ns = [8, 16, 32, 64]
        recs = self._records(ns, [1.0, 0.5, 0.25, 0.125])
        recs.append(ConvergenceRecord(mode="node_mean", n=8, seed=1, delta=0.0))
        with caplog.at_level("WARNING"):
            fit = loglog_slope(recs)
        assert "non-positive" in caplog.text
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_needs_three_sizes(self):
        with pytest.raises(PreconditionError):
            loglog_slope(self._records([8, 16], [1.0, 0.5]))

    def test_median_used_per_size(self):
        recs = []
        for n in (10, 100, 1000):
            for seed, d in enumerate((1.0 / n, 2.0 / n, 30.0 / n)):
                recs.append(ConvergenceRecord("node_mean", n, seed, d))
        fit = loglog_slope(recs)
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)
        # medians 2/n give intercept ln 2; means (11/n) would give ln 11
        assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-10)


def identity_layer_mpnn():
    return Mpnn(layers=((NeighborProjection(1), TakeMessage(1)),))


class TestBoundConstants:
    def test_hand_substitution_single_identity_layer(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.0]])
        report = bound_constants(identity_layer_mpnn(), f_inf_norm=2.0,
                                 spec=spec, p=0.01, mode="node_mean", n=100)
        # growth = w_sup / d_min = 1: b1 = 0, b2 = 2
        assert report.b1 == (0.0,)
        assert report.b2 == (2.0,)
        coef = 4 * math.sqrt(2) / 0.25 + 2 * math.sqrt(2) / 0.5
        assert report.c_offset == pytest.approx(0.0)
        assert report.c_scale == pytest.approx(coef * 2.0)
        expected = (coef * 2.0 * 2.0) * math.sqrt(math.log(200 / 0.01)) / 10.0
        assert report.bound_value == pytest.approx(expected)
        assert report.contraction == (pytest.approx(math.sqrt(33.0)),)

    def test_hand_substitution_node_sum(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.0]])
        report = bound_constants(identity_layer_mpnn(), f_inf_norm=2.0,
                                 spec=spec, p=0.01, mode="node_sum", n=100)
        # no normalization: growth = w_sup = 0.5, so b1 = 0, b2 = 1.5;
        # K = sqrt(lu^2 + 2 lm^2 lu^2) and the coefficient is 2 sqrt(2)
        assert report.b1 == (0.0,)
        assert report.b2 == (1.5,)
        assert report.contraction == (math.sqrt(3.0),)
        coef = 2 * math.sqrt(2)
        assert report.c_offset == 0.0
        assert report.c_scale == pytest.approx(coef * 1.5)
        expected = (coef * 1.5 * 2.0) * math.sqrt(math.log(200 / 0.01)) / 10.0
        assert report.bound_value == pytest.approx(expected)
        # the n-condition holds at every n, where node_mean's fails at small n
        for n in (2, 100):
            assert bound_constants(identity_layer_mpnn(), 2.0, spec, p=0.01,
                                   mode="node_sum", n=n).n_condition_ok is True
        assert not bound_constants(identity_layer_mpnn(), 2.0, spec, p=0.01,
                                   mode="node_mean", n=2).n_condition_ok

    def test_zero_weight_message_net_leaves_bias_only(self):
        spec = SbmSpec(block_mass=[1.0], S=[[0.5]], B=[[1.0]])
        msg_net = FeedForwardNet([2, 1])
        msg_net.biases[0] = np.array([0.7])
        upd_net = FeedForwardNet([2, 1])
        upd_net.weights[0] = np.array([[0.5, 0.5]])
        mpnn = Mpnn(layers=((NetFunction(msg_net), NetFunction(upd_net)),))
        report = bound_constants(mpnn, 1.0, spec, p=0.01, mode="node_mean", n=64)
        assert report.c_scale == 0.0  # message Lipschitz constant is 0
        coef = 4 * math.sqrt(2) / 0.25 + 2 * math.sqrt(2) / 0.5
        assert report.c_offset == pytest.approx(1.0 * coef * 0.7)

    def test_layer_terms_recombine_to_bound(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 5, 4], seed=6)
        report = bound_constants(mpnn, 0.3, convergence_spec,
                                 mode="node_mean", n=512)
        tails = [1.0] * len(report.contraction)
        acc = 1.0
        for l in range(len(tails) - 1, -1, -1):
            tails[l] = acc
            acc *= report.contraction[l]
        recombined = sum(d * t for d, t in zip(report.layer_terms, tails))
        assert recombined == pytest.approx(report.bound_value, rel=1e-12)

    def test_pair_mode_uses_squared_log_rate(self, convergence_spec):
        mpnn = Mpnn(layers=((NeighborProjection(1), TakeMessage(1)),))
        node = bound_constants(mpnn, 1.0, convergence_spec, p=0.01,
                               mode="node_mean", n=256)
        pair = bound_constants(mpnn, 1.0, convergence_spec, p=0.01,
                               mode="pair", n=256)
        # same structure, but the pair rate carries log(2 n^2 / p) and the
        # common-neighbor minimum replaces the degree minimum
        assert pair.bound_value != node.bound_value
        d_cmin = 0.01015
        coef = 4 * math.sqrt(2) / d_cmin ** 2 + 2 * math.sqrt(2) / d_cmin
        growth = convergence_spec.w_sup / d_cmin
        b2 = 1.0 + growth
        expected = (coef * b2 * 1.0 + coef * b2 * 0.0) * math.sqrt(
            math.log(2 * 256 ** 2 / 0.01)
        ) / 16.0
        assert pair.bound_value == pytest.approx(expected, rel=1e-6)

    def test_fixed_ratio_update_is_rejected(self, convergence_spec):
        with pytest.raises(PreconditionError):
            bound_constants(fixed_psi_mpnn(1), 1.0, convergence_spec,
                            mode="pair", n=64)

    def test_default_probability_budget(self):
        mpnn = graphsage_mpnn([1, 8, 8], seed=0)
        p = default_probability_budget(mpnn)
        weight = 2 * (1 + 1) + 2 * (8 + 1)
        assert p == pytest.approx(0.01 / weight)


class TestConvergenceSweep:
    def test_single_record_plumbing(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 4, 4], seed=1)
        records = convergence_sweep(convergence_spec, mpnn, "node_mean",
                                    n_list=[32], seeds=[0])
        assert len(records) == 1
        rec = records[0]
        assert rec.mode == "node_mean" and rec.n == 32 and rec.seed == 0
        assert rec.delta > 0.0
        assert rec.bound is not None and rec.bound > rec.delta

    def test_fixed_pair_mode_has_no_bound(self, convergence_spec):
        records = convergence_sweep(convergence_spec, fixed_psi_mpnn(1),
                                    "pair_fixed", n_list=[16, 32], seeds=[0])
        assert all(r.bound is None for r in records)
        assert all(r.delta > 0.0 for r in records)

    def test_deterministic(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 4, 4], seed=1)
        a = convergence_sweep(convergence_spec, mpnn, "node_sum", [64], [3])
        b = convergence_sweep(convergence_spec, mpnn, "node_sum", [64], [3])
        assert a == b

    @pytest.mark.parametrize("mode, n", [("pair_net", 5000), ("pair_fixed", 9000)])
    def test_over_cap_size_fails_before_sampling(self, convergence_spec, monkeypatch,
                                                 mode, n):
        sampled = []
        monkeypatch.setattr(analysis, "sample_graph", lambda *args: sampled.append(args))
        mpnn = learnable_psi_mpnn(2) if mode == "pair_net" else fixed_psi_mpnn(2)
        with pytest.raises(PreconditionError, match=f"got n = {n}"):
            convergence_sweep(convergence_spec, mpnn, mode, [64, 128, 2048, n], [0])
        assert sampled == []

    def test_worker_pool_matches_serial(self, convergence_spec):
        mpnn = graphsage_mpnn([1, 4, 4], seed=1)
        serial = convergence_sweep(convergence_spec, mpnn, "node_mean",
                                   [32, 64], [0, 1], jobs=1)
        pooled = convergence_sweep(convergence_spec, mpnn, "node_mean",
                                   [32, 64], [0, 1], jobs=2)
        assert serial == pooled


class TestIsoGapStats:
    def _embeddings(self, convergence_spec, n, seed, net_seed=5):
        g = sample_graph(convergence_spec, n, seed=seed)
        stats = graph_stats(g)
        mpnn = graphsage_mpnn([1, 5, 5], seed=net_seed)
        return gmpnn_node(g, stats, mpnn, init="degree"), g

    def test_identical_embeddings_give_zero_gaps(self, convergence_spec):
        g = sample_graph(convergence_spec, 50, seed=0)
        emb = np.ones((50, 3))
        stats = iso_gap_stats(emb, g, [(0, 2)], sample_budget=100, seed=0)
        assert np.all(stats.gaps_iso == 0.0)
        assert np.all(stats.gaps_non_iso == 0.0)

    def test_exhaustive_matches_oracle(self, convergence_spec):
        emb, g = self._embeddings(convergence_spec, 64, seed=2)
        stats = iso_gap_stats(emb, g, [(0, 2)], sample_budget=10_000_000, seed=0)
        expected = []
        for i in np.flatnonzero(g.block_of == 0):
            for j in np.flatnonzero(g.block_of == 2):
                expected.append(np.max(np.abs(emb[i] - emb[j])))
        assert sorted(stats.gaps_iso.tolist()) == sorted(expected)

    def test_budget_sampling_is_subset_and_deterministic(self, convergence_spec):
        emb, g = self._embeddings(convergence_spec, 64, seed=2)
        full = iso_gap_stats(emb, g, [(0, 2)], sample_budget=10_000_000, seed=0)
        sub = iso_gap_stats(emb, g, [(0, 2)], sample_budget=50, seed=1)
        sub2 = iso_gap_stats(emb, g, [(0, 2)], sample_budget=50, seed=1)
        assert np.array_equal(sub.gaps_iso, sub2.gaps_iso)
        assert len(sub.gaps_iso) == 50
        assert set(np.round(sub.gaps_iso, 12)) <= set(np.round(full.gaps_iso, 12))

    def test_budget_sample_matches_loop_reference(self, convergence_spec):
        emb, g = self._embeddings(convergence_spec, 64, seed=2)
        stats = iso_gap_stats(emb, g, [(0, 2)], sample_budget=50, seed=3)

        def pairs(block_pairs):
            # Pool order: block pairs in order, then i-major within each.
            return [(i, j) for a, b in block_pairs
                    for i in np.flatnonzero(g.block_of == a)
                    for j in np.flatnonzero(g.block_of == b)]

        rng = stream(3, "iso-gaps")
        for pool, got in ((pairs([(0, 2)]), stats.gaps_iso),
                          (pairs([(0, 1), (1, 2)]), stats.gaps_non_iso)):
            flat = np.sort(rng.choice(len(pool), size=50, replace=False))
            expected = []
            for k in flat:
                i, j = pool[k]
                expected.append(np.max(np.abs(emb[i] - emb[j])))
            assert np.array_equal(got, expected)

    def test_requires_iso_pairs(self, convergence_spec):
        emb, g = self._embeddings(convergence_spec, 32, seed=1)
        with pytest.raises(PreconditionError):
            iso_gap_stats(emb, g, [], sample_budget=10, seed=0)

    def test_requires_non_iso_pairs(self):
        spec = SbmSpec(block_mass=[0.5, 0.5], S=[[0.6, 0.1], [0.1, 0.6]],
                       B=np.ones((2, 1)))
        g = sample_graph(spec, 40, seed=0)
        emb = np.ones((40, 2))
        with pytest.raises(PreconditionError):
            iso_gap_stats(emb, g, isomorphic_block_pairs(spec),
                          sample_budget=10, seed=0)
