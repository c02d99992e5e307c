"""Node embeddings: discrete message passing on a sampled graph and its
exact continuous counterpart on the block model.

The discrete path follows the layer recursion

    mean mode:  m_i = (1/n) sum_j (A_ij / d_i) msg(f_i, f_j)
    sum mode:   m_i = (1/n) sum_j  A_ij        msg(f_i, f_j)
    f_i <- upd(f_i, m_i)

with d_i the size-normalized degree. The continuous path collapses to an
exact r-dimensional recursion over blocks because the edge-probability
function is piecewise constant.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import PreconditionError
from .mpnn import (NEIGHBOR_AVERAGE, Mpnn, Tape, block_recursion, require_finite, require_tape,
                   update_rows)
from .sbm import _MIRROR_ROWS, GraphStats, SampledGraph, SbmSpec, graphon_degree

log = logging.getLogger(__name__)


def _node_start(init, signal, degrees: np.ndarray) -> np.ndarray:
    """The start features: the block ``signal`` for None, the one-column
    size-normalized ``degrees`` for "degree"."""
    if init is None:
        return np.asarray(signal, dtype=float)
    if isinstance(init, str) and init == "degree":
        return degrees.reshape(-1, 1)
    raise ValueError(f"unknown init {init!r}")


def _require_width(f: np.ndarray, mpnn: Mpnn) -> None:
    """Raise unless the start features are as wide as the network's input."""
    if f.shape[1] != mpnn.feature_dims[0]:
        raise ValueError(
            f"init width {f.shape[1]} != network input width {mpnn.feature_dims[0]}"
        )


def _message_sum(stats, graph, features, message, row_weights, out):
    """Writes sum_j A_ij w_i msg(f_i, f_j) for all i into ``out`` (n, H):
    ``stats.product`` for the neighbor projection, else streamed over the
    strips of _MIRROR_ROWS rows of ``graph``'s adjacency, each unpacked to
    bool."""
    n = graph.n
    if message.is_neighbor_projection:
        stats.product(features, out=out)
    else:
        for start in range(0, n, _MIRROR_ROWS):
            stop = min(start + _MIRROR_ROWS, n)
            xi = np.broadcast_to(
                features[start:stop, None, :], (stop - start, n, features.shape[1])
            )
            xj = np.broadcast_to(features[None, :, :], (stop - start, n, features.shape[1]))
            msgs = message(xi, xj)
            out[start:stop] = np.einsum("ij,ijh->ih", graph.rows(start, stop), msgs)
    out *= row_weights[:, None]


class NodeGraph:
    """One graph as the node recursion reads it, and the recursion on it.

    The start features and the row weights of each aggregation are
    resolved once and shared by every pass. Every product with the
    adjacency, the neighbor projection's messages and the pull's
    A (d_m w), is ``stats.product``; other messages unpack the
    adjacency strip by strip. ``forward`` serves every
    caller: the sweeps and stability runs (through ``gmpnn_node``),
    scoring at queried pairs, and training by backprop through the tape it
    records.
    """

    def __init__(self, graph: SampledGraph, stats: GraphStats, init=None):
        self.n = graph.n
        self.graph = graph
        self.stats = stats
        self.degrees = stats.degree_counts / self.n  # d_i, bitwise A.mean(1)
        self.start = _node_start(init, graph.node_features, self.degrees)
        self._weights = {}  # aggregation -> row weights

    def row_weights(self, aggregation: str) -> np.ndarray:
        """1 / (n d_i) in mean mode, zero for isolated nodes (logged once);
        1 / n in sum mode."""
        if aggregation not in self._weights:
            n = self.n
            if aggregation == NEIGHBOR_AVERAGE:
                isolated = self.degrees == 0.0
                if isolated.any():
                    log.info("mean aggregation: %d isolated nodes get zero messages",
                             int(isolated.sum()))
                weights = np.zeros(n)
                weights[~isolated] = 1.0 / (n * self.degrees[~isolated])
            else:
                weights = np.full(n, 1.0 / n)
            self._weights[aggregation] = weights
        return self._weights[aggregation]

    def forward(self, mpnn: Mpnn, pairs=None, record: bool = False, buffers=None):
        """Run the discrete node recursion from the start features.

        Returns ``(values, tape)``. Without ``pairs``, values is the dense
        (n, F) feature matrix. With ``pairs`` (k x 2), values is the
        endpoint concatenation [f_i, f_j], shape (k, 2F). With ``record``,
        ``pairs`` is required and tape is the ``Tape`` to backpropagate
        through; otherwise tape is None. A recorded pass writes its update
        nets' caches and its pull's endpoint gradients into ``buffers``, a
        training run's ``nn.Buffers``, when one is given.
        """
        if record:
            require_tape(mpnn, pairs, "node")
        f = self.start
        _require_width(f, mpnn)
        weights = self.row_weights(mpnn.aggregation)
        caches = []
        for message, update in mpnn.layers:
            width = f.shape[1]
            u = np.empty((self.n, width + message.width_out))  # [x, m]
            u[:, :width] = f
            _message_sum(self.stats, self.graph, f, message, weights, out=u[:, width:])
            f, cache = update_rows(update, u, record, buffers)
            caches.append(cache)
            require_finite(f, "node")
        if pairs is None:
            return f, None
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        values = np.concatenate([f[pairs[:, 0]], f[pairs[:, 1]]], axis=-1)
        if not record:
            return values, None
        return values, Tape(mpnn, caches, self._pull(mpnn, pairs, buffers), buffers)

    def _pull(self, mpnn: Mpnn, pairs: np.ndarray, buffers=None):
        """The tape's pull for a pass queried at ``pairs``.

        The endpoint gradients are stacked channel by channel, the first
        endpoints' above the second's (in ``buffers`` when given), and
        summed onto the nodes; below layer t the node gradient is
        d_f + A (d_m w).
        """
        widths = mpnn.feature_dims
        weights = self.row_weights(mpnn.aggregation)
        nodes = np.concatenate([pairs[:, 0], pairs[:, 1]])

        def pull(t, d):
            if t == mpnn.depth:
                width, k = widths[-1], len(d)
                shape = (width, 2 * k)
                ends = np.empty(shape) if buffers is None else buffers.get("node_ends", shape)
                ends[:, :k] = d[:, :width].T
                ends[:, k:] = d[:, width:].T
                return np.stack([np.bincount(nodes, weights=ends[c], minlength=self.n)
                                 for c in range(width)], axis=-1)
            d_f, d_m = d[:, :widths[t]], d[:, widths[t]:]
            return d_f + self.stats.product(d_m * weights[:, None])

        return pull


def gmpnn_node(graph: SampledGraph, stats: GraphStats, mpnn: Mpnn,
               init=None) -> np.ndarray:
    """The (n, F) features of the discrete node recursion on a sampled graph.

    ``init`` picks the start features: None for the graph's block signal,
    "degree" for the size-normalized degrees. In mean mode, isolated nodes
    receive a zero message (logged).
    """
    values, _ = NodeGraph(graph, stats, init).forward(mpnn)
    return values


def cmpnn_node_sbm(spec: SbmSpec, mpnn: Mpnn, init=None,
                   return_layers: bool = False):
    """Exact continuous node recursion, one state vector per block.

    mean mode:  g_a = (1/d(a)) sum_b pi_b S_ab msg(B_a, B_b)
    sum mode:   g_a =          sum_b pi_b S_ab msg(B_a, B_b)
    B_a <- upd(B_a, g_a)

    ``init`` defaults to the spec's block signal; pass "degree" for the
    per-block expected degree. Returns the (r, F) block values, or with
    ``return_layers`` the list of them for the start and after every layer.
    """
    d = graphon_degree(spec)
    f = _node_start(init, spec.B, d)
    _require_width(f, mpnn)
    mean_mode = mpnn.aggregation == NEIGHBOR_AVERAGE
    if mean_mode and d.min() <= 0.0:
        raise PreconditionError("mean aggregation undefined: a block has zero expected degree")
    w = spec.S * spec.block_mass[None, :]

    def messages(f, message):
        r, width = f.shape
        xa = np.broadcast_to(f[:, None, :], (r, r, width))
        xb = np.broadcast_to(f[None, :, :], (r, r, width))
        g = np.einsum("ab,abh->ah", w, message(xa, xb))
        return g / d[:, None] if mean_mode else g

    return block_recursion(mpnn, f, messages, return_layers)
