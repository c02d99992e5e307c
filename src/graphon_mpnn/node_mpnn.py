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

from .errors import NumericalError, PreconditionError
from .mpnn import NEIGHBOR_AVERAGE, Mpnn, Tape, require_tape, update_rows
from .sbm import GraphStats, SampledGraph, SbmSpec, graphon_degree

log = logging.getLogger(__name__)

_CHUNK_ROWS = 128


def _resolve_node_init(graph: SampledGraph, degrees: np.ndarray, init) -> np.ndarray:
    """The start features: the block signal for None, the one-column
    size-normalized ``degrees`` for "degree"."""
    if init is None:
        return np.asarray(graph.node_features, dtype=float)
    if isinstance(init, str) and init == "degree":
        return degrees.reshape(-1, 1)
    raise ValueError(f"unknown init {init!r}")


def _message_sum(adjacency, features, message, row_weights, out):
    """Writes sum_j A_ij w_i msg(f_i, f_j) for all i into ``out`` (n, H),
    streamed over row chunks."""
    n = adjacency.shape[0]
    if message.is_neighbor_projection:
        np.matmul(adjacency, features, out=out)
    else:
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            xi = np.broadcast_to(
                features[start:stop, None, :], (stop - start, n, features.shape[1])
            )
            xj = np.broadcast_to(features[None, :, :], (stop - start, n, features.shape[1]))
            msgs = message(xi, xj)
            out[start:stop] = np.einsum("ij,ijh->ih", adjacency[start:stop], msgs)
    out *= row_weights[:, None]


class NodeGraph:
    """One graph as the node recursion reads it, and the recursion on it.

    The start features and the row weights of each aggregation are
    resolved once and shared by every pass. ``forward`` serves every
    caller: the sweeps and stability runs (through ``gmpnn_node``),
    scoring at queried pairs, and training by backprop through the tape it
    records.
    """

    def __init__(self, graph: SampledGraph, stats: GraphStats, init=None):
        self.n = graph.n
        self.adjacency = graph.adjacency
        self.degrees = stats.degree_counts / self.n  # d_i, bitwise A.mean(1)
        self.start = _resolve_node_init(graph, self.degrees, init)
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

    def forward(self, mpnn: Mpnn, pairs=None, record: bool = False):
        """Run the discrete node recursion from the start features.

        Returns ``(values, tape)``. Without ``pairs``, values is the dense
        (n, F) feature matrix. With ``pairs`` (k x 2), values is the
        endpoint concatenation [f_i, f_j], shape (k, 2F). With ``record``,
        ``pairs`` is required and tape is the ``Tape`` to backpropagate
        through; otherwise tape is None.
        """
        if record:
            require_tape(mpnn, pairs, "node")
        f = self.start
        if f.shape[1] != mpnn.feature_dims[0]:
            raise ValueError(
                f"init width {f.shape[1]} != network input width {mpnn.feature_dims[0]}"
            )
        weights = self.row_weights(mpnn.aggregation)
        caches = []
        for message, update in mpnn.layers:
            width = f.shape[1]
            u = np.empty((self.n, width + message.width_out))  # [x, m]
            u[:, :width] = f
            _message_sum(self.adjacency, f, message, weights, out=u[:, width:])
            f, cache = update_rows(update, u, record)
            caches.append(cache)
            if not np.all(np.isfinite(f)):
                raise NumericalError("non-finite node features during message passing")
        if pairs is None:
            return f, None
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        values = np.concatenate([f[pairs[:, 0]], f[pairs[:, 1]]], axis=-1)
        return values, Tape(mpnn, caches, self._pull(mpnn, pairs)) if record else None

    def _pull(self, mpnn: Mpnn, pairs: np.ndarray):
        """The tape's pull for a pass queried at ``pairs``.

        The endpoint gradients are summed onto the nodes; below layer t the
        node gradient is d_f + A (d_m w).
        """
        widths = mpnn.feature_dims
        weights = self.row_weights(mpnn.aggregation)
        nodes = np.concatenate([pairs[:, 0], pairs[:, 1]])

        def pull(t, d):
            if t == mpnn.depth:
                width = widths[-1]
                ends = np.concatenate([d[:, :width], d[:, width:]])
                return np.stack([np.bincount(nodes, weights=ends[:, k], minlength=self.n)
                                 for k in range(width)], axis=-1)
            d_f, d_m = d[:, :widths[t]], d[:, widths[t]:]
            return d_f + self.adjacency @ (d_m * weights[:, None])

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


def _block_messages(spec: SbmSpec, features: np.ndarray, message) -> np.ndarray:
    """sum_b pi_b S_ab msg(B_a, B_b) for every block a."""
    r, f_width = features.shape
    xa = np.broadcast_to(features[:, None, :], (r, r, f_width))
    xb = np.broadcast_to(features[None, :, :], (r, r, f_width))
    msgs = message(xa, xb)
    w = spec.S * spec.block_mass[None, :]
    return np.einsum("ab,abh->ah", w, msgs)


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
    if init is None:
        f = np.asarray(spec.B, dtype=float).copy()
    elif isinstance(init, str) and init == "degree":
        f = graphon_degree(spec).reshape(-1, 1)
    else:
        raise ValueError(f"unknown init {init!r}")
    if f.shape[1] != mpnn.feature_dims[0]:
        raise ValueError(
            f"init width {f.shape[1]} != network input width {mpnn.feature_dims[0]}"
        )

    mean_mode = mpnn.aggregation == NEIGHBOR_AVERAGE
    if mean_mode:
        d = graphon_degree(spec)
        if d.min() <= 0.0:
            raise PreconditionError(
                "mean aggregation undefined: a block has zero expected degree"
            )

    trace = [f.copy()]
    for message, update in mpnn.layers:
        g = _block_messages(spec, f, message)
        if mean_mode:
            g = g / d[:, None]
        f = update(f, g)
        trace.append(f.copy())
    if return_layers:
        return trace
    return trace[-1]
