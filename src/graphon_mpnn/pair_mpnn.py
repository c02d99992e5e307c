"""Pairwise embeddings: discrete message passing over node pairs and its
exact continuous counterpart on the block model.

The discrete recursion for a pair (i, j) aggregates over shared third
nodes, normalized by the common-neighbor fraction c(i, j):

    m_ij = (1 / (2n c_ij)) sum_z [ A_jz msg(f_ij, f_iz) + A_iz msg(f_ij, f_jz) ]
    f_ij <- upd(f_ij, m_ij)

For the neighbor-projection message this reduces to adjacency matrix
products per feature channel, the fast path that makes n = 8192 feasible.
Pair features are exactly symmetric, which ``PairGraph.forward`` uses
three ways: one product A F per channel gives both F A and A F; from the
all-ones start the first message needs no product; and each update net
runs on fewer rows than n^2. A symmetric map ``inv`` sends every pair to
its row: its i <= j pair, or in layer 0, whose message depends on a pair
only through two integer counts, its class of equal counts.
Callers that read only some pairs get the last layer at those pairs
alone, and the ``Tape`` it records backpropagates through the pass. The
continuous recursion collapses to r x r block-pair states.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NumericalError, PreconditionError
from .mpnn import (
    Mpnn,
    NeighborProjection,
    NetFunction,
    RatioUpdate,
    Tape,
    require_tape,
    update_rows,
)
from .nn import init_net
from .sbm import GraphStats, SampledGraph, SbmSpec, graphon_common_neighbors

#: Dense pair tensors are capped to protect memory; the fully symbolic
#: variant affords a larger cap because it never materializes per-pair
#: message inputs.
N_MAX_GENERAL = 4096
N_MAX_SYMBOLIC = 8192

#: The queried last layer takes row dots below n^2 / _ROW_DOT_COST pairs
#: (see _queried_messages), gathered in chunks of _ROW_DOT_CHUNK pairs to
#: keep the temporaries small.
_ROW_DOT_COST = 150
_ROW_DOT_CHUNK = 256

#: Edge of the square tiles ``_symmetrize`` works in: its one temporary is
#: 32 KiB, and a tile and its mirror stay in cache together.
_TILE = 64


def fixed_psi_mpnn(T: int) -> Mpnn:
    """The closed-form variant: message (x, y) -> y, update (x, m) -> x/m.

    The update guards division by EPS_DIV (see RatioUpdate). All layers are
    width 1; the edge-probability function itself is a stationary point of
    the pairwise recursion under this pair.
    """
    if T < 1:
        raise PreconditionError("need at least one layer")
    layers = tuple((NeighborProjection(1), RatioUpdate(1)) for _ in range(T))
    return Mpnn(layers=layers)


def learnable_psi_mpnn(T: int, hidden: int = 5, seed=0) -> Mpnn:
    """Neighbor-projection messages with a trainable per-layer update net:
    two hidden tanh layers of width ``hidden``."""
    if T < 1:
        raise PreconditionError("need at least one layer")
    layers = []
    for t in range(T):
        net = init_net([2, hidden, hidden, 1], seed=seed,
                       tag=f"init/pair-update{t}")
        layers.append((NeighborProjection(1), NetFunction(net)))
    return Mpnn(layers=tuple(layers))


def pair_message_weights(stats: GraphStats) -> np.ndarray:
    """Weights 1 / (2n c_ij) of the common-neighbor fraction c_ij = CN_ij / n,
    read as 1/n where CN_ij = 0: the one place this fallback is applied."""
    # The order stays 1 / (2n (CN / n)): the shorter 1 / (2 CN) differs in the
    # last bit for 1,774,783 of the (n <= 8192, 0 <= CN <= n) combinations,
    # first at n = 22, CN = 15, and would move every pair output's bytes.
    counts, n = stats.common_neighbors, stats.n
    w = np.divide(counts, n, dtype=np.float64)
    w[counts == 0] = 1.0 / n
    w *= 2.0 * n
    return np.divide(1.0, w, out=w)


def _general_pair_messages(adjacency, f, message, weights):
    n, _, width = f.shape
    h = message.width_out
    m = np.empty((n, n, h))
    for i in range(n):
        fij = np.broadcast_to(f[i][:, None, :], (n, n, width))
        own = message(fij, np.broadcast_to(f[i][None, :, :], (n, n, width)))
        other = message(fij, f)
        term = np.einsum("jz,jzh->jh", adjacency, own)
        term += np.einsum("z,jzh->jh", adjacency[i], other)
        m[i] = term * weights[i][:, None]
    return m


def _symmetrize(m, weights):
    """Writes (m + m^T) * weights into the square matrix ``m`` in place.

    Entry (i, j) becomes m_ij + m_ji and (j, i) becomes m_ji + m_ij, the
    same float since IEEE addition commutes, so one tile-sized sum serves a
    tile and its mirror: bitwise ``(m + m.T) * weights``.
    """
    n = m.shape[0]
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        for lo2 in range(lo, n, _TILE):
            cols = slice(lo2, lo2 + _TILE)
            s = m[rows, cols] + m[cols, rows].T
            if lo2 > lo:
                np.multiply(s.T, weights[cols, rows], out=m[cols, rows])
            np.multiply(s, weights[rows, cols], out=m[rows, cols])


def _require_size(n: int, mpnn: Mpnn) -> None:
    cap = N_MAX_SYMBOLIC if mpnn.all_symbolic else N_MAX_GENERAL
    if n > cap:
        raise PreconditionError(f"pair recursion capped at n <= {cap}, got n = {n}")


def _require_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite pair features during message passing")


class PairGraph:
    """One graph as the pairwise recursion reads it, and the recursion on it.

    What every pass reads of the graph is computed once from the counts in
    ``stats`` and shared: the message weights and layer 0's count classes.
    Each update net runs on its layer's rows, and ``row_inv`` maps every
    pair to its row. ``forward`` serves every caller:
    the dense sweeps (through ``gmpnn_pair``), scoring at queried pairs,
    and training, frozen or by backprop through the tape it records.
    """

    def __init__(self, graph: SampledGraph, stats: GraphStats):
        self.n = graph.n
        self.adjacency = graph.adjacency
        self.stats = stats
        self.weights = pair_message_weights(stats)

    def first_messages(self, out: np.ndarray) -> np.ndarray:
        """Writes layer 0's message (D_i + D_j) W_ij into ``out`` (n x n).

        From the all-ones start, A @ F is D_i in row i, so the first
        message needs no matrix product.
        """
        np.add.outer(self.stats.degree_counts, self.stats.degree_counts, out=out)
        out *= self.weights
        return out

    @cached_property
    def first_classes(self) -> tuple:
        """Layer 0's count classes: ``(messages, inv)``.

        With W_ij = 1/(2 CN_ij), the first message depends on a pair only
        through the integers (D_i + D_j, max(CN_ij, 1)), CN = 0 read as 1 by
        the fallback of ``pair_message_weights``. Pairs with equal counts
        form one class and share one update input, bit for bit.
        ``messages`` holds each class's message, ordered by its counts, and
        the symmetric n x n int32 ``inv`` holds each pair's class.
        """
        n = self.n
        d = self.stats.degree_counts.astype(np.intp)
        d -= d.min()
        cn = self.stats.common_neighbors.astype(np.intp)
        np.maximum(cn, 1, out=cn)
        cn -= cn.min()
        key = np.add.outer(d, d)
        key *= cn.max() + 1
        key += cn
        del cn
        # a counting pass over the integer keys, where np.unique would sort
        present = np.bincount(key.ravel()) > 0
        inv = (np.cumsum(present) - 1).astype(np.int32)[key]
        del key
        messages = np.empty(np.count_nonzero(present))
        messages[inv] = self.first_messages(np.empty((n, n)))
        return messages, inv

    def upper_rows(self) -> np.ndarray:
        """Flat indices i n + j of the i <= j pairs, row-major: the rows of
        every update net but layer 0's classes."""
        i, j = np.triu_indices(self.n)
        return i * self.n + j

    def row_inv(self, t: int, message) -> np.ndarray:
        """The symmetric n x n map from each pair to its row in layer t:
        its count class in layer 0, else its i <= j row (int32, built per
        call so that none is alive while an update net runs)."""
        if t == 0 and message.is_neighbor_projection:
            return self.first_classes[1]
        i, j = np.triu_indices(self.n)
        inv = np.empty((self.n, self.n), dtype=np.int32)
        inv[i, j] = inv[j, i] = np.arange(len(i), dtype=np.int32)
        return inv

    def row_inputs(self, f, message):
        """A layer's update input ``(x, m)`` at its rows: the count classes
        from all ones (``f`` is None), or the i <= j rows of ``f`` and of its
        messages."""
        if f is None:
            messages, width = self.first_classes[0], message.width_out
            return (np.ones((len(messages), width)),
                    np.repeat(messages[:, None], width, axis=1))
        m = self.dense_messages(f, message)
        rows = self.upper_rows()
        return f.reshape(-1, f.shape[2])[rows], m.reshape(-1, m.shape[2])[rows]

    def dense_messages(self, f, message, out=None):
        """One layer's messages on the dense symmetric features ``f``, or on
        the all-ones start when ``f`` is None; written into ``out`` when it
        is an array of their shape.

        For the neighbor projection and symmetric F and A, F A = (A F)^T,
        so each channel costs one product, written straight into its
        message slice and symmetrized there: m_k = (A F_k + (A F_k)^T) W.
        From all ones the product is the degree D_i in row i, so layer 0
        needs none (``first_messages``).
        """
        if not message.is_neighbor_projection:
            return _general_pair_messages(self.adjacency, f, message, self.weights)
        shape = (self.n, self.n, message.width_out)
        m = out if out is not None and out.shape == shape else np.empty(shape)
        for k in range(m.shape[2]):
            mk = m[:, :, k]
            if f is None:
                self.first_messages(out=mk)
                continue
            np.matmul(self.adjacency, f[:, :, k], out=mk)
            _symmetrize(mk, self.weights)
        return m

    def queried_messages(self, f, message, pairs):
        """The messages at ``pairs`` only: W_ij (A_i . F_j + A_j . F_i) per
        channel, O(n) per pair; from all ones when ``f`` is None.

        A row dot streams two gathered rows, which costs about as much as
        150 flops of the blocked product A F; for more pairs than n^2 / 150
        that one product is cheaper, and its entries are gathered instead.
        """
        i, j = pairs[:, 0], pairs[:, 1]
        if not message.is_neighbor_projection:
            return _general_pair_messages(self.adjacency, f, message, self.weights)[i, j]
        w = self.weights[i, j]
        if f is None:
            d = self.stats.degree_counts
            return np.repeat(((d[i] + d[j]) * w)[:, None], message.width_out, axis=1)
        a = self.adjacency
        m = np.empty((len(pairs), f.shape[2]))
        for k in range(f.shape[2]):
            fk = f[:, :, k]
            if len(pairs) * _ROW_DOT_COST >= self.n ** 2:
                y = a @ fk
                m[:, k] = y[i, j] + y[j, i]
                continue
            for lo in range(0, len(pairs), _ROW_DOT_CHUNK):
                ic, jc = i[lo : lo + _ROW_DOT_CHUNK], j[lo : lo + _ROW_DOT_CHUNK]
                m[lo : lo + _ROW_DOT_CHUNK, k] = (np.einsum("pz,pz->p", a[ic], fk[jc])
                                                  + np.einsum("pz,pz->p", a[jc], fk[ic]))
        return m * w[:, None]

    def forward(self, mpnn: Mpnn, pairs=None, record: bool = False):
        """Run the discrete pairwise recursion from the all-ones start.

        Returns ``(values, tape)``. Without ``pairs``, values is the dense
        (n, n, F) tensor. With ``pairs`` (k x 2), the last layer is
        evaluated at those pairs only and values is (k, F). Pair features
        are exactly symmetric: an update net below the queried layer runs
        on its layer's rows (one per count class in layer 0, one per i <= j
        pair after) and the dense features are gathered as ``out[inv]``;
        closed-form updates run elementwise on the dense tensor.
        With ``record``, ``pairs`` is required and tape is the ``Tape`` to
        backpropagate through; otherwise tape is None.

        The dense layers hold one feature buffer ``f`` and one message
        buffer ``m`` for the whole pass. When layer 0's message is the
        neighbor projection, which reads no features, the all-ones start
        is never built (``f`` is None). The ratio update writes
        f / max(m, EPS_DIV) back into ``f``; in layer 0 it writes
        1 / max(m, EPS_DIV) into ``m``, which becomes ``f``. An update net
        reads only its gathered rows, so both buffers are released while it
        runs, and ``out[inv]`` becomes the new ``f``.
        """
        n = self.n
        _require_size(n, mpnn)
        if record:
            require_tape(mpnn, pairs, "pair")
        if pairs is not None:
            pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        width = mpnn.feature_dims[0]
        f = None if mpnn.layers[0][0].is_neighbor_projection else np.ones((n, n, width))
        m = None
        caches = []
        last = mpnn.depth - 1
        for t, (message, update) in enumerate(mpnn.layers):
            if pairs is not None and t == last:
                x = (np.ones((len(pairs), width)) if f is None
                     else f[pairs[:, 0], pairs[:, 1]])
                out, cache = update_rows(update, x,
                                         self.queried_messages(f, message, pairs), record)
                caches.append(cache)
                _require_finite(out)
                tape = Tape(mpnn, caches, self._pull(mpnn, pairs)) if record else None
                return out, tape
            if update.net is None:
                m = self.dense_messages(f, message, m)
                if f is None:
                    f, m = update(1.0, m, out=m), None
                else:
                    f = update(f, m, out=f)
            else:
                x, rows_m = self.row_inputs(f, message)
                f = m = None  # only the gathered rows are alive while the net runs
                out, cache = update_rows(update, x, rows_m, record)
                caches.append(cache)
                f = out[self.row_inv(t, message)]
            _require_finite(f)
        return f, None

    def _pull(self, mpnn: Mpnn, pairs: np.ndarray):
        """The tape's pull for a pass queried at ``pairs``.

        The last layer's output rows are the returned values. Below layer
        t, one bincount over the flat indices of its rows (the queried
        pairs for the last layer, the i <= j pairs under it) scatters the
        message gradients to an n x n matrix G; with S = G + G^T the
        gradient of the dense features below is A S. A second bincount
        over the layer below's ``inv`` sums that gradient onto its rows:
        d_ij + d_ji for an i <= j row, the sum over its pairs for a count
        class.
        """
        n, widths = self.n, mpnn.feature_dims
        queried = pairs[:, 0] * n + pairs[:, 1]

        def pull(t, d):
            if t == mpnn.depth:
                return np.asarray(d, dtype=float)
            flat = queried if t == mpnn.depth - 1 else self.upper_rows()
            inv = self.row_inv(t - 1, mpnn.layers[t - 1][0]).ravel()
            width = widths[t]
            delta = []
            for k in range(width):
                g = np.bincount(flat, weights=d[:, width + k], minlength=n * n)
                g = g.reshape(n, n) * self.weights
                dense = self.adjacency @ (g + g.T)
                dense += np.bincount(flat, weights=d[:, k],
                                     minlength=n * n).reshape(n, n)
                delta.append(np.bincount(inv, weights=dense.ravel()))
            return np.stack(delta, axis=-1)

        return pull


def gmpnn_pair(graph: SampledGraph, stats: GraphStats, mpnn: Mpnn) -> np.ndarray:
    """The dense (n, n, F) features of the discrete pairwise recursion from
    the all-ones initialization."""
    _require_size(graph.n, mpnn)  # before the n x n work of PairGraph
    values, _ = PairGraph(graph, stats).forward(mpnn)
    return values


def cmpnn_pair_sbm(spec: SbmSpec, mpnn: Mpnn, init=None,
                   return_layers: bool = False):
    """Exact continuous pairwise recursion over r x r block-pair states.

    g_ab = (1/(2 c_ab)) sum_c pi_c [ S_bc msg(F_ab, F_ac) + S_ac msg(F_ab, F_bc) ]
    F_ab <- upd(F_ab, g_ab)

    ``init`` defaults to all ones; pass an (r, r) or (r, r, F0) array for
    other starting signals (e.g. the edge-probability matrix itself).
    Returns the (r, r, F) block-pair values, or with ``return_layers`` the
    list of them for the start and after every layer.
    """
    r = spec.r
    c = graphon_common_neighbors(spec)
    if c.min() <= 0.0:
        raise PreconditionError(
            "pairwise recursion undefined: a block pair has zero "
            "common-neighbor fraction"
        )
    width0 = mpnn.feature_dims[0]
    if init is None:
        f = np.ones((r, r, width0))
    else:
        f = np.asarray(init, dtype=float)
        if f.ndim == 2:
            f = f[:, :, None]
        if f.shape[:2] != (r, r) or f.shape[2] != width0:
            raise ValueError(f"init must be ({r}, {r}, {width0})")
        f = f.copy()

    pi = spec.block_mass
    trace = [f.copy()]
    for message, update in mpnn.layers:
        fab = np.broadcast_to(f[:, :, None, :], (r, r, r, f.shape[2]))
        fac = np.broadcast_to(f[:, None, :, :], (r, r, r, f.shape[2]))
        fbc = np.broadcast_to(f[None, :, :, :], (r, r, r, f.shape[2]))
        own = message(fab, fac)   # msg(F_ab, F_ac), indexed [a, b, c]
        other = message(fab, fbc)  # msg(F_ab, F_bc)
        g = np.einsum("c,bc,abch->abh", pi, spec.S, own)
        g += np.einsum("c,ac,abch->abh", pi, spec.S, other)
        g /= 2.0 * c[:, :, None]
        f = update(f, g)
        trace.append(f.copy())
    if return_layers:
        return trace
    return trace[-1]
