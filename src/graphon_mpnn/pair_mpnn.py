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
alone, and the ``Tape`` it records backpropagates through the pass. At
queried pairs the last layer's message is linear in the rows of the
layer below, so it reads them through a sparse map fixed for the graph
and the pairs, E = sum over the pairs of (D_i + D_j) entries, and its
pull is that map's transpose: a two-layer pass then does no n x n work.
The continuous recursion collapses to r x r block-pair states.
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

#: A queried last layer reads the layer below through a ``_QueryMap`` when
#: its E = sum over the pairs of (D_i + D_j) entries are at most c n^2;
#: past that, one product A F per channel and a gather cost less. A
#: recorded pass keeps its map for every training epoch at the same pairs:
#: c = _MAP_C, under the measured crossover of a forward and backward
#: pass (12 n^2 at n = 500, 18 n^2 at n = 1000, one BLAS thread). An
#: unrecorded pass builds its map for one use: c = _MAP_C_ONCE, where
#: building the map and reading it cost one product (measured 1 n^2 at
#: n = 500 and 1.3 n^2 at n = 1000).
_MAP_C = 8
_MAP_C_ONCE = 1

#: Entries a map gathers at once: each block's widened indices and its
#: buffer take 256 KiB apiece and stay in cache.
_MAP_BLOCK = 1 << 15

#: Edge of the square tiles ``_symmetrize`` works in: its sum and the
#: tile's weights are 32 KiB each, and a tile and its mirror stay in cache
#: together. ``PairWeights.scale`` forms W in strips of as many rows.
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


class PairWeights:
    """The message weights W_ij = 1 / (2n c_ij) of the common-neighbor
    fraction c_ij = CN_ij / n, as a function of the float32 counts: W is
    formed where it is read and no n x n array of it is held.

    ``weights[index]`` is W at ``counts[index]`` for any numpy index of the
    n x n counts: a tile, a row strip, a row or pairs. ``of`` forms W from
    given counts, and is the one place the fallback is applied: CN_ij = 0
    is read as 1, so that c_ij = 1/n.
    """

    def __init__(self, counts: np.ndarray, n: int):
        self.counts, self.n = counts, n

    def __getitem__(self, index) -> np.ndarray:
        return self.of(self.counts[index])

    def of(self, counts) -> np.ndarray:
        # The order stays 1 / (2n (CN / n)): the shorter 1 / (2 CN) differs in
        # the last bit for 1,774,783 of the (n <= 8192, 0 <= CN <= n)
        # combinations, first at n = 22, CN = 15, and would move every pair
        # output's bytes. Reading CN = 0 as 1 gives c = 1.0 / n exactly.
        n = self.n
        w = np.maximum(counts, 1, out=np.empty(np.shape(counts)))
        w /= n
        w *= 2.0 * n
        return np.divide(1.0, w, out=w)

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Multiplies the n x n ``x`` by W in place, row strip by row strip."""
        for lo in range(0, self.n, _TILE):
            rows = slice(lo, lo + _TILE)
            x[rows] *= self[rows]
        return x


def pair_message_weights(stats: GraphStats) -> PairWeights:
    """The message weights of the graph that ``stats`` counts, as a
    function of its float32 common-neighbor counts (``PairWeights``): it
    reads ``stats.common_neighbors`` once and allocates no n x n array."""
    return PairWeights(stats.common_neighbors, stats.n)


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
    """Writes (m + m^T) W into the square matrix ``m`` in place, with W read
    tile by tile from ``weights`` (a ``PairWeights`` or an array).

    Entry (i, j) becomes m_ij + m_ji and (j, i) becomes m_ji + m_ij, the
    same float since IEEE addition commutes, so one tile-sized sum serves a
    tile and its mirror; W is symmetric, so the mirror tile reads the
    tile's weights transposed: bitwise ``(m + m.T) * W``.
    """
    n = m.shape[0]
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        for lo2 in range(lo, n, _TILE):
            cols = slice(lo2, lo2 + _TILE)
            s = m[rows, cols] + m[cols, rows].T
            w = weights[rows, cols]
            if lo2 > lo:
                np.multiply(s.T, w.T, out=m[cols, rows])
            np.multiply(s, w, out=m[rows, cols])


def _require_size(n: int, mpnn: Mpnn) -> None:
    cap = N_MAX_SYMBOLIC if mpnn.all_symbolic else N_MAX_GENERAL
    if n > cap:
        raise PreconditionError(f"pair recursion capped at n <= {cap}, got n = {n}")


def _require_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite pair features during message passing")


def _stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, n_keys),
    by 16-bit digits, least significant first: numpy radix-sorts 16-bit
    integers in O(len) but merge-sorts wider ones."""
    order = None
    for shift in range(0, max(n_keys - 1, 1).bit_length(), 16):
        digit = ((keys if order is None else keys[order]) >> shift).astype(np.uint16)
        step = np.argsort(digit, kind="stable")  # the cast above keeps the low bits
        order = step if order is None else order[step]
    return order


def _blocks(starts: np.ndarray, total: int) -> np.ndarray:
    """Cuts of the segments beginning at ``starts`` (ascending; the last
    ends at ``total``) into blocks of about _MAP_BLOCK entries, each cut at
    a segment's start; a segment longer than a block is a block alone."""
    cuts = np.concatenate([[0], np.searchsorted(starts, np.arange(_MAP_BLOCK, total, _MAP_BLOCK)),
                           [len(starts)]])
    return cuts[np.diff(cuts, prepend=-1) > 0]


class _SegmentSum:
    """Sums of ``src[idx[e]]`` over the segments of ``idx`` that begin at
    ``starts``, gathered block by block into one reused buffer whose last
    row stays zero, so that a block's trailing empty segment reads 0.
    ``idx`` is int32; each block's indices widen to intp as it is read."""

    def __init__(self, idx: np.ndarray, starts: np.ndarray):
        self.idx, self.starts = idx, starts
        self.cuts = _blocks(starts, len(idx))
        bounds = np.append(starts, len(idx))[self.cuts]
        self.size = int(np.max(np.diff(bounds), initial=0)) + 1
        self._buf = None

    def __call__(self, src: np.ndarray, out: np.ndarray) -> None:
        """Writes each segment's sum of rows of ``src`` into ``out``; an
        empty segment reads the next segment's first entry, as reduceat
        does, and its caller sets it."""
        width = src.shape[1]
        if self._buf is None or self._buf.shape[1] != width:
            self._buf = np.zeros((self.size, width))
        starts, cuts = self.starts, self.cuts
        for a, b in zip(cuts[:-1], cuts[1:]):
            lo = starts[a]
            hi = starts[b] if b < len(starts) else len(self.idx)
            block = self._buf[: hi - lo + 1]
            np.take(src, self.idx[lo:hi], axis=0, out=block[:-1], mode="clip")
            block[-1] = 0.0
            np.add.reduceat(block, starts[a:b] - lo, axis=0, out=out[a:b])


class _QueryMap:
    """The last layer's messages at k queried pairs as a sparse map from
    the rows of the layer below, fixed for one graph and one set of pairs.

    Per channel, m_ij = W_ij (sum_{z in N(i)} src[key(j, z)]
    + sum_{z in N(j)} src[key(i, z)]), where ``src`` holds the rows of the
    layer below and key(a, z) is its row map ``inv[a, z]``, or the flat
    index a n + z of the dense features when ``inv`` is None. The E
    entries form one segment per pair: the smaller endpoint's neighbors
    first, each list ascending, so that (i, j) and (j, i) add in one order
    and stay bitwise symmetric. ``own`` holds each pair's own row, its
    update input x. The map keeps 4 bytes per entry, and 4 more once a
    backward pass has built its transpose.
    """

    def __init__(self, graph: "PairGraph", pairs, inv, kind: str):
        n = graph.n
        self.kind, self.pairs = kind, pairs.copy()
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        degree = np.diff(graph.neighbors[0])
        self.lengths = degree[lo] + degree[hi]
        starts = np.cumsum(self.lengths) - self.lengths
        flat = None if inv is None else inv.ravel()
        idx = np.empty(int(self.lengths.sum()), dtype=np.int32)
        cuts = _blocks(starts, len(idx))
        for a, b in zip(cuts[:-1], cuts[1:]):  # so that the intp keys stay block-sized
            keys = graph.neighbor_keys(lo[a:b], hi[a:b])
            idx[starts[a] : starts[a] + len(keys)] = keys if flat is None else flat[keys]
        own = lo * n + hi
        self.own = own if flat is None else flat[own].astype(np.intp)
        self.empty = np.flatnonzero(self.lengths == 0)
        self.w = graph.weights[lo, hi]
        self._sums = _SegmentSum(idx, starts)

    def messages(self, src, out) -> None:
        """Writes the messages at the pairs, read from the rows ``src``,
        into ``out`` (k, width)."""
        self._sums(src, out)
        out[self.empty] = 0.0
        out *= self.w[:, None]

    @cached_property
    def _transpose(self) -> tuple:
        """The entries in source-row order, as a ``_SegmentSum`` over each
        entry's pair with one segment per present row, and those rows.

        A counting sort: each row's run starts at its count's offset, and
        the entries are placed block by block, stably sorted within a
        block, so that no temporary outgrows a block.
        """
        idx = self._sums.idx
        pairs = np.repeat(np.arange(len(self.lengths), dtype=np.int32), self.lengths)
        counts = np.bincount(idx)
        fill = np.cumsum(counts) - counts  # each row's next free slot
        pair_of = np.empty_like(pairs)
        for lo in range(0, len(idx), _MAP_BLOCK):
            keys = idx[lo : lo + _MAP_BLOCK]
            order = _stable_order(keys, len(counts))
            keys = keys[order]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            run = np.diff(first, append=len(keys))
            rank = np.arange(len(keys)) - np.repeat(first, run)
            pair_of[fill[keys] + rank] = pairs[lo : lo + _MAP_BLOCK][order]
            fill[keys[first]] += run
        present = np.flatnonzero(counts)  # each run now ends at its fill
        return _SegmentSum(pair_of, fill[present] - counts[present]), present

    def pull(self, d_x, d_m, n_rows: int) -> np.ndarray:
        """The gradient at the ``n_rows`` source rows of <d_x, x> + <d_m, m>:
        d_m W gathered in source-row order and summed per row, plus d_x at
        each pair's own row."""
        sums, present = self._transpose
        g = d_m * self.w[:, None]
        per_row = np.empty((len(present), g.shape[1]))
        sums(g, per_row)
        d = np.zeros((n_rows, g.shape[1]))
        d[present] = per_row
        np.add.at(d, self.own, d_x)
        return d


class PairGraph:
    """One graph as the pairwise recursion reads it, and the recursion on it.

    What every pass reads of the graph is computed once from the counts in
    ``stats`` and shared: layer 0's count classes, the neighbor lists and
    the map of the last pass queried at pairs. The message weights are no
    array: ``weights`` forms them from the float32 counts at each tile,
    row strip, row or set of pairs a pass reads.
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
        self._map = None

    def first_messages(self, out: np.ndarray) -> np.ndarray:
        """Writes layer 0's message (D_i + D_j) W_ij into ``out`` (n x n),
        with W formed row strip by row strip.

        From the all-ones start, A @ F is D_i in row i, so the first
        message needs no matrix product.
        """
        np.add.outer(self.stats.degree_counts, self.stats.degree_counts, out=out)
        return self.weights.scale(out)

    @cached_property
    def first_classes(self) -> tuple:
        """Layer 0's count classes: ``(messages, inv)``.

        With W_ij = 1/(2 CN_ij), the first message depends on a pair only
        through the integers (D_i + D_j, max(CN_ij, 1)), CN = 0 read as 1 by
        the fallback of ``PairWeights``. Pairs with equal counts form one
        class and share one update input, bit for bit. ``messages`` holds
        each class's message (D_i + D_j) W_ij, formed from the class's own
        two counts and ordered by them, and the symmetric n x n int32
        ``inv`` holds each pair's class.
        """
        d = self.stats.degree_counts.astype(np.intp)
        d_min = d.min()
        d -= d_min
        cn = self.weights.counts.astype(np.intp)
        np.maximum(cn, 1, out=cn)
        cn_min = cn.min()
        cn -= cn_min
        base = cn.max() + 1
        key = np.add.outer(d, d)
        key *= base
        key += cn
        del cn
        # a counting pass over the integer keys, where np.unique would sort
        present = np.bincount(key.ravel()) > 0
        inv = (np.cumsum(present) - 1).astype(np.int32)[key]
        del key
        keys = np.flatnonzero(present)
        degree_sums = (keys // base + 2 * d_min).astype(np.float64)
        return degree_sums * self.weights.of(keys % base + cn_min), inv

    @cached_property
    def neighbors(self) -> tuple:
        """The neighbor lists as ``(indptr, indices)``: node i's neighbors,
        ascending, are ``indices[indptr[i]:indptr[i + 1]]``."""
        rows, cols = np.nonzero(self.adjacency)
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return indptr, cols

    def neighbor_keys(self, lo, hi) -> np.ndarray:
        """For each pair (lo, hi), the flat indices a n + z of its message's
        terms: z over N(lo) with a = hi, then z over N(hi) with a = lo,
        each neighbor list ascending."""
        indptr, neighbors = self.neighbors
        owner = np.stack([lo, hi], axis=1).ravel()  # each pair's two halves
        lengths = np.diff(indptr)[owner]
        ends = np.cumsum(lengths)
        pos = np.arange(ends[-1] if len(ends) else 0)
        pos += np.repeat(indptr[owner] - (ends - lengths), lengths)
        keys = np.repeat(np.stack([hi, lo], axis=1).ravel(), lengths)
        keys *= self.n
        keys += neighbors[pos]
        return keys

    def upper_rows(self) -> np.ndarray:
        """Flat indices i n + j of the i <= j pairs, row-major: the rows of
        every update net but layer 0's classes."""
        i, j = np.triu_indices(self.n)
        return i * self.n + j

    @staticmethod
    def _row_kind(t: int, message) -> str:
        return "classes" if t == 0 and message.is_neighbor_projection else "upper"

    def row_inv(self, t: int, message) -> np.ndarray:
        """The symmetric n x n map from each pair to its row in layer t:
        its count class in layer 0, else its i <= j row (int32, built per
        call so that none is alive while an update net runs)."""
        if self._row_kind(t, message) == "classes":
            return self.first_classes[1]
        i, j = np.triu_indices(self.n)
        inv = np.empty((self.n, self.n), dtype=np.int32)
        inv[i, j] = inv[j, i] = np.arange(len(i), dtype=np.int32)
        return inv

    def row_inputs(self, f, message, m=None) -> np.ndarray:
        """A layer's update input [x, m] at its rows, joined in one array:
        the count classes from all ones (``f`` is None), or the i <= j rows
        of ``f`` and of its messages, gathered row strip by row strip. The
        dense messages are written into ``m`` when it is an array of their
        shape."""
        if f is None:
            messages, width = self.first_classes[0], message.width_out
            u = np.empty((len(messages), 2 * width))
            u[:, :width] = 1.0
            u[:, width:] = messages[:, None]
            return u
        m = self.dense_messages(f, message, m)
        n, width = self.n, f.shape[2]
        u = np.empty((n * (n + 1) // 2, width + m.shape[2]))
        lo = 0
        for i in range(n):  # row i holds the pairs (i, i), ..., (i, n - 1)
            hi = lo + n - i
            u[lo:hi, :width] = f[i, i:]
            u[lo:hi, width:] = m[i, i:]
            lo = hi
        return u

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
        """The messages at ``pairs`` where no map serves: from all ones
        (``f`` is None) (D_i + D_j) W_ij, else one product A F_k per channel
        on the dense features and a gather, (A F_k)_ij + (A F_k)_ji."""
        i, j = pairs[:, 0], pairs[:, 1]
        if not message.is_neighbor_projection:
            return _general_pair_messages(self.adjacency, f, message, self.weights)[i, j]
        w = self.weights[i, j]
        if f is None:
            d = self.stats.degree_counts
            return np.repeat(((d[i] + d[j]) * w)[:, None], message.width_out, axis=1)
        m = np.empty((len(pairs), f.shape[2]))
        for k in range(f.shape[2]):
            y = self.adjacency @ f[:, :, k]
            m[:, k] = y[i, j] + y[j, i]
        return m * w[:, None]

    def _query_map(self, mpnn: Mpnn, pairs, record: bool) -> "_QueryMap | None":
        """The map of a pass of ``mpnn`` queried at ``pairs``, or None where
        the dense product serves: for one layer, a message other than the
        neighbor projection, or more than _MAP_C n^2 entries (_MAP_C_ONCE
        n^2 for a pass that is not recorded). Its source is the rows of
        the layer below, or its dense features below a closed-form update.
        The last map built is kept and serves every pass at the same pairs
        from the same kind of source."""
        last = mpnn.depth - 1
        entries = self.stats.degree_counts[pairs].sum()
        if (last == 0 or not mpnn.layers[last][0].is_neighbor_projection
                or entries > (_MAP_C if record else _MAP_C_ONCE) * self.n ** 2):
            return None
        message, update = mpnn.layers[last - 1]
        kind = "dense" if update.net is None else self._row_kind(last - 1, message)
        kept = self._map
        if kept is None or kept.kind != kind or not np.array_equal(kept.pairs, pairs):
            self._map = None  # release the old map before building the new
            inv = None if update.net is None else self.row_inv(last - 1, message)
            self._map = _QueryMap(self, pairs, inv, kind)
        return self._map

    def forward(self, mpnn: Mpnn, pairs=None, record: bool = False):
        """Run the discrete pairwise recursion from the all-ones start.

        Returns ``(values, tape)``. Without ``pairs``, values is the dense
        (n, n, F) tensor. With ``pairs`` (k x 2), the last layer is
        evaluated at those pairs only and values is (k, F). Pair features
        are exactly symmetric: an update net runs on its layer's rows (one
        per count class in layer 0, one per i <= j pair after), and the
        dense features are gathered as ``out[inv]``; closed-form updates
        run elementwise on the dense tensor.
        With ``record``, ``pairs`` is required and tape is the ``Tape`` to
        backpropagate through; otherwise tape is None.

        A queried last layer reads the layer below through the map of
        ``_query_map`` where one serves: E gathered rows and one segmented
        sum, O(E) for E = sum over the pairs of (D_i + D_j). The rows of a
        net below it are then never expanded to ``out[inv]``, so a
        two-layer pass at queried pairs does no n x n work once layer 0's
        classes and the map are built. Otherwise one product A F per
        channel serves, and its entries at the pairs are gathered.

        The dense layers hold one feature buffer ``f`` and one message
        buffer ``m`` for the whole pass. When layer 0's message is the
        neighbor projection, which reads no features, the all-ones start
        is never built (``f`` is None). The ratio update writes
        f / max(m, EPS_DIV) back into ``f``; in layer 0 it writes
        1 / max(m, EPS_DIV) into ``m``, which becomes ``f``. An update net
        reads only its joined rows [x, m], so both buffers are released
        while it runs, and ``out[inv]`` becomes the new ``f``.
        """
        n = self.n
        _require_size(n, mpnn)
        if record:
            require_tape(mpnn, pairs, "pair")
        qmap = None
        if pairs is not None:
            pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
            qmap = self._query_map(mpnn, pairs, record)
        widths = mpnn.feature_dims
        f = None if mpnn.layers[0][0].is_neighbor_projection else np.ones((n, n, widths[0]))
        m = None
        caches = []
        last = mpnn.depth - 1
        for t, (message, update) in enumerate(mpnn.layers):
            width = widths[t]
            if pairs is not None and t == last:
                u = np.empty((len(pairs), width + message.width_out))
                if qmap is not None:
                    src = f.reshape(-1, width)
                    u[:, :width] = src[qmap.own]
                    qmap.messages(src, out=u[:, width:])
                else:
                    u[:, :width] = 1.0 if f is None else f[pairs[:, 0], pairs[:, 1]]
                    u[:, width:] = self.queried_messages(f, message, pairs)
                out, cache = update_rows(update, u, record)
                caches.append(cache)
                _require_finite(out)
                if not record:
                    return out, None
                n_rows = len(src) if qmap is not None else None
                return out, Tape(mpnn, caches, self._pull(mpnn, pairs, qmap, n_rows))
            if update.net is None:
                m = self.dense_messages(f, message, m)
                if f is None:
                    f, m = update(1.0, m, out=m), None
                else:
                    f = update(f, m, out=f)
            else:
                u = self.row_inputs(f, message, m)
                f = m = None  # only the joined rows are alive while the net runs
                out, cache = update_rows(update, u, record)
                del u
                caches.append(cache)
                # the map below a queried layer reads these rows as they are
                f = out if qmap is not None and t == last - 1 else out[self.row_inv(t, message)]
            _require_finite(f)
        return f, None

    def _pull(self, mpnn: Mpnn, pairs: np.ndarray, qmap, n_rows):
        """The tape's pull for a pass queried at ``pairs``.

        The last layer's output rows are the returned values. Where the
        pass took the map ``qmap``, the last layer's pull is its transpose
        onto the ``n_rows`` rows below (``_QueryMap.pull``): O(E), and no
        n x n array. Every other layer's pull is dense: one bincount over
        the flat indices of its rows (the queried pairs for the last layer,
        the i <= j pairs under it) scatters the message gradients to an
        n x n matrix G; with S = G + G^T the gradient of the dense features
        below is A S. A second bincount over the layer below's ``inv`` sums
        that gradient onto its rows: d_ij + d_ji for an i <= j row, the sum
        over its pairs for a count class.
        """
        n, widths = self.n, mpnn.feature_dims
        queried = pairs[:, 0] * n + pairs[:, 1]

        def pull(t, d):
            if t == mpnn.depth:
                return np.asarray(d, dtype=float)
            width = widths[t]
            if qmap is not None and t == mpnn.depth - 1:
                return qmap.pull(d[:, :width], d[:, width:], n_rows)
            flat = queried if t == mpnn.depth - 1 else self.upper_rows()
            inv = self.row_inv(t - 1, mpnn.layers[t - 1][0]).ravel()
            delta = []
            for k in range(width):
                g = np.bincount(flat, weights=d[:, width + k], minlength=n * n)
                g = self.weights.scale(g.reshape(n, n))
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
