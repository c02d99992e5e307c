"""Pairwise embeddings: discrete message passing over node pairs and its
exact continuous counterpart on the block model.

The discrete recursion for a pair (i, j) aggregates over shared third
nodes, normalized by the common-neighbor fraction c(i, j):

    m_ij = (1 / (2n c_ij)) sum_z [ A_jz msg(f_ij, f_iz) + A_iz msg(f_ij, f_jz) ]
    f_ij <- upd(f_ij, m_ij)

For the neighbor-projection message this reduces to adjacency matrix
products per feature channel, the fast path that makes n = 8192 feasible;
every product runs in the row strips of ``GraphStats.product``, which
widens the packed adjacency one strip at a time.
Pair features are exactly symmetric, which ``PairGraph.forward`` uses
four ways: one product A F per channel gives both F A and A F; from the
all-ones start the first message needs no product; the dense messages are
held on the i <= j triangle alone (``_Triangle``), completed strip by
strip as the product's strips arrive; and each update net runs on fewer
rows than n^2. Every dense message, layer 0's included, comes from
``PairGraph.dense_messages``. ``PairGraph._plan`` decides once per pass
which rows each layer runs on: layer 0's classes of equal counts (its
message depends on a pair only through two integers), the i <= j pairs
or the dense features, with a symmetric map ``inv`` from every pair to
its row where the rows are expanded to dense features. Callers that read
only some pairs get the last layer at those pairs alone, and the ``Tape``
it records backpropagates through the pass. There the last layer's
message is linear in the rows of the layer below: it reads them through a
sparse map fixed for the graph and the pairs (``_QueryMap``), whose pull
is its transpose, or where no map serves, the dense messages at the
pairs. A map over layer 0's classes reads the graph at the pairs'
endpoints alone, their neighbor lists and their rows of the
common-neighbor counts, and the pass that copies those rows out of the
counts' row blocks (``GraphStats.common_neighbor_blocks``) also finds the
classes: a queried two-layer pass holds no n x n array.
The continuous recursion collapses to r x r block-pair states.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .mpnn import (
    Mpnn,
    NeighborProjection,
    NetFunction,
    RatioUpdate,
    Tape,
    block_recursion,
    require_finite,
    require_tape,
    update_rows,
)
from .nn import init_net
from .sbm import (CountTriangle, GraphStats, SampledGraph, SbmSpec, count_dtype,
                  graphon_common_neighbors)

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

#: Entries a map reads at once, in either direction: a block's int32
#: indices take 128 KiB, and its gathered rows and its pulled gradients
#: 256 KiB apiece per channel, and they stay in cache.
_MAP_BLOCK = 1 << 15

#: Edge of the square tiles that every dense message is completed and
#: weighted in, that the ratio update mirrors the features in, and that
#: ``_symmetrize`` weights every dense pull in: a tile's sum and its
#: weights are 32 KiB each, and a tile and its mirror stay in cache
#: together. ``PairGraph.count_rows`` marks layer 0's class keys, and
#: ``PairGraph.row_inv`` reads the classes, in strips of as many rows.
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
    fraction c_ij = CN_ij / n, as a function of integer counts ``counts``
    indexed like W: the counts' triangle that ``GraphStats`` holds (two
    bytes per count, read through ``sbm.CountTriangle``), a block of it, or
    some rows of the counts. W is formed in float64 where it is read and no
    n x n array of it is held.

    ``weights[index]`` is W at ``counts[index]``: on the triangle a tile, a
    row strip, a row or pairs, and a tile inside one of its blocks reads a
    view of the block. ``of`` forms W from given counts, and is the one
    place the fallback is applied: CN_ij = 0 is read as 1, so that
    c_ij = 1/n.
    """

    def __init__(self, counts: np.ndarray, n: int):
        self.counts, self.n = counts, n

    def __getitem__(self, index) -> np.ndarray:
        return self.of(self.counts[index])

    def block(self, rows: slice, cols: slice) -> "PairWeights":
        """The weights of the pairs ``rows`` x ``cols``, indexed from
        (rows.start, cols.start): a view of the counts' block where the
        rows lie in one strip of the triangle and the columns from its
        start on."""
        return PairWeights(self.counts[rows, cols], self.n)

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


def pair_message_weights(stats: GraphStats) -> PairWeights:
    """The message weights of the graph that ``stats`` counts, as a
    function of its integer common-neighbor counts (``PairWeights``) on
    their i <= j triangle in the product's strips (``CountTriangle``): it
    reads ``stats.common_neighbors`` once and allocates no n x n array."""
    n = stats.n
    return PairWeights(CountTriangle(n, stats.strip_rows, stats.common_neighbors), n)


class _CountClasses:
    """Layer 0's count classes of one graph.

    With W_ij = 1/(2 CN_ij), the first message depends on a pair only
    through the integers (D_i + D_j, max(CN_ij, 1)), CN = 0 read as 1 by the
    fallback of ``PairWeights``. Pairs with equal counts form one class and
    share one update input, bit for bit. A pair's key is
    (D_i + D_j - 2 D_min) base + max(CN_ij, 1) - 1 with base = max(D_max, 1):
    CN_ij <= D_max, so the keys order the classes by degree sum, then by
    count, and the range of the counts need not be known before they are.

    ``mark`` enters the keys of a block of pairs in a bool table over their
    range (a counting pass, where np.unique would sort); ``close`` numbers
    the marked keys in order, ``index[key]``, and forms ``messages``, each
    class's message (D_i + D_j) W_ij from the class's own two counts. Then
    ``of`` reads the classes of any pairs whose counts are given.
    """

    def __init__(self, stats: GraphStats):
        self.n = stats.n
        d = stats.degree_counts.astype(np.intp)
        self.d_min = d.min()
        self.d = d - self.d_min
        self.base = max(int(d.max()), 1)
        self.present = np.zeros((2 * int(self.d.max()) + 1) * self.base, dtype=bool)
        self.index = self.messages = None

    def keys(self, i, j, counts) -> np.ndarray:
        """The keys of the pairs (i, j), node indices that broadcast against
        each other and against their common-neighbor counts ``counts``."""
        key = self.d[i] + self.d[j]
        key *= self.base
        key += np.maximum(counts, 1).astype(np.intp)
        key -= 1
        return key

    def mark(self, i, j, counts) -> None:
        self.present[self.keys(i, j, counts)] = True

    def close(self) -> None:
        self.index = np.cumsum(self.present, dtype=np.int32)
        self.index -= 1
        keys = np.flatnonzero(self.present)
        self.present = None
        degree_sums = (keys // self.base + 2 * self.d_min).astype(np.float64)
        self.messages = degree_sums * PairWeights(keys % self.base + 1, self.n)[...]

    def of(self, i, j, counts) -> np.ndarray:
        """The classes (int32) of the pairs (i, j), as ``keys`` reads them."""
        return self.index[self.keys(i, j, counts)]


class _Triangle:
    """One layer's dense messages, symmetric, held on the i <= j triangle
    in the row strips of ``GraphStats.product``.

    Block b holds the rows of strip b, from s = ``starts[b]`` on, at the
    columns s to n - 1, channels last: m_ij for i <= j is
    ``blocks[b][i - s, j - s]``, with b the strip of i. A block's leading
    square, its strip's diagonal block, holds both halves, so the update,
    which reads whole blocks, finds the same message at (i, j) and (j, i).
    ``strip`` is the buffer one strip's product is written into, and the
    last block is a view of it: a graph of one strip holds one n x n
    buffer per channel, a larger one about n^2 / 2 plus one strip.
    """

    def __init__(self, n: int, rows: int, width: int):
        self.n, self.rows = n, rows
        self.starts = range(0, n, rows)
        self.strip = np.empty((min(rows, n), n, width))
        last = self.starts[-1]
        self.blocks = [np.empty((rows, n - s, width)) for s in self.starts[:-1]]
        self.blocks.append(self.strip[: n - last, last:])

    @property
    def width(self) -> int:
        return self.strip.shape[2]

    def row(self, i: int) -> np.ndarray:
        """The messages m_ij at j = i, ..., n - 1: a view (n - i, width)."""
        b, a = divmod(i, self.rows)
        return self.blocks[b][a, a:]

    def at(self, i, j) -> np.ndarray:
        """The messages at the pairs (i, j), read at (min, max): (k, width)."""
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        strip, a = np.divmod(lo, self.rows)
        out = np.empty((len(lo), self.width))
        for b, (block, s) in enumerate(zip(self.blocks, self.starts)):
            at = strip == b
            out[at] = block[a[at], hi[at] - s]
        return out

    def update(self, update, f) -> np.ndarray:
        """The closed-form ``update`` (x, m) -> x' of every pair, written
        into the dense features ``f``, or from the all-ones start into a new
        array when ``f`` is None, and returned. It runs on each block in
        one call, the strip's diagonal block whole, then mirrors the rest
        of the block below the strip tile by tile, and spends the messages:
        ``update`` may write its guard into them. A graph of one strip
        mirrors nothing."""
        n = self.n
        out = np.empty((n, n, update.width_out)) if f is None else f
        for block, s in zip(self.blocks, self.starts):
            end = s + len(block)
            x = out[s:end, s:]
            update(1.0 if f is None else x, block, out=x)
            for lo in range(s, end, _TILE):
                rows = slice(lo, min(lo + _TILE, end))
                for lo2 in range(end, n, _TILE):
                    cols = slice(lo2, lo2 + _TILE)
                    out[cols, rows] = out[rows, cols].swapaxes(0, 1)
        return out


def _general_pair_messages(graph, f, message, weights, m) -> None:
    """Writes the messages of a message function other than the neighbor
    projection into the triangle ``m``, row i at a time from the diagonal
    on, and within i's strip into column i too, each row weighted by W's
    row i (``weights[i]``, gathered from the counts' triangle); the
    adjacency is unpacked one strip of _TILE rows at a time."""
    n, _, width = f.shape
    mi = np.empty((n, m.width))
    for i in range(n):
        fij = np.broadcast_to(f[i][:, None, :], (n, n, width))
        own = message(fij, np.broadcast_to(f[i][None, :, :], (n, n, width)))
        other = message(fij, f)
        for lo in range(0, n, _TILE):
            mi[lo : lo + _TILE] = np.einsum("jz,jzh->jh", graph.rows(lo, lo + _TILE),
                                            own[lo : lo + _TILE])
        mi += np.einsum("z,jzh->jh", graph.rows(i, i + 1)[0], other)
        mi *= weights[i][:, None]
        b, a = divmod(i, m.rows)
        block = m.blocks[b]
        block[a, a:] = mi[i:]
        block[a:, a] = mi[i : m.starts[b] + len(block)]


def _complete(dst, src, weights):
    """Writes (dst + src^T) W into ``dst`` in place, tile by tile, with W
    read from ``weights`` indexed like ``dst``: ``dst`` holds Y_ij for the
    rows i of one strip at the columns j of a later one, and ``src`` the
    later strip's Y_ji."""
    rows, cols = dst.shape
    for lo in range(0, rows, _TILE):
        r = slice(lo, lo + _TILE)
        for lo2 in range(0, cols, _TILE):
            c = slice(lo2, lo2 + _TILE)
            d = dst[r, c]
            np.multiply(d + src[c, r].T, weights[r, c], out=d)


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


def _blocks(starts: np.ndarray, total: int) -> np.ndarray:
    """Cuts of the segments beginning at ``starts`` (ascending; the last
    ends at ``total``) into blocks of about _MAP_BLOCK entries, each cut at
    a segment's start; a segment longer than a block is a block alone."""
    cuts = np.concatenate([[0], np.searchsorted(starts, np.arange(_MAP_BLOCK, total, _MAP_BLOCK)),
                           [len(starts)]])
    return cuts[np.diff(cuts, prepend=-1) > 0]


def _terms(indptr, neighbors, at_lo, at_hi) -> tuple:
    """For each pair, given by the positions of its endpoints lo <= hi in
    the neighbor lists ``(indptr, neighbors)``, the terms (a, z) of its
    message, as two arrays: z over N(lo) with a = hi's position, then z
    over N(hi) with a = lo's, each list ascending."""
    owner = np.stack([at_lo, at_hi], axis=1).ravel()  # each pair's two halves
    lengths = np.diff(indptr)[owner]
    ends = np.cumsum(lengths)
    pos = np.arange(ends[-1] if len(ends) else 0)
    pos += np.repeat(indptr[owner] - (ends - lengths), lengths)
    return np.repeat(np.stack([at_hi, at_lo], axis=1).ravel(), lengths), neighbors[pos]


class _QueryMap:
    """The last layer's messages at k queried pairs as a sparse map from
    the rows of the layer below, fixed for one graph and one set of pairs.

    Per channel, m_ij = W_ij (sum_{z in N(i)} src[key(j, z)]
    + sum_{z in N(j)} src[key(i, z)]), where ``src`` holds the ``n_rows``
    rows of the layer below, its ``kind`` of rows (a ``PairGraph._plan``
    entry), and key(a, z) is the row of the pair (a, z): its count class
    for "classes", its row in the map ``PairGraph.row_inv`` for "upper",
    the flat index a n + z of the dense features for "dense". The E
    entries of ``idx`` form one segment per pair, ``lengths[p]`` long from
    ``starts[p]``: the smaller endpoint's neighbors first, each list
    ascending, so that (i, j) and (j, i) add in one order and stay bitwise
    symmetric. ``own`` holds each pair's own row, its update input x. Both
    directions read ``idx`` in the blocks of ``_blocks``; it and ``own``
    keep 4 bytes per entry (int32) while ``n_rows < 2**31``, until a
    recorded pass reads the map (``widen``).

    Every term is a pair (a, z) with a an endpoint, so the map reads the
    graph at its endpoints alone: their neighbor lists, and for "classes"
    their rows of the common-neighbor counts (``PairGraph.count_rows``),
    from which the classes, ``own`` and the weights ``w`` are read; no
    n x n array is formed. The other kinds read the row map and the
    weights of the dense layers below.
    """

    def __init__(self, graph: "PairGraph", pairs, kind: str):
        n = graph.n
        self.kind, self.pairs = kind, pairs.copy()
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        nodes = np.unique(pairs)
        at_lo, at_hi = np.searchsorted(nodes, lo), np.searchsorted(nodes, hi)
        indptr, neighbors = graph.neighbor_lists(nodes)
        degree = np.diff(indptr)
        self.lengths = degree[at_lo] + degree[at_hi]
        self.starts = np.cumsum(self.lengths) - self.lengths
        if kind == "classes":
            counts = graph.count_rows(nodes)
            classes = graph.first_classes
            self.n_rows = len(classes.messages)
            self.w = PairWeights(counts, n)[at_lo, hi]

            def rows_of(at, z):  # the rows of the pairs (nodes[at], z)
                return classes.of(nodes[at], z, counts[at, z])
        else:
            inv = graph.row_inv(kind)
            self.n_rows = n * n if inv is None else int(inv.max()) + 1
            flat = None if inv is None else inv.ravel()
            self.w = graph.weights[lo, hi]

            def rows_of(at, z):
                keys = nodes[at] * n + z
                return keys if flat is None else flat[keys]
        index = np.int32 if self.n_rows < 2**31 else np.intp
        self.own = rows_of(at_lo, hi).astype(index)
        self.idx = np.empty(int(self.lengths.sum()), dtype=index)
        self.cuts = _blocks(self.starts, len(self.idx))
        for a, b, first, last in self._spans():  # so that the intp keys stay block-sized
            self.idx[first:last] = rows_of(*_terms(indptr, neighbors, at_lo[a:b], at_hi[a:b]))
        self._buf = None

    def widen(self) -> None:
        """Holds ``idx`` and ``own`` as intp, numpy's native index. A
        recorded pass reads the map twice an epoch, every epoch of a
        training run, and ``np.take`` and ``np.add.at`` would convert every
        int32 entry each time: on a 1.39 M-entry map a blocked gather takes
        1.37 ms with int32 entries and 1.01 ms with intp, a blocked scatter
        2.46 and 1.80 ms (Xeon, numpy 2.4.6). A map read once for scoring
        keeps the int32 entries, half the bytes."""
        self.idx = self.idx.astype(np.intp, copy=False)
        self.own = self.own.astype(np.intp, copy=False)

    def _spans(self):
        """Each block's pairs [a, b) and its entries [lo, hi)."""
        starts, cuts = self.starts, self.cuts
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield a, b, starts[a], starts[b] if b < len(starts) else len(self.idx)

    def messages(self, src, out) -> None:
        """Writes the messages at the pairs, read from the rows ``src``,
        into ``out`` (k, width): each block's rows are gathered into one
        reused buffer whose last row stays zero and summed per segment. A
        block's trailing empty segment reads that zero; an empty segment
        elsewhere reads the next segment's first entry, as reduceat does,
        and is set to 0."""
        width = src.shape[1]
        if self._buf is None or self._buf.shape[1] != width:
            size = max((hi - lo for _, _, lo, hi in self._spans()), default=0)
            self._buf = np.zeros((size + 1, width))
        for a, b, lo, hi in self._spans():
            block = self._buf[: hi - lo + 1]
            np.take(src, self.idx[lo:hi], axis=0, out=block[:-1], mode="clip")
            block[-1] = 0.0
            np.add.reduceat(block, self.starts[a:b] - lo, axis=0, out=out[a:b])
        out[self.lengths == 0] = 0.0
        out *= self.w[:, None]

    def pull(self, d_x, d_m) -> np.ndarray:
        """The gradient at the source rows of <d_x, x> + <d_m, m>: per
        block, each pair's d_m W repeated over its entries and added onto
        their rows by ``np.add.at``, in entry order; then d_x at each
        pair's own row. Nothing is sorted."""
        g = d_m * self.w[:, None]
        d = np.zeros((self.n_rows, g.shape[1]))
        for k in range(g.shape[1]):
            dk = d[:, k]
            for a, b, lo, hi in self._spans():
                np.add.at(dk, self.idx[lo:hi], np.repeat(g[a:b, k], self.lengths[a:b]))
        np.add.at(d, self.own, d_x)
        return d


class PairGraph:
    """One graph as the pairwise recursion reads it, and the recursion on it.

    What every pass reads of the graph is computed once from the counts in
    ``stats`` and shared: layer 0's count classes (``first_classes``),
    their n x n map where a pass expands them, and the map of the last
    pass queried at pairs, which reads the neighbor lists and the
    common-neighbor counts at the pairs' endpoints alone (``count_rows``).
    The message weights are no array: ``weights``, formed for the first
    dense layer from the whole counts, which live on the i <= j triangle in
    the product's strips, reads them at each tile, row or set of pairs a
    pass reads: a tile of the dense messages' triangle reads a view of the
    counts' block in the same strip. Every product with the adjacency runs
    in the row strips of ``stats.product``; the neighbor lists and the
    messages other than the neighbor projection unpack it a strip of rows
    at a time. Dense messages live on the i <= j triangle.
    ``_plan`` gives each layer of a pass its rows, read by ``forward``,
    ``_query_map`` and the pull alike, and ``row_inv`` maps every pair to
    its row. ``forward`` serves every caller: the dense sweeps (through
    ``gmpnn_pair``), scoring at queried pairs, and training, frozen or by
    backprop through the tape it records.
    """

    def __init__(self, graph: SampledGraph, stats: GraphStats):
        self.n = graph.n
        self.graph = graph
        self.stats = stats
        self._classes = None
        self._map = None

    @cached_property
    def weights(self) -> PairWeights:
        """The message weights of the dense layers (``pair_message_weights``),
        formed on first use: they read the whole common-neighbor counts,
        which a pass that reads layer 0 through a map never builds."""
        return pair_message_weights(self.stats)

    @property
    def first_classes(self) -> _CountClasses:
        """Layer 0's count classes (``_CountClasses``), built once: while a
        map streams its endpoints' counts (``count_rows``), or else from the
        whole counts, which a pass that expands the classes reads anyway."""
        if self._classes is None:
            self.stats.common_neighbors  # built whole, for the dense layers too
            self.count_rows(np.zeros(0, dtype=np.intp))
        return self._classes

    def count_rows(self, nodes) -> np.ndarray:
        """The rows of the common-neighbor counts at the ascending, distinct
        ``nodes``: (len(nodes), n), in one pass over the blocks of
        ``stats.common_neighbor_blocks``, which read the whole counts where
        they are built (blocks of their triangle) and else compute each
        block and let it go. A row is copied from the blocks at its rows
        and from the mirror of those at its columns. The same pass marks
        layer 0's count classes when they are not yet built: every pair's
        key is in a block or its mirror, and keys are symmetric. No n x n
        array is formed."""
        n, stats = self.n, self.stats
        out = np.empty((len(nodes), n), dtype=count_dtype(n))
        classes = _CountClasses(stats) if self._classes is None else None
        for lo, lo2, c in stats.common_neighbor_blocks():
            h, w = c.shape
            if classes is not None:
                for t in range(0, h, _TILE):
                    i, j = np.ogrid[lo + t : lo + min(t + _TILE, h), lo2 : lo2 + w]
                    classes.mark(i, j, c[t : t + _TILE])
            a, b = np.searchsorted(nodes, [lo, lo + h])
            out[a:b, lo2 : lo2 + w] = c[nodes[a:b] - lo]
            if lo2 > lo:
                a, b = np.searchsorted(nodes, [lo2, lo2 + w])
                out[a:b, lo : lo + h] = c[:, nodes[a:b] - lo2].T
        if classes is not None:
            classes.close()
            self._classes = classes
        return out

    @cached_property
    def _class_inv(self) -> np.ndarray:
        """The symmetric n x n int32 map from each pair to its count class,
        read from the blocks of the whole counts (``first_classes`` builds
        them) one strip of _TILE rows at a time, and written with its
        mirror where a block lies right of its strip."""
        n, classes = self.n, self.first_classes
        inv = np.empty((n, n), dtype=np.int32)
        for lo, lo2, c in self.stats.common_neighbor_blocks():
            h, w = c.shape
            for t in range(0, h, _TILE):
                rows = slice(lo + t, lo + min(t + _TILE, h))
                i, j = np.ogrid[rows, lo2 : lo2 + w]
                keys = classes.of(i, j, c[t : t + _TILE])
                inv[rows, lo2 : lo2 + w] = keys
                if lo2 > lo:
                    inv[lo2 : lo2 + w, rows] = keys.T
        return inv

    def neighbor_lists(self, nodes) -> tuple:
        """The neighbor lists of the ascending, distinct ``nodes`` as
        ``(indptr, indices)``: the neighbors of ``nodes[p]``, ascending, are
        ``indices[indptr[p]:indptr[p + 1]]``. ``indptr`` is the running sum
        of their degree counts, and the int32 ``indices`` are filled one
        strip of _TILE rows at a time."""
        n = self.n
        indptr = np.zeros(len(nodes) + 1, dtype=np.intp)
        np.cumsum(self.stats.degree_counts[nodes].astype(np.intp), out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        starts = range(0, n, _TILE)
        bounds = np.searchsorted(nodes, [*starts, n])
        for lo, a, b in zip(starts, bounds, bounds[1:]):
            if a < b:
                rows = self.graph.rows(lo, lo + _TILE)[nodes[a:b] - lo]
                indices[indptr[a] : indptr[b]] = np.nonzero(rows)[1]
        return indptr, indices

    def upper_rows(self) -> np.ndarray:
        """Flat indices i n + j of the i <= j pairs, row-major: the
        "upper" rows."""
        i, j = np.triu_indices(self.n)
        return i * self.n + j

    def row_inv(self, rows: str):
        """The symmetric n x n map from each pair to its row among
        ``rows``, a ``_plan`` entry: its count class for "classes", its
        i <= j row for "upper" (int32, built per call so that none is alive
        while an update net runs), and None for "dense" rows, which are the
        pairs themselves at their flat indices."""
        if rows == "classes":
            return self._class_inv
        if rows == "dense":
            return None
        i, j = np.triu_indices(self.n)
        inv = np.empty((self.n, self.n), dtype=np.int32)
        inv[i, j] = inv[j, i] = np.arange(len(i), dtype=np.int32)
        return inv

    def row_inputs(self, rows: str, f, message, m=None, pairs=None) -> np.ndarray:
        """A layer's update input [x, m] at its ``rows`` (a ``_plan``
        entry), joined in one array: the count classes from all ones; the
        pairs, read through the kept map from the rows ``f`` below ("map")
        or from the dense ``f`` and its messages ("pairs"); or the i <= j
        rows of ``f`` and its messages, ``m[i, i:]`` copied from the
        triangle. The dense messages go into the triangle ``m`` when it has
        their width; ``f`` is None for the all-ones start."""
        width = message.width_in // 2
        if rows == "classes":
            messages = self.first_classes.messages
            u = np.empty((len(messages), width + message.width_out))
            u[:, :width] = 1.0
            u[:, width:] = messages[:, None]
            return u
        if rows == "map":
            src = f.reshape(-1, width)
            u = np.empty((len(pairs), width + message.width_out))
            u[:, :width] = src[self._map.own]
            self._map.messages(src, out=u[:, width:])
            return u
        m = self.dense_messages(f, message, m)
        if rows == "pairs":
            i, j = pairs[:, 0], pairs[:, 1]
            u = np.empty((len(pairs), width + m.width))
            u[:, :width] = 1.0 if f is None else f[i, j]
            u[:, width:] = m.at(i, j)
            return u
        n = self.n
        u = np.empty((n * (n + 1) // 2, width + m.width))
        lo = 0
        for i in range(n):  # row i holds the pairs (i, i), ..., (i, n - 1)
            hi = lo + n - i
            u[lo:hi, :width] = f[i, i:]
            u[lo:hi, width:] = m.row(i)
            lo = hi
        return u

    def dense_messages(self, f, message, out=None) -> _Triangle:
        """One layer's messages on the dense symmetric features ``f``, or on
        the all-ones start when ``f`` is None, on the i <= j triangle
        (``_Triangle``); written into the triangle ``out`` when it has their
        width. Every dense message of a pass comes from here, a queried
        last layer's without a map included, and no n x n array is formed.

        For the neighbor projection and symmetric F and A, F A = (A F)^T,
        so each channel costs one product Y = A F_k and m_k = (Y + Y^T) W.
        Strip by strip, one ``stats.strip_product`` writes the strip's rows
        of Y into the triangle's strip buffer. Their part left of the
        strip's diagonal completes the blocks of the earlier strips there,
        Y_ij + Y_ji weighted per tile (``_complete``); their part from the
        diagonal on is the strip's block, whose leading square is
        symmetrized in place (``_symmetrize``), and whose rest waits for
        the later strips. The products are those of ``stats.product``, bit
        for bit, and so is every message. From all ones Y is the degree D_i
        in row i and needs no product; D_i + D_j is an exact integer, so
        layer 0's message is bitwise (D_i + D_j) W_ij.
        """
        width = message.width_out
        if out is not None and out.width == width:
            m = out
        else:
            m = _Triangle(self.n, self.stats.strip_rows, width)
        if not message.is_neighbor_projection:
            _general_pair_messages(self.graph, f, message, self.weights, m)
            return m
        weights, last = self.weights, len(m.blocks) - 1
        for b, (block, s) in enumerate(zip(m.blocks, m.starts)):
            end = s + len(block)
            strip = slice(s, end)
            y = m.strip[: end - s]
            for k in range(width):
                yk = y[:, :, k]
                if f is None:
                    yk[...] = self.stats.degree_counts[strip, None]
                else:
                    self.stats.strip_product(s, f[:, :, k], yk)
                for done, s2 in zip(m.blocks[:b], m.starts):
                    rows = slice(s2, s2 + len(done))
                    _complete(done[:, s - s2 : end - s2, k], yk[:, rows],
                              weights.block(rows, strip))
                if b < last:  # the last block is the strip buffer itself
                    block[:, :, k] = yk[:, s:]
                _symmetrize(block[:, : end - s, k], weights.block(strip, strip))
        return m

    def _plan(self, mpnn: Mpnn, pairs, record: bool) -> list:
        """The rows of each layer of a pass of ``mpnn``, queried at
        ``pairs`` unless they are None: what the layer's update runs on,
        and in the last layer of a queried pass, what it reads.

        - "classes": layer 0's count classes (``first_classes``), where
          layer 0's message is the neighbor projection and either its
          update is a net or a map reads it (T = 2 under "map");
        - "upper": the i <= j pairs, for every other net update;
        - "dense": the dense features, for every other closed-form update;
        - "map": the last layer of a queried pass, where T > 1, its
          message is the neighbor projection and E <= _MAP_C n^2
          (_MAP_C_ONCE n^2 unrecorded): it reads the rows below through
          ``_query_map``, O(E), so they are not expanded to the dense
          ``out[inv]`` (``row_inv``) as every other layer's rows are;
        - "pairs": the last layer of any other queried pass, its dense
          messages read at the pairs.
        """
        layers = mpnn.layers
        plan = ["dense" if update.net is None else "upper" for _, update in layers]
        if pairs is not None:
            entries = self.stats.degree_counts[pairs].sum()
            mapped = (len(layers) > 1 and layers[-1][0].is_neighbor_projection
                      and entries <= (_MAP_C if record else _MAP_C_ONCE) * self.n ** 2)
            plan[-1] = "map" if mapped else "pairs"
        if layers[0][0].is_neighbor_projection and (plan[0] == "upper" or plan[1:] == ["map"]):
            plan[0] = "classes"
        return plan

    def _query_map(self, pairs, rows: str, record: bool) -> _QueryMap:
        """The map of a pass queried at ``pairs`` from the ``rows`` below
        its last layer. The last map built is kept and serves every pass at
        the same pairs from the same rows, so the learnable and the fixed
        two-layer pass share one. A ``record``ed pass widens it to intp
        entries, which every later epoch reads (``_QueryMap.widen``)."""
        kept = self._map
        if kept is None or kept.kind != rows or not np.array_equal(kept.pairs, pairs):
            self._map = None  # release the old map before building the new
            self._map = _QueryMap(self, pairs, rows)
        if record:
            self._map.widen()
        return self._map

    def forward(self, mpnn: Mpnn, pairs=None, record: bool = False, buffers=None):
        """Run the discrete pairwise recursion from the all-ones start.

        Returns ``(values, tape)``. Without ``pairs``, values is the dense
        (n, n, F) tensor. With ``pairs`` (k x 2), the last layer is
        evaluated at those pairs only and values is (k, F). With
        ``record``, ``pairs`` is required and tape is the ``Tape`` to
        backpropagate through, whose update nets write their caches and
        backward arrays into ``buffers``, a training run's ``nn.Buffers``,
        when one is given; otherwise tape is None. Each layer runs on
        the rows that ``_plan`` gives it, and is checked finite there. A
        two-layer pass whose last layer reads the map holds no n x n array
        (on a graph whose whole counts are not built yet, it streams them
        once to find the classes and its endpoints' rows) and does no
        n x n work once layer 0's classes and the map are built.

        The dense layers hold one feature buffer ``f`` and the messages'
        i <= j triangle ``m`` (``_Triangle``) for the whole pass: one n x n
        buffer per channel and about half of another, or two n x n buffers
        where one product strip covers the graph (n <= 1448). When layer
        0's message is the neighbor projection, which reads no features,
        the all-ones start is never built (``f`` is None). The ratio update
        writes f / max(m, EPS_DIV) into ``f`` block by block and mirrors it
        tile by tile (``_Triangle.update``); in layer 0 it writes
        1 / max(m, EPS_DIV) into a new ``f``. An update on rows reads only
        its joined rows [x, m], so ``f`` and ``m`` are released while it
        runs.
        """
        n = self.n
        _require_size(n, mpnn)
        if record:
            require_tape(mpnn, pairs, "pair")
        if pairs is not None:
            pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        plan = self._plan(mpnn, pairs, record)
        qmap = self._query_map(pairs, plan[-2], record) if plan[-1] == "map" else None
        f = (None if mpnn.layers[0][0].is_neighbor_projection
             else np.ones((n, n, mpnn.feature_dims[0])))
        m = None
        caches = []
        for (message, update), rows, above in zip(mpnn.layers, plan, plan[1:] + [None]):
            if rows == "dense":
                m = self.dense_messages(f, message, m)
                f = m.update(update, f)
            else:
                u = self.row_inputs(rows, f, message, m, pairs)
                f = m = None  # only the joined rows are alive while the update runs
                f, cache = update_rows(update, u, record, buffers)
                del u
                caches.append(cache)
            require_finite(f, "pair")
            if rows in ("classes", "upper") and above != "map":
                f = f[self.row_inv(rows)]
        if not record:
            return f, None
        return f, Tape(mpnn, caches, self._pull(mpnn, pairs, plan, qmap), buffers)

    def _pull(self, mpnn: Mpnn, pairs: np.ndarray, plan: list, qmap):
        """The tape's pull for a pass queried at ``pairs`` on the rows of
        ``plan``.

        The last layer's output rows are the returned values. A "map"
        layer pulls through the transpose of ``qmap`` onto the rows below
        (``_QueryMap.pull``): O(E), and no n x n array. A "pairs" or
        "upper" layer pulls densely: one bincount over the flat indices of
        its rows (the queried pairs, or ``upper_rows()``) scatters the
        message gradients to an n x n matrix G. The message (Y + Y^T) W of
        Y = A F pulls back to A ((G + G^T) W): ``_symmetrize`` weights G in
        place, as it does each strip's diagonal block of a forward message,
        and one ``stats.product`` follows. A second bincount over the row
        map of the layer below, ``row_inv(plan[t - 1])``, sums that
        gradient onto its rows: d_ij + d_ji for an i <= j row, the sum over
        its pairs for a count class.
        """
        n, widths = self.n, mpnn.feature_dims
        queried = pairs[:, 0] * n + pairs[:, 1]

        def pull(t, d):
            if t == mpnn.depth:
                return np.asarray(d, dtype=float)
            width = widths[t]
            if plan[t] == "map":
                return qmap.pull(d[:, :width], d[:, width:])
            flat = queried if plan[t] == "pairs" else self.upper_rows()
            inv = self.row_inv(plan[t - 1]).ravel()
            delta = []
            for k in range(width):
                g = np.bincount(flat, weights=d[:, width + k], minlength=n * n).reshape(n, n)
                _symmetrize(g, self.weights)
                dense = self.stats.product(g)
                dense += np.bincount(flat, weights=d[:, k],
                                     minlength=n * n).reshape(n, n)
                delta.append(np.bincount(inv, weights=dense.ravel()))
            return np.stack(delta, axis=-1)

        return pull


def gmpnn_pair(graph: SampledGraph, stats: GraphStats, mpnn: Mpnn) -> np.ndarray:
    """The dense (n, n, F) features of the discrete pairwise recursion from
    the all-ones initialization."""
    values, _ = PairGraph(graph, stats).forward(mpnn)
    return values


def cmpnn_pair_sbm(spec: SbmSpec, mpnn: Mpnn, init=None,
                   return_layers: bool = False):
    """Exact continuous pairwise recursion over r x r block-pair states.

    g_ab = (1/(2 c_ab)) sum_c pi_c [ S_bc msg(F_ab, F_ac) + S_ac msg(F_ab, F_bc) ]
    F_ab <- upd(F_ab, g_ab)

    ``init`` defaults to all ones; pass a symmetric (r, r) or (r, r, F0)
    array for other starting signals (e.g. the edge-probability matrix
    itself), else ValueError. Returns the (r, r, F) block-pair values, or
    with ``return_layers`` the list of them for the start and after every
    layer.

    For symmetric F and S, g is symmetric, but the two sums reach g_ab and
    g_ba in other orders. So the recursion runs on the a <= b states alone,
    each layer's messages formed from their mirror and kept at a <= b, and
    every returned array is their mirror: symmetric bit for bit.
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
        if f.shape != (r, r, width0):
            raise ValueError(f"init must be ({r}, {r}, {width0})")
        if not np.array_equal(f, f.transpose(1, 0, 2)):
            raise ValueError("init must be symmetric in its two block indices")
    pi = spec.block_mass
    upper = np.triu_indices(r)
    inv = np.empty((r, r), dtype=np.intp)
    inv[upper] = inv[upper[::-1]] = np.arange(len(upper[0]))

    def messages(u, message):
        f = u[inv]
        shape = (r, r, r, f.shape[2])
        fab = np.broadcast_to(f[:, :, None, :], shape)
        own = message(fab, np.broadcast_to(f[:, None, :, :], shape))  # msg(F_ab, F_ac)
        other = message(fab, np.broadcast_to(f[None, :, :, :], shape))  # msg(F_ab, F_bc)
        g = np.einsum("c,bc,abch->abh", pi, spec.S, own)
        g += np.einsum("c,ac,abch->abh", pi, spec.S, other)
        g /= 2.0 * c[:, :, None]
        return g[upper]

    trace = block_recursion(mpnn, f[upper], messages, return_layers)
    return [u[inv] for u in trace] if return_layers else trace[inv]
