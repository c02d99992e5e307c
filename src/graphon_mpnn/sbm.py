"""Block random-graph models: specification, sampling, and exact statistics.

A model is a symmetric block matrix of edge probabilities `S`, block masses
`block_mass` partitioning [0, 1], and a per-block signal matrix `B`. Nodes
draw latent positions uniformly on [0, 1]; the position determines the block
and hence the edge probability to every other node.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SpecValidationError
from .rng import stream

log = logging.getLogger(__name__)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SbmSpec:
    """Block random-graph model.

    Parameters
    ----------
    block_mass : (r,) probabilities of each block (must sum to 1).
    S : (r, r) symmetric matrix of edge probabilities in [0, 1].
    B : (r, F0) per-block signal values.
    """

    block_mass: np.ndarray
    S: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        bm = _freeze(np.asarray(self.block_mass, dtype=float).reshape(-1))
        S = _freeze(np.asarray(self.S, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        B = _freeze(B)
        r = bm.shape[0]
        if S.shape != (r, r):
            raise ValueError(f"S must be ({r}, {r}), got {S.shape}")
        if B.shape[0] != r:
            raise ValueError(f"B must have {r} rows, got {B.shape[0]}")
        object.__setattr__(self, "block_mass", bm)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "B", B)

    @property
    def r(self) -> int:
        return self.block_mass.shape[0]

    @property
    def boundaries(self) -> np.ndarray:
        """Interval right endpoints t_1..t_r with t_r = cumulative mass."""
        return np.cumsum(self.block_mass)

    @property
    def w_sup(self) -> float:
        """Supremum of the underlying edge-probability function."""
        return float(np.max(self.S))

    def require_valid(self, pairwise: bool = False) -> None:
        report = validate_sbm(self)
        if not report.ok:
            raise SpecValidationError("; ".join(report.violations))
        if pairwise and report.d_cmin <= 0.0:
            raise SpecValidationError(
                "zero minimum common-neighbor fraction; pairwise recursion undefined"
            )


@dataclass(frozen=True)
class ValidationReport:
    d_min: float
    d_cmin: float
    node_use_ok: bool
    pair_use_ok: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_sbm(spec: SbmSpec) -> ValidationReport:
    """Check model invariants and compute the exact degree minima.

    Violations are collected (not raised) so a caller can report all of
    them at once. A zero minimum block degree is one: mean aggregation
    divides by the block degree. ``pair_use_ok`` also requires d_cmin > 0.
    """
    violations = []
    bm, S = spec.block_mass, spec.S
    # written so that a NaN entry fails every comparison it is in
    if not np.all(bm > 0):
        violations.append("block_mass entries must be strictly positive")
    if not abs(bm.sum() - 1.0) <= 1e-12:
        violations.append(f"block_mass must sum to 1 (got {float(bm.sum())!r})")
    if not np.array_equal(S, S.T):
        violations.append("S must be symmetric")
    if not np.all((S >= 0.0) & (S <= 1.0)):
        violations.append("S entries must lie in [0, 1]")
    if np.any(~np.isfinite(spec.B)):
        violations.append("B entries must be finite")

    d = graphon_degree(spec)
    c = graphon_common_neighbors(spec)
    d_min = float(d.min())
    d_cmin = float(c.min())
    if d_min <= 0.0:
        violations.append("zero minimum block degree")
    return ValidationReport(
        d_min=d_min,
        d_cmin=d_cmin,
        node_use_ok=(not violations) and d_min > 0.0,
        pair_use_ok=(not violations) and d_cmin > 0.0,
        violations=tuple(violations),
    )


def graphon_degree(spec: SbmSpec) -> np.ndarray:
    """Per-block expected degree: d(a) = sum_b pi_b S_ab."""
    return spec.S @ spec.block_mass


def graphon_common_neighbors(spec: SbmSpec) -> np.ndarray:
    """Per-block-pair common-neighbor fraction: c(a,b) = sum_c pi_c S_ac S_bc."""
    return (spec.S * spec.block_mass) @ spec.S.T


#: Tolerance of ``isomorphic_block_pairs``' comparisons.
_ISO_TOL = 1e-9


def isomorphic_block_pairs(spec: SbmSpec) -> list:
    """All unordered block pairs {a, b} the model cannot distinguish.

    A pair qualifies when the masses agree, swapping a and b leaves S
    unchanged entrywise, and the block signals agree, all within 1e-9.
    """
    pairs = []
    r = spec.r
    for a in range(r):
        for b in range(a + 1, r):
            if abs(spec.block_mass[a] - spec.block_mass[b]) > _ISO_TOL:
                continue
            perm = np.arange(r)
            perm[a], perm[b] = b, a
            S_swapped = spec.S[np.ix_(perm, perm)]
            if np.max(np.abs(S_swapped - spec.S)) > _ISO_TOL:
                continue
            if np.max(np.abs(spec.B[a] - spec.B[b])) > _ISO_TOL:
                continue
            pairs.append((a, b))
    return pairs


@dataclass(frozen=True)
class SampledGraph:
    """One graph drawn from an SbmSpec. Arrays are read-only after sampling.

    ``bits`` is the symmetric 0/1 adjacency, one bit per node pair: the
    n x ceil(n / 8) uint8 array ``np.packbits(A, axis=1)``, so row i's
    entry j is bit 7 - j % 8 of byte j // 8, and the pad bits of each row
    are 0. Every reader in the package goes through ``rows`` (or
    ``submatrix``, built on it), which unpacks a strip of rows;
    ``GraphStats.product`` is the one place that reads them as float64.
    Only the degree counts and ``upper_counts``, popcounts per row, and
    ``without_edges`` read the bytes themselves. ``adjacency`` unpacks the whole matrix, n^2
    bytes, for callers outside the package that want it dense; nothing in
    the package calls it.
    """

    n: int
    positions: np.ndarray
    block_of: np.ndarray
    bits: np.ndarray
    node_features: np.ndarray
    seed: int

    @property
    def adjacency(self) -> np.ndarray:
        """The whole adjacency as a read-only n x n bool array, unpacked
        on every access: n^2 bytes, eight times ``bits``."""
        return _freeze(self.rows(0, self.n))

    def rows(self, lo: int, hi: int, out=None) -> np.ndarray:
        """Rows ``lo`` to ``hi`` (clipped to n) of the adjacency, all
        columns: a new bool array, or written into ``out``, of any dtype
        and as many rows, one strip of _MIRROR_ROWS rows at a time, so
        that no bool copy of the block is formed."""
        hi = min(hi, self.n)
        if out is None:
            return np.unpackbits(self.bits[lo:hi], axis=1, count=self.n).view(bool)
        for start in range(lo, hi, _MIRROR_ROWS):
            stop = min(start + _MIRROR_ROWS, hi)
            np.copyto(out[start - lo : stop - lo], self.rows(start, stop))
        return out

    def submatrix(self, rows, cols) -> np.ndarray:
        """``A[np.ix_(rows, cols)]`` for ascending ``rows``, as bool,
        unpacked one strip of _MIRROR_ROWS rows at a time."""
        out = np.empty((len(rows), len(cols)), dtype=bool)
        starts = range(0, self.n, _MIRROR_ROWS)
        bounds = np.searchsorted(rows, [*starts, self.n])
        for lo, a, b in zip(starts, bounds, bounds[1:]):
            if a < b:
                out[a:b] = self.rows(lo, lo + _MIRROR_ROWS)[np.ix_(rows[a:b] - lo, cols)]
        return out

    def without_edges(self, edges) -> "SampledGraph":
        """Copy of this graph with the undirected ``edges`` ((k, 2) node
        pairs) removed. Several edges can share a byte, so each bit is
        cleared by an unbuffered ``np.bitwise_and.at``."""
        bits = self.bits.copy()
        i, j = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
        for row, col in ((i, j), (j, i)):
            keep = ~(np.uint8(0x80) >> (col % 8).astype(np.uint8))
            np.bitwise_and.at(bits, (row, col // 8), keep)
        return dataclasses.replace(self, bits=_freeze(bits))

    def edge_strips(self):
        """The undirected edges i < j, row-major, one (k, 2) intp array per
        strip of _MIRROR_ROWS rows: each strip's edges right of the
        diagonal, so that no temporary outgrows a strip. The diagonal
        tile's lower half is cleared in the strip's own unpacked rows, and
        one flat index of the rest gives row and column."""
        for lo in range(0, self.n, _MIRROR_ROWS):
            strip = self.rows(lo, lo + _MIRROR_ROWS)[:, lo:]
            h, width = strip.shape
            strip[:, :h][np.tri(h, dtype=bool)] = False
            at = np.flatnonzero(strip)
            edges = np.empty((len(at), 2), dtype=np.intp)
            np.divmod(at, width, out=(edges[:, 0], edges[:, 1]))
            edges += lo
            yield edges

    def upper_counts(self) -> np.ndarray:
        """The number of edges (i, j) with j > i in each row i, from the
        packed rows: per strip, a popcount of the bytes right of the
        strip's columns and the strip's diagonal block, unpacked."""
        counts = np.empty(self.n, dtype=np.intp)
        for lo in range(0, self.n, _MIRROR_ROWS):
            hi = min(lo + _MIRROR_ROWS, self.n)
            cut = -(-hi // 8)  # the byte past the block; hi is a multiple of 8 but at n
            block = np.unpackbits(self.bits[lo:hi, lo // 8 : cut], axis=1, count=hi - lo)
            counts[lo:hi] = np.bitwise_count(self.bits[lo:hi, cut:]).sum(axis=1)
            counts[lo:hi] += np.count_nonzero(np.triu(block, 1), axis=1)
        return counts


#: Rows per strip of the sampler, of ``SampledGraph.rows`` when it writes
#: into a given array, of ``submatrix``, of ``edge_strips`` and
#: ``upper_counts`` and of the node engine's general messages: the
#: sampler draws a 128-row strip of the upper triangle into one reused
#: bool buffer and packs it, and its transpose, into the adjacency while
#: it is in cache. A multiple of 8, so that each strip's columns start on
#: a byte. ``strip_height`` also counts a product of this many columns or
#: more as square, and caps a thinner one's strips at this many rows.
_MIRROR_ROWS = 128


def sample_graph(spec: SbmSpec, n: int, seed: int) -> SampledGraph:
    """Draw one n-node graph: i.i.d. positions, one Bernoulli per pair.

    Positions come from the "positions" stream, edge coins from the "edges"
    stream, both keyed by ``seed``; the draw is a pure function of
    (spec, n, seed). Each unordered pair {i, j} with i < j receives a
    single coin mirrored to both adjacency entries; the diagonal stays 0.
    Rows are drawn in order, row i taking its n - 1 - i coins for j > i.
    The adjacency is packed one bit per pair: the sampler's working set is
    the n^2 / 8 bytes of the result, one bool strip of 128 rows and a
    transposed copy of it.
    """
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    spec.require_valid()
    positions = stream(seed, "positions").random(n)
    block_of = np.searchsorted(spec.boundaries[:-1], positions, side="right")

    # thresholds[a, j] is the edge probability between block a and node j,
    # on the integer scale of the coins: ``Generator.random`` is the raw
    # word's top 53 bits times 2**-53, and for such a v and p in [0, 1],
    # v 2**-53 < p exactly when v < ceil(p 2**53), so comparing the words
    # draws the same coins bit for bit.
    thresholds = np.ceil(spec.S * 2.0 ** 53).astype(np.uint64)[:, block_of]
    bits = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    buffer = np.empty((_MIRROR_ROWS, n), dtype=bool)
    above = np.triu(np.ones((_MIRROR_ROWS, _MIRROR_ROWS), dtype=bool), 1)
    words = stream(seed, "edges").bit_generator
    for i0 in range(0, n, _MIRROR_ROWS):
        i1 = min(i0 + _MIRROR_ROWS, n)
        h = i1 - i0
        strip = buffer[:h, : n - i0]  # rows i0..i1, columns i0..n
        for i in range(i0, min(i1, n - 1)):
            z = words.random_raw(n - 1 - i)
            z >>= 11
            np.less(z, thresholds[block_of[i], i + 1 :], out=strip[i - i0, i - i0 + 1 :])
        # The strip's rows are complete right of the diagonal. Its diagonal
        # tile keeps its upper half and mirrors it into the lower one; the
        # strip is packed into its rows from column i0 on, and its part
        # right of the tile, transposed, into the columns below the tile,
        # which later strips never write. Columns left of i0 came from
        # earlier strips. i0 is a multiple of 128, and so is i1 wherever
        # rows lie below, so every write covers whole bytes. The part below
        # is packed from a contiguous transposed copy: ``packbits`` along
        # axis 0 took three times as long.
        tile = strip[:, :h]
        tile &= above[:h, :h]
        tile |= tile.T
        bits[i0:i1, i0 // 8 :] = np.packbits(strip, axis=1)
        if i1 < n:
            bits[i1:, i0 // 8 : i1 // 8] = np.packbits(strip[:, h:].T.copy(), axis=1)

    features = spec.B[block_of]
    return SampledGraph(
        n=n,
        positions=_freeze(positions),
        block_of=_freeze(block_of),
        bits=_freeze(bits),
        node_features=_freeze(features),
        seed=int(seed),
    )


#: Entries of the float64 row strip ``GraphStats.product`` widens the
#: adjacency into for a square product (_MIRROR_ROWS columns or more)
#: through n = 5792: 2**21, 16 MiB, so 1048 rows at n = 2000 and 512 at
#: n = 4096, and a graph of up to 1448 nodes fits in one strip, which is
#: widened once. Twice that covered n = 2000 whole and raised the peak
#: memory of a link-prediction table run at n = 2000 by 6%. Past
#: n = 5792 a square strip is one sixteenth of the graph, 512 rows at
#: n = 8192, where 2**21 entries, 256 rows, took the n^3 product of a
#: dense pair layer 4 to 10% longer.
_STRIP_ENTRIES = 1 << 21

#: The fewest entries of a thin product's float64 strip (fewer than
#: _MIRROR_ROWS columns): 2**18, 2 MiB, about an L2 cache, in the smallest
#: power of two rows that holds them, so 128 rows (the cap, _MIRROR_ROWS)
#: below n = 4096, 64 from 4096, 32 from 8192 and 8 (_THIN_MIN_ROWS) from
#: 32768 on. A thin product is memory-bound and gains nothing from taller
#: strips.
_THIN_ENTRIES = 1 << 18

#: Multiply-adds of a thin strip's product of two columns or more: OpenBLAS
#: takes a small-matrix kernel for a product of at most 100^3, whose sums
#: differ from the blocked kernel's in the last bits, so a strip of 2 or 3
#: columns takes 2**20 / width entries, 128 rows at n = 4096 and 64 at
#: n = 8192. A product of one column is a gemv at every height.
_THIN_WORK = 1 << 20

#: The fewest rows of a thin product's strip.
_THIN_MIN_ROWS = 8


def strip_height(n: int, width: int) -> int:
    """Rows of each float64 row strip of an (n, n) by (n, width) product,
    the one strip rule of ``GraphStats``: n where one square strip covers
    the graph; else for a square product (_MIRROR_ROWS columns or more)
    _STRIP_ENTRIES entries or n / 16 rows, whichever is more; for a
    thinner one the smallest power of two rows that holds _THIN_ENTRIES
    entries (and does _THIN_WORK multiply-adds, for two columns or more),
    from _THIN_MIN_ROWS to _MIRROR_ROWS and never more than a square
    strip."""
    rows = min(n, max(_STRIP_ENTRIES // n, n // 16))
    if width < _MIRROR_ROWS and rows < n:
        entries = _THIN_ENTRIES if width == 1 else max(_THIN_ENTRIES, _THIN_WORK // width)
        need = -(-entries // n)
        thin = 1 << (need - 1).bit_length()  # the power of two at or above
        rows = min(rows, _MIRROR_ROWS, max(_THIN_MIN_ROWS, thin))
    return rows

#: Rows of each float32 row block the common-neighbor counts are built
#: from: two blocks are 32 MiB at n = 8192, where the whole matrix in
#: float32 is 256 MiB. Blocks of 1024 rows built the whole counts no
#: faster (median 0.58 against 0.55 s at n = 4096, 4.8 to 5.6 against 4.9 s
#: at 8192, one BLAS thread) and doubled what a pass that streams the
#: blocks holds.
_CN_ROWS = 512


def count_dtype(n: int):
    """The integer type common-neighbor counts of an n-node graph are held
    in: ``uint16``, two bytes per pair, up to n = 65535, where a count may
    no longer fit, ``uint32`` past it."""
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32


class CountTriangle:
    """The common-neighbor counts of an n-node graph on the i <= j
    triangle, in row strips of ``rows`` rows, as ``pair_mpnn._Triangle``
    holds a layer's messages: block b holds the rows of strip b, from
    s = ``starts[b]`` on, at the columns s to n - 1, CN_ij for i <= j at
    ``blocks[b][i - s, j - s]`` with b the strip of i, and its leading
    square, the strip's diagonal block, holds both halves. The blocks lie
    one after another in the one flat array ``flat`` of ``count_dtype(n)``:
    about n^2 / 2 counts plus half of each leading square, and with one
    strip the n x n counts.

    It is read like the n x n counts: ``[rows, cols]`` of two slices is a
    view of a block where the rows lie in one strip and the columns from
    its start on; any other rectangle, a row strip ``[rows]``, a row
    ``[i]`` and pairs ``[i, j]`` of index arrays are gathered from the
    flat array at (min(i, j), max(i, j)).
    """

    def __init__(self, n: int, rows: int, flat=None):
        self.n, self.rows = n, rows
        self.starts = range(0, n, rows)
        self.offsets = np.cumsum([0] + [min(rows, n - s) * (n - s) for s in self.starts])
        self.flat = np.empty(self.offsets[-1], dtype=count_dtype(n)) if flat is None else flat
        self.blocks = [self.flat[a:b].reshape(-1, n - s)
                       for s, a, b in zip(self.starts, self.offsets, self.offsets[1:])]

    def index(self, i, j) -> np.ndarray:
        """The flat indices of the pairs (i, j), node indices that
        broadcast against each other."""
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        s = lo - lo % self.rows  # the first row of lo's strip
        return self.offsets[lo // self.rows] + (lo - s) * (self.n - s) + (hi - s)

    def __getitem__(self, index) -> np.ndarray:
        i, j = index if isinstance(index, tuple) else (index, slice(None))
        if isinstance(i, slice):
            r0, r1, _ = i.indices(self.n)
            c0, c1, _ = j.indices(self.n)
            s = r0 - r0 % self.rows
            if r0 < r1 <= s + self.rows and c0 >= s:
                return self.blocks[r0 // self.rows][r0 - s : r1 - s, c0 - s : c1 - s]
            i, j = np.ogrid[r0:r1, c0:c1]
        elif isinstance(j, slice):
            j = np.arange(self.n)[j]
        return self.flat[self.index(i, j)]

    def put(self, r0: int, c0: int, values) -> None:
        """Writes the counts ``values`` at the rows from ``r0`` and the
        columns from ``c0`` on where they lie on the triangle: in each
        strip the rows cross, at the columns from the strip's start on."""
        h, w = values.shape
        for b in range(r0 // self.rows, (r0 + h - 1) // self.rows + 1):
            s = self.starts[b]
            a, z, c = max(r0, s), min(r0 + h, s + self.rows), max(c0, s)
            if c < c0 + w:
                block = self.blocks[b][a - s : z - s, c - s : c0 + w - s]
                block[...] = values[a - r0 : z - r0, c - c0 :]


class GraphStats:
    """The exact neighbor and common-neighbor counts of one graph, and its
    adjacency products. The products and the common-neighbor counts read
    the packed adjacency through ``SampledGraph.rows``, one strip or block
    of rows at a time.

    ``degree_counts[i] = sum_j A_ij`` in float64, counted exactly: a
    popcount of row i's bytes (``np.bitwise_count``, numpy >= 2.0), taken
    _MIRROR_ROWS rows at a time, so that no popcount of every byte is held.
    The common-neighbor counts CN_ij = sum_z A_iz A_jz, zero included, are
    computed lazily (they are an n x n product) and cached:
    ``common_neighbors`` is the flat read-only array of their i <= j
    triangle in the product's row strips of ``strip_rows`` rows, which
    ``CountTriangle`` reads like the n x n counts. Each engine derives its
    own normalization from these counts.

    The common-neighbor counts are ``A Aᵀ`` (equal to ``A A`` for the
    symmetric 0/1 adjacency), built from pairs of row blocks of _CN_ROWS
    rows: both blocks are unpacked into float32, one BLAS call multiplies
    them (a symmetric rank-k update on the diagonal), and the block result
    and its mirror are written straight into the triangle, each where it
    lies on it. They are exact while n < 2**24: every partial
    sum is an integer no larger than n. They are held as
    ``count_dtype(n)``, ``uint16``, two bytes per count (``uint32`` past
    n = 65535, where a count may not fit): 6 MiB at n = 2048, 18 MiB at
    4096 and 68 MiB at 8192, where the n x n counts took 8, 32 and 128, and
    the n x n counts themselves where one strip covers the graph. Beyond
    them the build holds two float32 row blocks and one block result, and
    no n x n array. ``common_neighbor_blocks`` yields the same block
    results one by one, or where the counts are built, blocks of the
    triangle: a caller that reads the counts at some rows, or reduces them,
    holds no n x n array.

    ``product(x)`` is every ``A @ x`` of the engines. The adjacency is
    widened to float64 one row strip at a time, into one buffer the stats
    own, and the strip last widened is kept: a graph that fits in one strip
    of ``_STRIP_ENTRIES`` entries is unpacked and widened once, here, and
    each product is then one whole-matrix BLAS call. On a larger graph the
    strip's height is ``strip_height(n, width)``, keyed on the product's
    kind and n: a square product (_MIRROR_ROWS columns or more) reads
    strips of ``strip_rows`` rows, _STRIP_ENTRIES entries or one sixteenth
    of the graph, and a thinner one strips of at least _THIN_ENTRIES
    entries, at most _MIRROR_ROWS rows; the buffer takes the height first
    needed and grows only for a taller strip. ``strip_product`` is one
    square strip's share of a product, for callers that consume a square
    product strip by strip.
    """

    def __init__(self, graph: SampledGraph):
        self._graph = graph
        self.n = n = graph.n
        degrees = np.empty(n)
        for lo in range(0, n, _MIRROR_ROWS):
            degrees[lo : lo + _MIRROR_ROWS] = np.bitwise_count(
                graph.bits[lo : lo + _MIRROR_ROWS]).sum(axis=1)
        self.degree_counts = _freeze(degrees)
        self._common = None
        self.strip_rows = strip_height(n, _MIRROR_ROWS)
        self._strip = None
        self._strip_key = None
        if self.strip_rows == n:
            self._widened(0, n)

    @property
    def common_neighbors(self) -> np.ndarray:
        """The flat read-only array of the common-neighbor counts on the
        i <= j triangle (``CountTriangle`` with ``strip_rows`` rows per
        strip), built on first access from ``common_neighbor_blocks``."""
        if self._common is None:
            counts = CountTriangle(self.n, self.strip_rows)
            for lo, lo2, c in self.common_neighbor_blocks():
                counts.put(lo, lo2, c)
                if lo2 > lo:
                    counts.put(lo2, lo, c.T)
            self._common = _freeze(counts.flat)
        return self._common

    def common_neighbor_blocks(self):
        """Yields ``(lo, lo2, block)`` for blocks of the common-neighbor
        counts at rows ``lo`` and columns ``lo2`` on, lo <= lo2, which cover
        the upper triangle and, mirrored where lo2 > lo, every count once;
        a block at lo2 = lo is square and holds both halves. Where the
        counts are built they are views of them, each strip's leading
        square and the rest of its block (``CountTriangle``); else they are
        the _CN_ROWS squares (short at the last rows and columns) computed
        as ``common_neighbors`` computes them, in float32, in a buffer that
        the next block overwrites, and no n x n array is formed."""
        n = self.n
        if self._common is not None:
            counts = CountTriangle(n, self.strip_rows, self._common)
            for s, block in zip(counts.starts, counts.blocks):
                h = len(block)
                yield s, s, block[:, :h]
                if s + h < n:
                    yield s, s + h, block[:, h:]
            return
        size = min(n, _CN_ROWS)
        blocks = np.empty((2, size, n), dtype=np.float32)
        result = np.empty((size, size), dtype=np.float32)
        for lo in range(0, n, size):
            rows = self._graph.rows(lo, lo + size, out=blocks[0, : min(size, n - lo)])
            for lo2 in range(lo, n, size):
                cols = rows if lo2 == lo else self._graph.rows(
                    lo2, lo2 + size, out=blocks[1, : min(size, n - lo2)])
                yield lo, lo2, np.matmul(rows, cols.T, out=result[: len(rows), : len(cols)])

    def _widened(self, start: int, height: int) -> np.ndarray:
        """Rows ``start`` to ``start + height`` (clipped to n) of the
        adjacency as float64 in the strip buffer, unpacked and widened
        unless they are the strip already kept, under the key
        (start, height). The buffer is allocated at the first height asked
        for and grown when a taller strip is asked for; a shorter strip,
        a thin product's after a square one, takes its first rows."""
        if self._strip is None or len(self._strip) < height:
            self._strip = None  # freed before the taller one is allocated
            self._strip = np.empty((height, self.n))
        strip = self._strip[: min(height, self.n - start)]
        if self._strip_key != (start, height):
            self._graph.rows(start, start + height, out=strip)
            self._strip_key = (start, height)
        return strip

    def product(self, x, out=None) -> np.ndarray:
        """``A @ x`` for a float64 (n, k) ``x``, written into ``out`` when
        given, one row strip of ``strip_height(n, k)`` rows at a time. Where
        one strip covers the graph it is the whole-matrix product. Else a
        thin product (k < _MIRROR_ROWS) reads strips of 2 to 4 MiB, each
        one ``SampledGraph.rows`` unpack, and a square one strips of
        ``strip_rows``. A strip's rows may differ from the whole-matrix
        product at rounding level, at sizes where BLAS takes other edge
        kernels for the strip than for the whole matrix."""
        if out is None:
            out = np.empty((self.n, x.shape[1]))
        height = strip_height(self.n, x.shape[1])
        for start in range(0, self.n, height):
            np.matmul(self._widened(start, height), x, out=out[start : start + height])
        return out

    def strip_product(self, start: int, x, out) -> np.ndarray:
        """Rows ``start`` to ``start + strip_rows`` (clipped to n) of
        ``A @ x``, written into ``out``: the one BLAS call ``product``
        makes for the row strip that begins at ``start``, a multiple of
        ``strip_rows``, when ``x`` is square (_MIRROR_ROWS columns or
        more)."""
        return np.matmul(self._widened(start, self.strip_rows), x, out=out)


def graph_stats(graph: SampledGraph) -> GraphStats:
    return GraphStats(graph)


class BlockPairPool:
    """The node pairs (i in a, j in b) of several block pairs (a, b), under
    one flat numbering of ``size`` indices: block pairs in the given order,
    p's from ``offsets[p]`` on, and p's pair k is ``(ia[k // len(jb)],
    jb[k % len(jb)])``, where ``blocks[p] = (ia, jb)`` lists the nodes of a
    and of b in increasing order."""

    def __init__(self, graph: SampledGraph, block_pairs):
        self.blocks = [(np.flatnonzero(graph.block_of == a), np.flatnonzero(graph.block_of == b))
                       for a, b in block_pairs]
        self.offsets = np.cumsum([0] + [len(ia) * len(jb) for ia, jb in self.blocks])
        self.size = int(self.offsets[-1])

    def pairs(self, flat) -> tuple:
        """The node pairs at the flat indices ``flat``, as two arrays (i, j)."""
        flat = np.asarray(flat, dtype=np.intp)
        i, j = np.empty_like(flat), np.empty_like(flat)
        for (ia, jb), lo, hi in zip(self.blocks, self.offsets, self.offsets[1:]):
            at = (flat >= lo) & (flat < hi)
            row, col = np.divmod(flat[at] - lo, len(jb))
            i[at], j[at] = ia[row], jb[col]
        return i, j


# --- flat key-value serialization -------------------------------------------

def _model_text(spec: SbmSpec) -> str:
    """``spec`` as a model file holds it: r, then each list row-major in
    brackets. Each float's repr reads back exactly."""
    lists = {"block_mass": spec.block_mass, "S": spec.S, "B": spec.B}
    return f"r = {spec.r}\n" + "".join(
        f"{key} = [{', '.join(repr(float(v)) for v in a.reshape(-1))}]\n"
        for key, a in lists.items())


#: The model keys by their lower-case form: keys match in lower case, as in configs.
_MODEL_KEYS = {"r": "r", "block_mass": "block_mass", "s": "S", "b": "B"}


def _read_model(entries, source) -> SbmSpec:
    """The model of ``entries``, (key, value text) pairs from ``source`` (a
    file path or ``[sbm]``), which every error names with the key. Each of
    the four keys comes once; a list holds numbers separated by commas
    and/or spaces, in brackets or bare; S and B are row-major."""
    values = {}
    for key, text in entries:
        name = _MODEL_KEYS.get(key.lower())
        if name is None or name in values:
            raise SpecValidationError(
                f"{source}: {'repeated' if name else 'unknown'} key '{key}'; a model "
                f"has each of the keys {', '.join(_MODEL_KEYS.values())} once")
        values[name] = text.strip()
    missing = [name for name in _MODEL_KEYS.values() if name not in values]
    if missing:
        raise SpecValidationError(f"{source}: missing keys: {', '.join(missing)}")
    r = int(values["r"]) if values["r"].isdecimal() else 0
    if r < 1:
        raise SpecValidationError(f"{source}: r must be an integer >= 1, got {values['r']!r}")
    lists = []
    for key in ("block_mass", "S", "B"):
        text = values[key]
        body = text[1:-1] if text.startswith("[") and text.endswith("]") else text
        try:
            lists.append(np.array([float(v) for v in body.replace(",", " ").split()]))
        except ValueError:
            raise SpecValidationError(f"{source}: {key}: expected numbers, got {text!r}") from None
    block_mass, S, B = lists
    for key, a, ok, rule in (("block_mass", block_mass, block_mass.size == r, "r"),
                             ("S", S, S.size == r * r, "r * r"),
                             ("B", B, B.size > 0 and B.size % r == 0,
                              "a non-zero multiple of r")):
        if not ok:
            raise SpecValidationError(
                f"{source}: {key} must have {rule} entries (r = {r}), got {a.size}")
    return SbmSpec(block_mass=block_mass, S=S.reshape(r, r), B=B.reshape(r, -1))


def read_spec_file(path) -> SbmSpec:
    """The model in the file at ``path``: ``key = value`` lines; blank
    lines and ``#`` comments, full-line or trailing, are skipped."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecValidationError(f"cannot read model file {path}: {exc}") from exc
    entries = []
    for lineno, raw in enumerate(lines, 1):
        key, eq, text = raw.split("#", 1)[0].partition("=")
        if eq:
            entries.append((key.strip(), text))
        elif key.strip():
            raise SpecValidationError(f"{path}:{lineno}: expected 'key = value'")
    return _read_model(entries, path)


def write_edge_list(graph: SampledGraph, edges_path, blocks_path) -> int:
    """Dump edges as '<i> <j>' per line (0-indexed) plus a block column
    file; returns the number of edges. The edges of each strip of
    ``edge_strips`` are formatted and written _MIRROR_ROWS^2 at a time, so
    that the Python ints of one call, about 44 bytes per index, stay under
    1.5 MiB whatever a strip holds."""
    count = 0
    chunk = _MIRROR_ROWS ** 2
    with open(edges_path, "w") as fh:
        for edges in graph.edge_strips():
            for lo in range(0, len(edges), chunk):
                part = edges[lo : lo + chunk]
                fh.write(("%d %d\n" * len(part)) % tuple(part.ravel().tolist()))
            count += len(edges)
    with open(blocks_path, "w") as fh:
        for b in graph.block_of:
            fh.write(f"{b}\n")
    return count
