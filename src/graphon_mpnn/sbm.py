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
        if report.d_min <= 0.0:
            raise SpecValidationError("zero minimum block degree")
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
    them at once. ``node_use_ok`` requires d_min > 0 (mean aggregation
    divides by the block degree), ``pair_use_ok`` requires d_cmin > 0.
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
    """One graph drawn from an SbmSpec. Arrays are read-only after sampling."""

    n: int
    positions: np.ndarray
    block_of: np.ndarray
    adjacency: np.ndarray
    node_features: np.ndarray
    seed: int

    def with_adjacency(self, adjacency: np.ndarray) -> "SampledGraph":
        """Copy of this graph with edges replaced (e.g. after hiding some)."""
        adjacency = _freeze(np.asarray(adjacency, dtype=float))
        return dataclasses.replace(self, adjacency=adjacency)

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of undirected edges i < j, row-major: each row
        strip's edges right of the diagonal, so that no temporary outgrows
        a strip."""
        strips = []
        for lo in range(0, self.n, _MIRROR_ROWS):
            i, j = np.nonzero(self.adjacency[lo : lo + _MIRROR_ROWS, lo:] > 0)
            upper = j > i
            strips.append(np.column_stack([i[upper], j[upper]]) + lo)
        return np.concatenate(strips)


#: Rows per strip of the sampler's mirror copy and of ``edge_list``: a
#: 128-row strip of the upper triangle is copied into the lower one while
#: it is still in cache.
_MIRROR_ROWS = 128


def sample_graph(spec: SbmSpec, n: int, seed: int) -> SampledGraph:
    """Draw one n-node graph: i.i.d. positions, one Bernoulli per pair.

    Positions come from the "positions" stream, edge coins from the "edges"
    stream, both keyed by ``seed``; the draw is a pure function of
    (spec, n, seed). Each unordered pair {i, j} with i < j receives a
    single coin mirrored to both adjacency entries; the diagonal stays 0.
    Rows are drawn in order, row i taking its n - 1 - i coins for j > i.
    """
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    spec.require_valid()
    positions = stream(seed, "positions").random(n)
    block_of = np.searchsorted(spec.boundaries[:-1], positions, side="right")

    # thresholds[a, j] is the edge probability between block a and node j.
    thresholds = spec.S[:, block_of]
    adj = np.zeros((n, n), dtype=float)
    edges_rng = stream(seed, "edges")
    for i0 in range(0, n, _MIRROR_ROWS):
        i1 = min(i0 + _MIRROR_ROWS, n)
        for i in range(i0, min(i1, n - 1)):
            z = edges_rng.random(n - 1 - i)
            np.less(z, thresholds[block_of[i], i + 1 :], out=adj[i, i + 1 :])
        # The strip's rows are complete: mirror it in place. The diagonal
        # tile adds its transpose to its all-zero lower half; the part right
        # of the tile is copied into the columns below it, which later rows
        # never write. Only the tile needs a temporary, never an n x n one.
        tile = adj[i0:i1, i0:i1]
        tile += tile.T
        adj[i1:, i0:i1] = adj[i0:i1, i1:].T

    features = spec.B[block_of]
    return SampledGraph(
        n=n,
        positions=_freeze(positions),
        block_of=_freeze(block_of),
        adjacency=_freeze(adj),
        node_features=_freeze(features),
        seed=int(seed),
    )


class GraphStats:
    """The exact neighbor and common-neighbor counts of one graph.

    ``degree_counts[i] = sum_j A_ij`` in float64. ``common_neighbors[i, j]
    = sum_z A_iz A_jz``, zero included, is computed lazily (it is an n x n
    product) and cached. Each engine derives its own normalization from
    these counts.

    The common-neighbor counts are taken in float32 as ``A Aᵀ`` (equal to
    ``A A`` for the symmetric 0/1 adjacency), which BLAS runs as a
    symmetric rank-k update. They are exact while n < 2**24: every partial
    sum is an integer no larger than n.
    """

    def __init__(self, graph: SampledGraph):
        self._graph = graph
        self.n = graph.n
        self.degree_counts = _freeze(graph.adjacency.sum(axis=1))
        self._common = None

    @property
    def common_neighbors(self) -> np.ndarray:
        if self._common is None:
            a32 = self._graph.adjacency.astype(np.float32)
            self._common = _freeze(a32 @ a32.T)
        return self._common


def graph_stats(graph: SampledGraph) -> GraphStats:
    return GraphStats(graph)


# --- flat key-value serialization -------------------------------------------

def write_spec_file(spec: SbmSpec, path) -> None:
    """Write ``spec`` as a model file: r, then each list row-major in brackets."""
    lists = {"block_mass": spec.block_mass, "S": spec.S, "B": spec.B}
    with open(path, "w") as fh:
        fh.write(f"r = {spec.r}\n")
        for key, a in lists.items():
            fh.write(f"{key} = [{', '.join(repr(float(v)) for v in a.reshape(-1))}]\n")


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
    file; returns the number of edges."""
    edges = graph.edge_list()
    with open(edges_path, "w") as fh:
        for i, j in edges:
            fh.write(f"{i} {j}\n")
    with open(blocks_path, "w") as fh:
        for b in graph.block_of:
            fh.write(f"{b}\n")
    return len(edges)
