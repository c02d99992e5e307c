"""Convergence and stability measurements plus the concentration-bound
constants that upper-bound the discrete-to-continuous gap.

The gap delta is the maximum (over nodes, or node pairs) sup-norm
difference between discrete embeddings and the continuous block values at
each node's block (or each pair's two blocks). Its high-probability upper
bound has the form

    node:  (C1 + C2 ||f||) sqrt(log(2 n   / p)) / sqrt(n)
    pair:  (C3 + C4 ||f||) sqrt(log(2 n^2 / p)) / sqrt(n)

with constants assembled layer by layer from Lipschitz bounds and formal
biases of the message/update functions.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .mpnn import NEIGHBOR_AVERAGE, N_NORMALIZED_SUM, Mpnn
from .node_mpnn import cmpnn_node_sbm, gmpnn_node
from .pair_mpnn import _require_size, cmpnn_pair_sbm, gmpnn_pair
from . import sbm
from .rng import stream
from .sbm import BlockPairPool, SampledGraph, SbmSpec, graph_stats, graphon_degree, graphon_common_neighbors, sample_graph
from .util import parallel_map

log = logging.getLogger(__name__)

SWEEP_MODES = ("node_mean", "node_sum", "pair_fixed", "pair_net")

#: The fewest distinct sizes a log-log slope is fitted to.
MIN_FIT_SIZES = 3


# --- gap metrics ------------------------------------------------------------

def delta_node(values: np.ndarray, block_values: np.ndarray,
               block_of: np.ndarray) -> float:
    """Max over nodes i of the sup-norm gap between row i of ``values``
    (n x F) and the row of ``block_values`` (r x F) at i's block."""
    if values.shape != (len(block_of),) + block_values.shape[1:]:
        raise ValueError(f"shape mismatch: {values.shape} vs {len(block_of)} "
                         f"nodes of block values {block_values.shape}")
    _require_blocks(block_values, block_of)
    return float(np.max(np.abs(values - block_values[block_of])))


def delta_pair(values: np.ndarray, block_values: np.ndarray,
               block_of: np.ndarray) -> float:
    """Max over node pairs i != j of the sup-norm gap between ``values``
    (n x n x F) at (i, j) and ``block_values`` (r x r x F) at their blocks.

    The diagonal (i, i) is excluded: the empirical common-neighbor count of
    a node with itself estimates its degree, not the squared-kernel
    integral, so the diagonal gap does not shrink with n and is not covered
    by the pairwise concentration argument.

    The gaps are taken in the row strips ``sbm.strip_height`` gives a
    thin product of rows of n F entries, 2 to 4 MiB past n F = 1448, so
    no n x n temporary is built. A strip's diagonal entries are zeroed,
    which cannot raise a maximum of non-negative gaps; the maximum does
    not depend on the cut.
    """
    n = len(block_of)
    if values.shape != (n, n) + block_values.shape[2:]:
        raise ValueError(f"shape mismatch: {values.shape} vs {n} nodes of "
                         f"block values {block_values.shape}")
    _require_blocks(block_values, block_of)
    rows = sbm.strip_height(values[0].size, 1)
    maxima = []
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        gaps = block_values[np.ix_(block_of[lo:hi], block_of)]
        np.subtract(values[lo:hi], gaps, out=gaps)
        np.abs(gaps, out=gaps)
        diagonal = np.arange(lo, hi)
        gaps[diagonal - lo, diagonal] = 0.0
        maxima.append(gaps.max())
    return float(np.max(maxima))


def _require_blocks(block_values: np.ndarray, block_of: np.ndarray) -> None:
    if block_values.shape[0] <= block_of.max():
        raise ValueError("block count does not cover the graph's blocks")


# --- convergence sweep --------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRecord:
    mode: str
    n: int
    seed: int
    delta: float
    bound: float | None = None
    n_condition_ok: bool | None = None  # the bound's premise on n, where a bound exists


def _sweep_one(args):
    spec, mpnn, mode, n, seed, p = args
    graph = sample_graph(spec, n, seed)
    stats = graph_stats(graph)
    if mode in ("node_mean", "node_sum"):
        agg = NEIGHBOR_AVERAGE if mode == "node_mean" else N_NORMALIZED_SUM
        net = dataclasses.replace(mpnn, aggregation=agg)
        discrete = gmpnn_node(graph, stats, net, init="degree")
        block = cmpnn_node_sbm(spec, net, init="degree")
        delta = delta_node(discrete, block, graph.block_of)
        f_inf = float(np.max(np.abs(graphon_degree(spec))))
    else:
        discrete = gmpnn_pair(graph, stats, mpnn)
        block = cmpnn_pair_sbm(spec, mpnn)
        delta = delta_pair(discrete, block, graph.block_of)
        f_inf = 1.0
    if mode == "pair_fixed":
        return ConvergenceRecord(mode=mode, n=n, seed=seed, delta=delta)
    bound_mode = mode if mode.startswith("node") else "pair"
    report = bound_constants(mpnn, f_inf, spec, p=p, mode=bound_mode, n=n)
    return ConvergenceRecord(mode=mode, n=n, seed=seed, delta=delta,
                             bound=report.bound_value, n_condition_ok=report.n_condition_ok)


def convergence_sweep(spec: SbmSpec, mpnn: Mpnn, mode: str, n_list, seeds,
                      p: float | None = None, jobs: int = 1) -> list:
    """Gap records for every (n, seed): sample, run both paths, measure.

    Matched initializations per mode: node modes start from size-normalized
    degrees (discrete) and per-block expected degrees (continuous); pair
    modes start from all ones on both sides, the largest n checked against
    the pair cap first. Fully deterministic in (spec, mpnn, mode, n_list,
    seeds).
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}")
    pairwise = mode.startswith("pair")
    spec.require_valid(pairwise=pairwise)
    if pairwise:
        _require_size(max(map(int, n_list), default=0), mpnn)
    tasks = [(spec, mpnn, mode, int(n), int(seed), p)
             for n in n_list for seed in seeds]
    return parallel_map(_sweep_one, tasks, jobs=jobs)


def bound_shares(records) -> tuple:
    """(validity, n-condition) shares of the records that carry a bound.

    The validity share is that of delta <= bound among the records whose
    n-condition holds, the premise under which the bound is claimed. The
    n-condition share is that of the records whose n-condition holds.
    Either is None when it is a share of no record.
    """
    with_bounds = [r for r in records if r.bound is not None]
    valid = [r for r in with_bounds if r.n_condition_ok]
    return (float(np.mean([r.delta <= r.bound for r in valid])) if valid else None,
            float(np.mean([r.n_condition_ok for r in with_bounds])) if with_bounds else None)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def loglog_slope(records) -> SlopeFit:
    """Least squares on (ln n, ln median delta per n).

    Records with non-positive delta are excluded with a warning; at least
    MIN_FIT_SIZES distinct n must remain.
    """
    by_n = {}
    for rec in records:
        if rec.delta <= 0.0:
            log.warning("excluding non-positive delta at n=%d seed=%d",
                        rec.n, rec.seed)
            continue
        by_n.setdefault(rec.n, []).append(rec.delta)
    if len(by_n) < MIN_FIT_SIZES:
        raise PreconditionError(
            f"need at least {MIN_FIT_SIZES} distinct n with positive deltas")
    ns = sorted(by_n)
    medians = [float(np.median(by_n[n])) for n in ns]
    x = np.log(np.array(ns, dtype=float))
    y = np.log(np.array(medians))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


# --- bound constants ------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Per-layer constants and the assembled gap bound at a given n.

    ``c_offset``/``c_scale`` are the additive and ||f||-scaling constants
    for the requested mode (C1/C2 for mean aggregation, C1s/C2s for sum,
    C3/C4 for pairwise); ``bound_value`` is their combination at ``n``.
    """

    mode: str
    n: int
    p: float
    f_inf_norm: float
    lipschitz_message: tuple
    lipschitz_update: tuple
    bias_message: tuple
    bias_update: tuple
    b1: tuple
    b2: tuple
    contraction: tuple  # K per layer
    layer_terms: tuple  # D per layer at n
    c_offset: float
    c_scale: float
    bound_value: float
    n_condition_ok: bool


def default_probability_budget(mpnn: Mpnn) -> float:
    """p such that the failure mass sum_l 2(H_l + 1) p equals 0.01."""
    weight = sum(2 * (h + 1) for h in mpnn.message_dims)
    return 0.01 / weight


def bound_constants(mpnn: Mpnn, f_inf_norm: float, spec: SbmSpec,
                    p: float | None = None, mode: str = "node_mean",
                    n: int = 1024) -> BoundReport:
    """Evaluate the layer recursion constants and the gap bound at n.

    Requires finite Lipschitz upper bounds for every message and update
    function. Three modes: "node_mean" (normalizes by the degree minimum),
    "node_sum" (no normalization), "pair" (normalizes by the
    common-neighbor minimum and uses the log(2 n^2 / p) rate).
    """
    if mode not in ("node_mean", "node_sum", "pair"):
        raise ValueError(f"unknown mode {mode!r}")
    if p is None:
        p = default_probability_budget(mpnn)
    l_msg, l_upd, bias_msg, bias_upd = [], [], [], []
    for message, update in mpnn.layers:
        lm, lu = message.lipschitz(), update.lipschitz()
        if lm is None or lu is None:
            raise PreconditionError(
                "bound constants need finite Lipschitz bounds for every layer"
            )
        l_msg.append(lm)
        l_upd.append(lu)
        bias_msg.append(message.formal_bias())
        bias_upd.append(update.formal_bias())

    # The mode's normalization, with its norm growth per layer, the
    # contraction's message weight and the shared deviation coefficient.
    w_sup = spec.w_sup
    if mode == "node_sum":
        denom, growth, k2, coef = None, w_sup, 2.0, 2.0 * math.sqrt(2.0)
    else:
        minimum = graphon_degree if mode == "node_mean" else graphon_common_neighbors
        denom = float(minimum(spec).min())
        if denom <= 0.0:
            raise PreconditionError("degree/common-neighbor minimum must be positive")
        growth, k2 = w_sup / denom, 8.0 / denom ** 2
        coef = 4.0 * math.sqrt(2.0) / denom ** 2 + 2.0 * math.sqrt(2.0) / denom

    # Per-layer norm growth of the continuous recursion:
    #   ||f^(l)|| <= b1[l] + b2[l] ||f||.
    b1, b2 = [], []
    b1_cur, b2_cur = 0.0, 1.0
    for lm, lu, bm, bu in zip(l_msg, l_upd, bias_msg, bias_upd):
        factor = lu * (1.0 + growth * lm)
        b1_cur = b1_cur * factor + lu * growth * bm + bu
        b2_cur = b2_cur * factor
        b1.append(b1_cur)
        b2.append(b2_cur)

    # Contraction factor K per layer.
    contraction = [math.sqrt(lu ** 2 + k2 * lm ** 2 * lu ** 2)
                   for lm, lu in zip(l_msg, l_upd)]

    c_offset = 0.0
    c_scale = 0.0
    tail = 1.0
    tails = [1.0] * mpnn.depth  # prod_{l' > l} K^(l')
    for l in range(mpnn.depth - 1, -1, -1):
        tails[l] = tail
        tail *= contraction[l]
    for l in range(mpnn.depth):
        c_offset += l_upd[l] * coef * (l_msg[l] * b1[l] + bias_msg[l]) * tails[l]
        c_scale += l_upd[l] * coef * l_msg[l] * b2[l] * tails[l]

    log_term = math.log(2.0 * n * n / p) if mode == "pair" else math.log(2.0 * n / p)
    rate = math.sqrt(log_term) / math.sqrt(n)
    bound_value = (c_offset + c_scale * f_inf_norm) * rate
    layer_terms = tuple(
        l_upd[l] * coef
        * (l_msg[l] * (b1[l] + b2[l] * f_inf_norm) + bias_msg[l]) * rate
        for l in range(mpnn.depth)
    )

    n_condition_ok = (denom is None
                      or math.sqrt(n) / math.sqrt(log_term) >= 4.0 * math.sqrt(2.0) / denom)

    return BoundReport(
        mode=mode, n=int(n), p=float(p), f_inf_norm=float(f_inf_norm),
        lipschitz_message=tuple(l_msg), lipschitz_update=tuple(l_upd),
        bias_message=tuple(bias_msg), bias_update=tuple(bias_upd),
        b1=tuple(b1), b2=tuple(b2), contraction=tuple(contraction),
        layer_terms=layer_terms, c_offset=float(c_offset),
        c_scale=float(c_scale), bound_value=float(bound_value),
        n_condition_ok=n_condition_ok,
    )


# --- stability histograms -----------------------------------------------------

@dataclass(frozen=True)
class IsoGapStats:
    """Per-pair maximum-coordinate embedding gaps, split by block relation."""

    gaps_iso: np.ndarray
    gaps_non_iso: np.ndarray

    @property
    def median_iso(self) -> float:
        return float(np.median(self.gaps_iso))

    @property
    def median_non_iso(self) -> float:
        return float(np.median(self.gaps_non_iso))


def _sample_gaps(emb_values, pool, budget, rng):
    """Gaps at ``budget`` distinct pairs of the ``BlockPairPool`` ``pool``,
    drawn as sorted flat indices (all of them when the budget covers it)."""
    if pool.size == 0:
        raise PreconditionError("no node pairs available in this category")
    if budget >= pool.size:
        flat = np.arange(pool.size)
    else:
        flat = np.sort(rng.choice(pool.size, size=budget, replace=False))
    i, j = pool.pairs(flat)
    return np.max(np.abs(emb_values[i] - emb_values[j]), axis=1)


def iso_gap_stats(values: np.ndarray, graph: SampledGraph, iso_pairs,
                  sample_budget: int = 2000, seed: int = 0) -> IsoGapStats:
    """Sample per-pair gaps of the (n, F) node features ``values`` within
    and outside matched-block pairs.

    "iso" pairs take one endpoint from each block of a matched pair;
    "non-iso" pairs span two distinct blocks that are not matched. Each
    category is one ``BlockPairPool`` over its block pairs (a, b), a < b,
    in increasing order, whatever the order of ``iso_pairs``. When the
    budget covers a category's full pool the enumeration is exhaustive.
    """
    if not iso_pairs:
        raise PreconditionError("the model has no matched block pair")
    r = int(graph.block_of.max()) + 1
    matched = {tuple(sorted(p)) for p in iso_pairs}
    upper = [(a, b) for a in range(r) for b in range(a + 1, r)]
    unmatched = [p for p in upper if p not in matched]
    if not unmatched:
        raise PreconditionError("the model has no unmatched block pair")
    rng = stream(seed, "iso-gaps")
    gaps_iso = _sample_gaps(values, BlockPairPool(graph, [p for p in upper if p in matched]),
                            sample_budget, rng)
    gaps_non_iso = _sample_gaps(values, BlockPairPool(graph, unmatched), sample_budget, rng)
    return IsoGapStats(gaps_iso=gaps_iso, gaps_non_iso=gaps_non_iso)
