"""Independent brute-force references used by the test suite.

Everything here is written with plain Python loops against the recursion
definitions and deliberately shares no code with the package internals.
"""

import dataclasses

import numpy as np


def common_neighbors_oracle(block_mass, S):
    """c(a, b) = sum_c pi_c S_ac S_bc by explicit triple loop."""
    r = len(block_mass)
    out = np.zeros((r, r))
    for a in range(r):
        for b in range(r):
            total = 0.0
            for c in range(r):
                total += block_mass[c] * S[a][c] * S[b][c]
            out[a, b] = total
    return out


def sample_graph_oracle(block_mass, S, n, position_rng, edge_rng):
    """Block assignment and adjacency by plain loops, one row at a time.

    Node i lies in the first block whose cumulative mass exceeds its
    position. Row i draws its n - 1 - i coins in one call, and coin k
    decides the pair (i, i + 1 + k). Returns (block_of, adjacency).
    """
    positions = position_rng.random(n)
    block_of = []
    for x in positions:
        a, right = 0, block_mass[0]
        while a < len(block_mass) - 1 and x >= right:
            a += 1
            right += block_mass[a]
        block_of.append(a)
    adj = np.zeros((n, n))
    for i in range(n - 1):
        z = edge_rng.random(n - 1 - i)
        for k in range(n - 1 - i):
            j = i + 1 + k
            if z[k] < S[block_of[i]][block_of[j]]:
                adj[i, j] = 1.0
                adj[j, i] = 1.0
    return np.array(block_of), adj


def across_block_nonedges_oracle(block_of, adjacency, iso_pairs, count, rng):
    """Negatives by a plain loop over one listed pool.

    The pool lists, per block pair (a, b) in the given order, every pair
    (i, j) with i in a and j in b, i-major. Each draw is one index into
    the whole list; repeated indices and edges are skipped. Returns the
    first ``count`` accepted pairs as (min, max) rows.
    """
    pool = []
    for a, b in iso_pairs:
        for i in range(len(block_of)):
            for j in range(len(block_of)):
                if block_of[i] == a and block_of[j] == b:
                    pool.append((i, j))
    chosen, seen = [], set()
    while len(chosen) < count:
        k = int(rng.integers(len(pool)))
        if k in seen:
            continue
        seen.add(k)
        i, j = pool[k]
        if adjacency[i][j] == 0:
            chosen.append((min(i, j), max(i, j)))
    return np.array(chosen)


def node_mpnn_oracle(adjacency, features, layers, aggregation):
    """Node recursion by nested loops; layers are (message, update) callables
    taking and returning 1-d vectors."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    f = [np.array(features[i], dtype=float) for i in range(n)]
    degrees = [sum(a[i][j] for j in range(n)) / n for i in range(n)]
    for message, update in layers:
        msgs = []
        for i in range(n):
            acc = None
            for j in range(n):
                if a[i][j] == 0.0:
                    continue
                term = np.asarray(message(f[i], f[j]), dtype=float)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = np.zeros(np.asarray(message(f[i], f[i])).shape)
            if aggregation == "neighbor_average":
                if degrees[i] == 0.0:
                    m = np.zeros_like(acc)
                else:
                    m = acc / (n * degrees[i])
            else:
                m = acc / n
            msgs.append(m)
        f = [np.asarray(update(f[i], msgs[i]), dtype=float) for i in range(n)]
    return np.stack(f)


def pair_mpnn_oracle(adjacency, layers, width0=1):
    """Pairwise recursion by nested loops from the all-ones start."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for z in range(n):
                s += a[i][z] * a[j][z]
            c[i, j] = s / n if s > 0 else 1.0 / n
    f = np.ones((n, n, width0))
    for message, update in layers:
        m = np.zeros((n, n, np.asarray(message(f[0, 0], f[0, 0])).shape[-1]))
        for i in range(n):
            for j in range(n):
                acc = np.zeros(m.shape[-1])
                for z in range(n):
                    if a[j][z] != 0.0:
                        acc = acc + a[j][z] * np.asarray(message(f[i, j], f[i, z]))
                    if a[i][z] != 0.0:
                        acc = acc + a[i][z] * np.asarray(message(f[i, j], f[j, z]))
                m[i, j] = acc / (2.0 * n * c[i, j])
        nxt = np.zeros((n, n, np.asarray(update(f[0, 0], m[0, 0])).shape[-1]))
        for i in range(n):
            for j in range(n):
                nxt[i, j] = update(f[i, j], m[i, j])
        f = nxt
    return f


def cmpnn_node_oracle(block_mass, S, start, layers, aggregation):
    """Continuous node recursion by loops over blocks, from the (r, F)
    ``start``: g_a = sum_b pi_b S_ab msg(B_a, B_b), divided by the block
    degree in mean mode. Returns the states at the start and after every
    layer."""
    r = len(block_mass)
    f = [np.array(start[a], dtype=float) for a in range(r)]
    degree = [sum(block_mass[b] * S[a][b] for b in range(r)) for a in range(r)]
    trace = [np.stack(f)]
    for message, update in layers:
        g = []
        for a in range(r):
            acc = 0.0
            for b in range(r):
                acc = acc + block_mass[b] * S[a][b] * np.asarray(message(f[a], f[b]))
            g.append(acc / degree[a] if aggregation == "neighbor_average" else acc)
        f = [np.asarray(update(f[a], g[a]), dtype=float) for a in range(r)]
        trace.append(np.stack(f))
    return trace


def cmpnn_pair_oracle(block_mass, S, start, layers):
    """Continuous pair recursion by loops over blocks, from the (r, r, F)
    ``start``: g_ab = sum_c pi_c [S_bc msg(F_ab, F_ac) + S_ac msg(F_ab, F_bc)]
    / (2 c_ab). Returns the states at the start and after every layer."""
    r = len(block_mass)
    c = common_neighbors_oracle(block_mass, S)
    f = {(a, b): np.array(start[a][b], dtype=float) for a in range(r) for b in range(r)}
    trace = [np.array([[f[a, b] for b in range(r)] for a in range(r)])]
    for message, update in layers:
        nxt = {}
        for a in range(r):
            for b in range(r):
                acc = 0.0
                for z in range(r):
                    acc = acc + block_mass[z] * S[b][z] * np.asarray(message(f[a, b], f[a, z]))
                    acc = acc + block_mass[z] * S[a][z] * np.asarray(message(f[a, b], f[b, z]))
                nxt[a, b] = np.asarray(update(f[a, b], acc / (2.0 * c[a, b])), dtype=float)
        f = nxt
        trace.append(np.array([[f[a, b] for b in range(r)] for a in range(r)]))
    return trace


def message_weights_oracle(adjacency):
    """The pair message weights 1 / (2n c) as one n x n array, from integer
    counts: c = CN / n, or 1 / n where CN = 0."""
    a = np.asarray(adjacency).astype(np.int64)
    n = a.shape[0]
    counts = a @ a
    return 1.0 / (2.0 * n * np.where(counts > 0, counts / n, 1.0 / n))


def count_matrix(stats):
    """The n x n common-neighbor counts that ``stats`` holds, expanded row
    by row from its flat array: the rows of each strip of
    ``stats.strip_rows`` rows, one after another, each from the strip's
    first row's column to the last, and mirrored."""
    flat, n, rows = stats.common_neighbors, stats.n, stats.strip_rows
    out = np.empty((n, n), dtype=flat.dtype)
    at = 0
    for first in range(0, n, rows):
        for i in range(first, min(first + rows, n)):
            out[i, first:] = out[first:, i] = flat[at : at + n - first]
            at += n - first
    assert at == len(flat)
    return out


def class_map_oracle(adjacency, pairs):
    """Layer 0's count classes and the map of a two-layer pass queried at
    ``pairs`` over them, from the whole counts and the whole class map.

    A pair's class is its key (D_i + D_j, max(CN_ij, 1)), the classes
    numbered in the sorted order of their keys (``np.unique``), and a
    class's message is (D_i + D_j) W_ij. For a pair with endpoints
    lo <= hi the map's entries are the classes of (hi, z) for z in N(lo),
    ascending, then of (lo, z) for z in N(hi); its own row is the class of
    (lo, hi) and its weight W_lo,hi. Returns (idx, own, w, n_rows,
    messages).
    """
    a = np.asarray(adjacency).astype(np.int64)
    n = a.shape[0]
    counts = a @ a
    degree = a.sum(axis=1)
    w = message_weights_oracle(a)
    sums = degree[:, None] + degree[None, :]
    keys = np.stack([sums.ravel(), np.maximum(counts, 1).ravel()], axis=1)
    classes, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.reshape(n, n)
    messages = classes[:, 0] * (1.0 / (2.0 * n * (classes[:, 1] / n)))
    idx, own, weights = [], [], []
    for i, j in pairs:
        lo, hi = min(i, j), max(i, j)
        idx += [inv[hi, z] for z in np.flatnonzero(a[lo])]
        idx += [inv[lo, z] for z in np.flatnonzero(a[hi])]
        own.append(inv[lo, hi])
        weights.append(w[lo, hi])
    return np.array(idx), np.array(own), np.array(weights), len(classes), messages


def pair_update_rows_oracle(adjacency, nets, pairs, d_values):
    """Pairwise recursion with neighbor-projection messages and width-1
    update nets from the all-ones start, every layer's net run on all
    i <= j rows as one batch in row-major order.

    Returns the dense last layer and the parameter gradients, one list per
    net, of <d_values, last layer at ``pairs``>.
    """
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    w = message_weights_oracle(a)
    rows = np.triu_indices(n)
    f = np.ones((n, n))
    caches = []
    for net in nets:
        y = a @ f
        m = (y + y.T) * w
        out, cache = net.forward_cache(np.stack([f[rows], m[rows]], axis=1))
        caches.append(cache)
        f = np.empty((n, n))
        f[rows] = out[:, 0]
        f.T[rows] = out[:, 0]
    grads = [None] * len(nets)
    g = np.zeros((n, n))
    np.add.at(g, (pairs[:, 0], pairs[:, 1]), d_values[:, 0])
    for t in range(len(nets) - 1, -1, -1):
        # row (i, j) feeds f_ij and f_ji: its gradient is g_ij + g_ji, g_ii
        d_rows = (g + g.T)[rows]
        d_rows[rows[0] == rows[1]] /= 2.0
        grads[t], d_in = nets[t].backward(caches[t], d_rows[:, None])
        d_f = np.zeros((n, n))
        d_f[rows] = d_in[:, 0]
        d_m = np.zeros((n, n))
        d_m[rows] = d_in[:, 1] * w[rows]
        # m = (A f + (A f)^T) w, so f collects A (d_m + d_m^T)
        g = d_f + a @ (d_m + d_m.T)
    return f, grads


def with_adjacency(graph, adjacency):
    """A copy of ``graph`` with its edges replaced (e.g. after hiding some).

    ``adjacency`` may have any dtype, but must be an n x n symmetric 0/1
    matrix with a zero diagonal (else ValueError); it is stored packed, one
    bit per pair, read-only.
    """
    n = graph.n
    a = np.asarray(adjacency)
    if a.shape != (n, n):
        raise ValueError(f"adjacency must be ({n}, {n}), got {a.shape}")
    if a.dtype != bool and not np.all((a == 0) | (a == 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    a = a.astype(bool)
    if a.diagonal().any():
        raise ValueError("adjacency must have a zero diagonal")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    bits = np.packbits(a, axis=1)
    bits.flags.writeable = False
    return dataclasses.replace(graph, bits=bits)


def edge_list(graph):
    """(m, 2) intp array of the undirected edges i < j of ``graph``,
    row-major, read row by row off its dense adjacency."""
    a = graph.adjacency
    rows = [np.column_stack([np.full(len(js), i), js])
            for i in range(graph.n) for js in [np.flatnonzero(a[i, i + 1 :]) + i + 1]]
    return np.concatenate(rows).astype(np.intp) if rows else np.zeros((0, 2), np.intp)


def write_edge_list_oracle(graph, edges_path, blocks_path):
    """The per-edge writer: one formatted line per edge of ``edge_list``
    and per node's block; returns the number of edges."""
    edges = edge_list(graph)
    with open(edges_path, "w") as fh:
        for i, j in edges:
            fh.write(f"{i} {j}\n")
    with open(blocks_path, "w") as fh:
        for b in graph.block_of:
            fh.write(f"{b}\n")
    return len(edges)


def finite_difference_gradients(loss_fn, params, h=1e-5):
    """Central differences of a scalar loss w.r.t. a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + h
            up = loss_fn()
            flat_p[k] = orig - h
            down = loss_fn()
            flat_p[k] = orig
            flat_g[k] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return worst
