"""Independent brute-force references used by the test suite.

Everything here is written with plain Python loops against the recursion
definitions and deliberately shares no code with the package internals.
"""

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


def message_weights_oracle(adjacency):
    """The pair message weights 1 / (2n c) as one n x n array, from integer
    counts: c = CN / n, or 1 / n where CN = 0."""
    a = np.asarray(adjacency).astype(np.int64)
    n = a.shape[0]
    counts = a @ a
    return 1.0 / (2.0 * n * np.where(counts > 0, counts / n, 1.0 / n))


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
