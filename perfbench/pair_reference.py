"""Independent reference for the pair-sweep gap, from the recursions alone.

Written from the definitions, importing nothing from ``pair_mpnn`` or
``analysis``. For the closed-form pairwise network (message (x, y) -> y,
update (x, m) -> x / max(m, 1e-12)), all-ones start, T layers:

discrete, on a graph with adjacency A and n nodes:
    c_ij = (1/n) sum_z A_iz A_jz, with 0 replaced by 1/n
    m_ij = (1 / (2n c_ij)) sum_z [ A_jz f_iz + A_iz f_jz ]
    f_ij <- f_ij / max(m_ij, 1e-12)

continuous, on the block model (masses pi, probabilities S):
    c_ab = sum_c pi_c S_ac S_bc
    g_ab = (1 / (2 c_ab)) sum_c pi_c [ S_bc F_ac + S_ac F_bc ]
    F_ab <- F_ab / max(g_ab, 1e-12)

The gap is the largest |f_ij - F_{block(i) block(j)}| over pairs i != j.
"""

from __future__ import annotations

import numpy as np

EPS_DIV = 1e-12


def discrete_pair_fixed(adjacency: np.ndarray, layers: int) -> np.ndarray:
    """Dense n x n pair features after ``layers`` layers (matrix form)."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    c = (a @ a) / n
    c[c == 0.0] = 1.0 / n
    weights = 1.0 / (2.0 * n * c)
    f = np.ones((n, n))
    for _ in range(layers):
        # (F A)_ij = sum_z f_iz A_zj and (A F)_ij = sum_z A_iz f_zj; A and
        # every f are symmetric, so these are the two sums of m_ij.
        m = (f @ a + a @ f) * weights
        f = f / np.maximum(m, EPS_DIV)
    return f


def block_pair_fixed(block_mass, S, layers: int) -> list:
    """r x r block-pair features after ``layers`` layers, in plain loops."""
    pi = [float(p) for p in block_mass]
    S = [[float(v) for v in row] for row in np.asarray(S)]
    r = len(pi)
    c = [[sum(pi[k] * S[a][k] * S[b][k] for k in range(r)) for b in range(r)]
         for a in range(r)]
    F = [[1.0] * r for _ in range(r)]
    for _ in range(layers):
        G = [[sum(pi[k] * (S[b][k] * F[a][k] + S[a][k] * F[b][k]) for k in range(r))
              / (2.0 * c[a][b]) for b in range(r)] for a in range(r)]
        F = [[F[a][b] / max(G[a][b], EPS_DIV) for b in range(r)] for a in range(r)]
    return F


def pair_gap(adjacency, block_of, block_mass, S, layers: int) -> float:
    """Largest off-diagonal gap between the discrete and continuous paths."""
    f = discrete_pair_fixed(adjacency, layers)
    F = np.array(block_pair_fixed(block_mass, S, layers))
    block_of = np.asarray(block_of)
    gaps = np.abs(f - F[np.ix_(block_of, block_of)])
    np.fill_diagonal(gaps, -np.inf)
    return float(gaps.max())
