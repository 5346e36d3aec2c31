"""Trial-simulation step kernel.

One vectorized numpy implementation of the step loop. It consumes
pregenerated random material and attack schedules as plain arrays and
fills preallocated output slabs, so a chunk of trials is a single
kernel call and results do not depend on how trials are chunked
across workers. The arithmetic order is fixed (edge-major
accumulation of consensus terms), so repeated runs are bitwise
reproducible. tests/test_kernels.py steps the same simulation message
by message through the public per-message API and compares.

Array shapes, with T trials, K steps, N agents, E edges, n state dims:

    x0 (N, n)            A (n, n)   Bv, K1, K2 (n,)   ak (K+1,)
    edge_src, edge_dst (E,) int64   edge_w (E,)
    W, M1, M2, F1, F2, byz_rand (T, K, E, n), each step's (E, n)
                         block contiguous; M1..F2 may be strided views of
                         one (T, K, 4, E, n) slab, and unused material
                         (W, byz_rand) a read-only broadcast of 0
    chan_mask (K, E) bool   Xi1, Lam1, Xi2, Lam2 (K, E, n)
    byz_mask (K, E) bool    byz_kind (K, E) i1   byz_coeff (K, E, n)
    states (T, K+1, N, n) out       ys1, ys2 (T, K, E, n) out

The leader is agent 0 and never consumes neighbor messages.
"""

from __future__ import annotations

import numpy as np

# byz_kind codes; 0 marks a step and edge without a Byzantine behavior.
BYZ_CONST = 1
BYZ_RAMP = 2
BYZ_FROZEN = 3
BYZ_RANDOM = 4


def _simulate_numpy(
    x0,
    A,
    Bv,
    K1,
    K2,
    ak,
    edge_src,
    edge_dst,
    edge_w,
    W,
    M1,
    M2,
    F1,
    F2,
    chan_mask,
    Xi1,
    Lam1,
    Xi2,
    Lam2,
    byz_mask,
    byz_kind,
    byz_coeff,
    byz_rand,
    states,
    ys1,
    ys2,
):
    T, K, E, n = W.shape
    N = x0.shape[0]
    states[:, 0] = x0
    frozen = np.zeros((T, E, n))
    frozen_set = np.zeros(E, dtype=bool)
    trial_rows = np.arange(T)[:, None]
    any_byz = bool(byz_mask.any())
    for k in range(1, K + 1):
        x = states[:, k - 1]
        plain = x[:, edge_src, :].copy()
        if any_byz:
            bm = byz_mask[k - 1]
            kinds = byz_kind[k - 1]
            cap = bm & (kinds == BYZ_FROZEN) & ~frozen_set
            if cap.any():
                frozen[:, cap] = x[:, edge_src[cap], :]
            frozen_set = np.where(bm, frozen_set | cap, False)
            sel = bm & (kinds == BYZ_CONST)
            plain[:, sel] += byz_coeff[k - 1, sel]
            sel = bm & (kinds == BYZ_RAMP)
            plain[:, sel] += byz_coeff[k - 1, sel] * k
            sel = bm & (kinds == BYZ_FROZEN)
            plain[:, sel] = frozen[:, sel]
            sel = bm & (kinds == BYZ_RANDOM)
            plain[:, sel] += byz_rand[:, k - 1, sel]
        y = plain + W[:, k - 1]
        m1 = M1[:, k - 1]
        f1 = F1[:, k - 1]
        m2 = M2[:, k - 1]
        f2 = F2[:, k - 1]
        b1 = y / m1 + f1
        b2 = y / m2 + f2
        cm = chan_mask[k - 1]
        if cm.any():
            b1[:, cm] = Xi1[k - 1, cm] * b1[:, cm] + Lam1[k - 1, cm]
            b2[:, cm] = Xi2[k - 1, cm] * b2[:, cm] + Lam2[k - 1, cm]
        ys1[:, k - 1] = m1 * (b1 - f1)
        ys2[:, k - 1] = m2 * (b2 - f2)
        u = x @ K1
        per_edge = ((ys1[:, k - 1] - x[:, edge_dst, :]) @ K2) * edge_w
        cons = np.zeros((T, N))
        np.add.at(cons, (trial_rows, edge_dst[None, :]), per_edge)
        cons[:, 0] = 0.0
        u = u + ak[k] * cons
        states[:, k] = x @ A.T + u[:, :, None] * Bv
