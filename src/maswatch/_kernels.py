"""Trial-simulation step kernel.

One vectorized numpy implementation of the step loop. It reads the
scenario's model, controller and topology, starts from the states in
the row before its first step, consumes one block of steps of
pregenerated random material and the run's attack schedules, and fills
the block's rows of the states slab and of preallocated copy windows,
so a block of steps of a chunk of trials from one initial-state table
is a single kernel call and results do not depend on how trials are
chunked or steps split into blocks.
Each step's contractions run on flat operands, one row per (trial,
agent) or (trial, edge), so x A^T with x K1 (one pass over the columns
of [A^T | K1]) and the per-edge K2 term are two passes, not one per
trial. The arithmetic order is fixed: each contraction adds its
products over the n state components left to right, one elementwise
ufunc over every row at a time, with no BLAS call, and one bincount
over (trial, receiver) slots adds each follower's consensus terms in
edge order, starting from 0.0. So repeated runs are bitwise
reproducible, and no BLAS library or core decides a bit.
tests/test_kernels.py steps the same simulation message by message
through the public per-message API and compares, and pins both orders
bit for bit.

Arguments, with T trials, K steps, a block of Kb steps from step index
k0, N agents, E edges, n state dims:

    s                    the Scenario
    k0                   the block's first step index: it runs steps
                         k0+1 .. k0+Kb
    W, byz_rand (T, E, Kb, n), each (trial, edge) stream's rows
                         contiguous, row j the material of step k0+j+1;
                         unused material a read-only broadcast of 0;
                         byz_rand is already scaled, and 0 outside
                         per_neighbor_random windows
    M, F (T, E, Kb, 2, n) the material of copies r = 1, 2 on axis -2;
                         may be strided views of one (T, E, Kb, 4, n) slab
    chan_mask (K, E) bool   Xi, Lam (K, E, 2, n)
    send_row (K, E) intp the states row each edge's sender reads at a
                         step: k-1, or start-1 in a frozen_state window,
                         which may lie before the block
    byz_coeff (K, E, n)  the offset each step adds (a ramp's offset * k
                         already), 0 outside offset windows
    states (T, K+1, N, n) in/out: rows 0..k0 hold the states up to the
                         block on entry, row 0 the initial states, and
                         the kernel writes rows k0+1 .. k0+Kb
    ys1 (T, Kb, E, n)    out: recovered copy 1, row j the message of
                         step k0+j+1
    ys2 (T, Pb, n)       out: copy 2 of the block's Pb chan_mask pairs,
                         in the order of np.argwhere(chan_mask)

The arguments come in the order of their sources: one tile (k0, W, M,
F, byz_rand) as engine._pregenerate yields it, the schedules chan_mask
.. byz_coeff as engine._schedule_arrays returns them, then the windows.
The schedules and states are indexed by absolute step, the material
and the copies by their row in the block.

A Byzantine sender's plaintext is the gathered row plus byz_coeff
plus byz_rand, with no branch on the behavior: an honest step adds 0.
Both copies of an honest channel's message are y, plaintext plus noise;
only chan_mask edges run the round trip and store copy 2. Consensus
reads copy 1.

The leader is agent 0 and never consumes neighbor messages.
"""

from __future__ import annotations

import numpy as np

from .dynamics import noise_gain


def _dot(rows, v):
    """The product of (R, n) rows and a v of n scalars or rows,
    transposed: rows[:, c] times v[c] added over c left to right, each
    step one elementwise ufunc along the R rows."""
    cols = rows.T.copy()  # one contiguous row of R values per component
    acc = np.multiply.outer(v[0], cols[0])
    for c in range(1, len(cols)):
        acc += np.multiply.outer(v[c], cols[c])
    return acc


def _simulate_numpy(s, k0, W, M, F, byz_rand, chan_mask, Xi, Lam, send_row, byz_coeff, states, ys1, ys2):
    t, A, Bv, ctrl = s.topology, s.model.A, s.model.B, s.controller
    edge_src, edge_dst = t.src, t.dst
    T, E, Kb, n = W.shape
    N = t.n_agents
    # bincount slot of each (trial, edge) consensus term: its receiver's
    # row in the flat (T * N,) control vector, in trial-major edge order.
    slot = (np.arange(T)[:, None] * N + edge_dst).ravel()
    weight = np.tile(t.weights, T)
    AK = np.column_stack([A.T, ctrl.K1])  # (n, n + 1): x AK is x A^T, then x K1
    ends = np.cumsum(chan_mask[k0 : k0 + Kb].sum(axis=1))  # ys2 rows of the block's first j+1 steps end at ends[j]
    for j in range(Kb):
        k = k0 + j + 1
        x = states[:, k - 1]
        plain = states[:, send_row[k - 1], edge_src]  # a gather: already a new array
        plain += byz_coeff[k - 1]
        plain += byz_rand[:, :, j]
        y = np.add(plain, W[:, :, j], out=ys1[:, j])
        cm = chan_mask[k - 1]
        if cm.any():
            m, f = M[:, cm, j], F[:, cm, j]
            both = m * ((Xi[k - 1][cm] * (y[:, cm, None] / m + f) + Lam[k - 1][cm]) - f)
            y[:, cm] = both[:, :, 0]
            ys2[:, ends[j] - both.shape[1] : ends[j]] = both[:, :, 1]
        # x A^T and x K1 of the step's states, one column per (trial, agent)
        xAK = _dot(x.reshape(T * N, n), AK)
        diff = (y - x[:, edge_dst, :]).reshape(T * E, n)
        per_edge = _dot(diff, ctrl.K2) * weight
        cons = np.bincount(slot, weights=per_edge, minlength=T * N)
        cons[::N] = 0.0  # the leader, agent 0
        u = xAK[n] + noise_gain(k, ctrl) * cons
        states[:, k] = (xAK[:n] + np.multiply.outer(Bv, u)).T.reshape(T, N, n)
