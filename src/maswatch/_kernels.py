"""Trial-simulation step kernel.

One vectorized numpy implementation of the step loop. It reads the
scenario's model, controller and topology, starts from the initial
states in row 0 of the states slab, consumes pregenerated random
material and attack schedules, and fills preallocated output slabs, so
a chunk of trials from one initial-state table is a single kernel call
and results do not depend on how trials are chunked across workers.
Each step's contractions run on flat operands, one row per (trial,
agent) or (trial, edge), so x @ K1, the per-edge @ K2 and x @ A.T are
one matrix product each, not one per trial. The arithmetic order is
fixed: one bincount over (trial, receiver) slots adds each follower's
consensus terms in edge order, starting from 0.0, so repeated runs are
bitwise reproducible. tests/test_kernels.py steps the same simulation
message by message through the public per-message API and compares,
and pins the consensus order bit for bit.

Arguments, with T trials, K steps, N agents, E edges, n state dims:

    s                    the Scenario
    W, byz_rand (T, K, E, n), each step's (E, n) block contiguous;
                         unused material a read-only broadcast of 0;
                         byz_rand is already scaled, and 0 outside
                         per_neighbor_random windows
    M, F (T, K, 2, E, n) the material of copies r = 1, 2 on axis -3;
                         may be strided views of one (T, K, 4, E, n) slab
    chan_mask (K, E) bool   Xi, Lam (K, 2, E, n)
    send_row (K, E) intp the states row each edge's sender reads at a
                         step: k-1, or start-1 in a frozen_state window
    byz_coeff (K, E, n)  the offset each step adds (a ramp's offset * k
                         already), 0 outside offset windows
    states (T, K+1, N, n) in/out: row 0 holds the initial states on
                         entry, and the kernel writes rows 1..K
    ys (T, K, 2, E, n) out

A Byzantine sender's plaintext is the gathered row plus byz_coeff
plus byz_rand, with no branch on the behavior: an honest step adds 0.
Each masking statement covers both copies; consensus reads the first.

The leader is agent 0 and never consumes neighbor messages.
"""

from __future__ import annotations

import numpy as np

from .dynamics import noise_gain


def _simulate_numpy(s, W, M, F, chan_mask, Xi, Lam, send_row, byz_coeff, byz_rand, states, ys):
    t, A, Bv, ctrl = s.topology, s.model.A, s.model.B, s.controller
    edge_src, edge_dst = t.src, t.dst
    T, K, E, n = W.shape
    N = t.n_agents
    # bincount slot of each (trial, edge) consensus term: its receiver's
    # row in the flat (T * N,) control vector, in trial-major edge order.
    slot = (np.arange(T)[:, None] * N + edge_dst).ravel()
    weight = np.tile(t.weights, T)
    for k in range(1, K + 1):
        x = states[:, k - 1]
        plain = states[:, send_row[k - 1], edge_src]  # a gather: already a new array
        plain += byz_coeff[k - 1]
        plain += byz_rand[:, k - 1]
        y = plain + W[:, k - 1]
        m = M[:, k - 1]
        f = F[:, k - 1]
        b = y[:, None] / m + f
        cm = chan_mask[k - 1]
        if cm.any():
            b[:, :, cm] = Xi[k - 1][:, cm] * b[:, :, cm] + Lam[k - 1][:, cm]
        ys[:, k - 1] = m * (b - f)
        flat = x.reshape(T * N, n)  # the step's states, one row per (trial, agent)
        u = flat @ ctrl.K1
        diff = (ys[:, k - 1, 0] - x[:, edge_dst, :]).reshape(T * E, n)
        per_edge = (diff @ ctrl.K2) * weight
        cons = np.bincount(slot, weights=per_edge, minlength=T * N)
        cons[::N] = 0.0  # the leader, agent 0
        u = u + noise_gain(k, ctrl) * cons
        states[:, k] = (flat @ A.T + u[:, None] * Bv).reshape(T, N, n)
