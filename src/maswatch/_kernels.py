"""Trial-simulation step kernel.

One vectorized numpy implementation of the step loop. It reads the
scenario's model, controller, topology and initial states, consumes
pregenerated random material and attack schedules, and fills
preallocated output slabs, so a chunk of trials is a single kernel call
and results do not depend on how trials are chunked across workers.
The arithmetic order is fixed (edge-major accumulation of consensus
terms), so repeated runs are bitwise reproducible. tests/test_kernels.py
steps the same simulation message by message through the public
per-message API and compares.

Arguments, with T trials, K steps, N agents, E edges, n state dims:

    s                    the Scenario
    W, byz_rand (T, K, E, n), each step's (E, n) block contiguous;
                         unused material a read-only broadcast of 0
    M, F (T, K, 2, E, n) the material of copies r = 1, 2 on axis -3;
                         may be strided views of one (T, K, 4, E, n) slab
    chan_mask (K, E) bool   Xi, Lam (K, 2, E, n)
    byz_kind (K, E) i1      byz_coeff (K, E, n), the offset a BYZ_OFFSET
                         step adds (a ramp's offset * k already)
    states (T, K+1, N, n) out       ys (T, K, 2, E, n) out

Each masking statement covers both copies; consensus reads the first.

The leader is agent 0 and never consumes neighbor messages.
"""

from __future__ import annotations

import numpy as np

from .dynamics import noise_gain

# byz_kind codes; 0 marks a step and edge without a Byzantine behavior.
BYZ_OFFSET = 1
BYZ_FROZEN = 2
BYZ_RANDOM = 3


def _simulate_numpy(s, W, M, F, chan_mask, Xi, Lam, byz_kind, byz_coeff, byz_rand, states, ys):
    t, A, Bv, ctrl = s.topology, s.model.A, s.model.B, s.controller
    edge_src, edge_dst, edge_w = t.src, t.dst, np.array(t.weights)
    T, K, E, n = W.shape
    N = t.n_agents
    states[:, 0] = s.init_states
    frozen = np.zeros((T, E, n))
    frozen_set = np.zeros(E, dtype=bool)
    trial_rows = np.arange(T)[:, None]
    any_byz = bool(byz_kind.any())
    for k in range(1, K + 1):
        x = states[:, k - 1]
        plain = x[:, edge_src, :]  # a gather: already a new array
        if any_byz:
            kinds = byz_kind[k - 1]
            cap = (kinds == BYZ_FROZEN) & ~frozen_set
            if cap.any():
                frozen[:, cap] = x[:, edge_src[cap], :]
            frozen_set = np.where(kinds != 0, frozen_set | cap, False)
            sel = kinds == BYZ_OFFSET
            plain[:, sel] += byz_coeff[k - 1, sel]
            sel = kinds == BYZ_FROZEN
            plain[:, sel] = frozen[:, sel]
            sel = kinds == BYZ_RANDOM
            plain[:, sel] += byz_rand[:, k - 1, sel]
        y = plain + W[:, k - 1]
        m = M[:, k - 1]
        f = F[:, k - 1]
        b = y[:, None] / m + f
        cm = chan_mask[k - 1]
        if cm.any():
            b[:, :, cm] = Xi[k - 1][:, cm] * b[:, :, cm] + Lam[k - 1][:, cm]
        ys[:, k - 1] = m * (b - f)
        u = x @ ctrl.K1
        per_edge = ((ys[:, k - 1, 0] - x[:, edge_dst, :]) @ ctrl.K2) * edge_w
        cons = np.zeros((T, N))
        np.add.at(cons, (trial_rows, edge_dst[None, :]), per_edge)
        cons[:, 0] = 0.0
        u = u + noise_gain(k, ctrl) * cons
        states[:, k] = x @ A.T + u[:, :, None] * Bv
