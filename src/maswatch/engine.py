"""Monte Carlo simulation driver.

Builds the dense attack and watermark arrays the step kernel consumes
(the attack masks come from attacks.activity, the schedules are filled
from the window slices), splits trials across workers, and returns the raw slabs (states and
recovered message pairs) that the detector pipeline pools.

Every random stream is derived counter-style from
(master_seed, trial, edge, stream tag), so results are a pure function
of the scenario and seed: chunking trials across workers cannot change
which numbers are drawn. Each stream yields one row per step, whether
or not the step uses it.

Random material of a chunk of T trials, K steps, E edges, n dims:

    keys     stream_keys hashes the PCG64 seed words of all T x E
             streams of one tag in a single vectorised pass
    draws    one edge_stream per (trial, edge, tag) fills a per-trial
             (E, K, ..., n) buffer; one transposed copy per trial moves
             it into a step-contiguous slab
    slabs    noise W (T, K, E, n); watermark z (T, K, 4, E, n), turned
             into M1, M2, F1, F2 = z[:, :, r] by one in-place
             watermark_blocks call; byz_rand (T, K, E, n) only when a
             per_neighbor_random edge exists. Unused material (noise
             at zero variance, byz_rand without such an edge) is a
             broadcast 0, never a slab.

Bit-compatibility invariant: stream (trial, j, i, tag) draws exactly the
numbers of default_rng(SeedSequence([master_seed, trial, j, i, tag])),
and a step's row does not depend on K. tests/test_watermark.py checks
the keys against SeedSequence, and the oracle in tests/test_kernels.py
seeds its streams through SeedSequence itself.

Environment knob:
    MASWATCH_WORKERS = <int>   worker thread count (default 1)
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .attacks import AttackScenario, activity, validate_attacks, window_rows
from .dynamics import AgentModel, ControllerParams, noise_gain
from .graph import Topology
from .watermark import (
    STREAM_BYZANTINE,
    STREAM_NOISE,
    STREAM_WATERMARK,
    WatermarkParams,
    edge_stream,
    stream_keys,
    watermark_blocks,
)

WORKERS_ENV = "MASWATCH_WORKERS"

_BYZ_CODE = {
    "constant_offset": _kernels.BYZ_CONST,
    "divergent_ramp": _kernels.BYZ_RAMP,
    "frozen_state": _kernels.BYZ_FROZEN,
    "per_neighbor_random": _kernels.BYZ_RANDOM,
}


def resolve_workers(workers: int | None = None) -> int:
    w = workers if workers is not None else int(os.environ.get(WORKERS_ENV, "1"))
    if w < 1:
        raise ValueError("worker count must be at least 1")
    return w


@dataclass
class SimData:
    """Raw simulation output.

    states  (trials, steps+1, agents, n)  agent states, index 0 initial
    ystar1  (trials, steps, edges, n)     first recovered copy, step k
    ystar2  (trials, steps, edges, n)     second recovered copy
    Edge axis order follows Topology.edges. The message at step index
    k-1 carries the sender state of snapshot k-1; the controller that
    consumes it produces snapshot k.
    """

    states: np.ndarray
    ystar1: np.ndarray
    ystar2: np.ndarray


def _schedule_arrays(t: Topology, attacks: AttackScenario, horizon: int, n: int):
    """Attack arrays over (step, edge), filled from the window slices.

    Returns the kernel's chan_mask, Xi1, Lam1, Xi2, Lam2, byz_mask,
    byz_kind and byz_coeff in its argument order, then the per-edge
    rand_edges and rand_scale of per_neighbor_random behaviors.
    """
    chan_mask, byz_mask = activity(attacks, t, horizon)
    E = t.n_edges
    tamper = np.zeros((4, horizon, E, n))  # Xi1, Lam1, Xi2, Lam2
    tamper[0::2] = 1.0
    for a in attacks.channel:
        e = t.edge_index(*a.edge)
        rows = window_rows(a.window, horizon)
        steps = np.arange(rows.start + 1, rows.stop + 1)
        for r, sched in enumerate((a.xi1, a.lam1, a.xi2, a.lam2)):
            tamper[r, rows, e] = sched.eval(steps)
    byz_kind = np.zeros((horizon, E), dtype=np.int8)
    byz_coeff = np.zeros((horizon, E, n))
    rand_edges = np.zeros(E, dtype=bool)
    rand_scale = np.zeros(E)
    for bz in attacks.byzantine:
        rows = window_rows(bz.window, horizon)
        for i in t.out_neighbors(bz.agent):
            e = t.edge_index(bz.agent, i)
            byz_kind[rows, e] = _BYZ_CODE[bz.kind]
            if bz.offset:
                byz_coeff[rows, e] = bz.offset
            if bz.kind == "per_neighbor_random":
                rand_edges[e] = True
                rand_scale[e] = bz.scale
    return chan_mask, *tamper, byz_mask, byz_kind, byz_coeff, rand_edges, rand_scale


def _draw_streams(slab, master_seed, trial_ids, edges, tag, rows=slice(None)) -> None:
    """Write the standard-normal draws of each (trial, edge) stream into slab.

    slab is step-contiguous, (T, K, ..., E, n) with the edge axis at -2.
    Each stream draws its (K, ..., n) block into a per-trial buffer with
    one edge_stream call, and one transposed copy per trial moves the
    buffer to slab[t][..., rows, :], rows being the edge slots of edges.
    """
    keys = stream_keys(master_seed, trial_ids, edges, tag)
    buf = np.empty((len(edges),) + slab.shape[1:-2] + slab.shape[-1:])
    step_major = np.moveaxis(buf, 0, -2)
    for ti in range(len(trial_ids)):
        for r in range(len(edges)):
            edge_stream(keys[ti, r]).standard_normal(out=buf[r])
        slab[ti][..., rows, :] = step_major


def _pregenerate(
    trial_ids: np.ndarray,
    t: Topology,
    horizon: int,
    n: int,
    master_seed: int,
    noise_var: float,
    wm: WatermarkParams,
    rand_edges: np.ndarray,
    rand_scale: np.ndarray,
):
    """The chunk's random material as (T, K, E, n) arrays W, M1, M2, F1, F2, byz_rand.

    M1..F2 are the views z[:, :, r] of one (T, K, 4, E, n) slab that
    watermark_blocks transforms in place. Material a run does not use
    (noise at zero variance, byz_rand without a per_neighbor_random
    edge) is a read-only broadcast of 0, not a slab.
    """
    shape = (trial_ids.shape[0], horizon, t.n_edges, n)
    zeros = np.broadcast_to(0.0, shape)
    W = zeros
    if noise_var > 0:
        W = np.empty(shape)
        _draw_streams(W, master_seed, trial_ids, t.edges, STREAM_NOISE)
        W *= np.sqrt(noise_var)
    z = np.empty(shape[:2] + (4,) + shape[2:])
    _draw_streams(z, master_seed, trial_ids, t.edges, STREAM_WATERMARK)
    M1, M2, F1, F2 = watermark_blocks(z, wm)
    byz_rand = zeros
    if rand_edges.any():
        rows = np.flatnonzero(rand_edges)
        byz_rand = np.zeros(shape)
        _draw_streams(byz_rand, master_seed, trial_ids, [t.edges[e] for e in rows], STREAM_BYZANTINE, rows)
        byz_rand *= rand_scale[:, None]
    return W, M1, M2, F1, F2, byz_rand


def simulate(
    t: Topology,
    model: AgentModel,
    ctrl: ControllerParams,
    wm: WatermarkParams,
    attacks: AttackScenario,
    horizon: int,
    trials: int,
    master_seed: int,
    init_states: np.ndarray,
    workers: int | None = None,
) -> SimData:
    """Run the full Monte Carlo batch and return the raw slabs."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if trials < 1:
        raise ValueError("need at least one trial")
    init_states = np.asarray(init_states, dtype=float)
    if init_states.shape != (t.n_agents, model.n):
        raise ValueError(
            f"init_states must be ({t.n_agents}, {model.n}), got {init_states.shape}"
        )
    offender = validate_attacks(attacks, t, horizon)
    if offender is not None:
        agent, step = offender
        raise ValueError(
            f"attack scenario exceeds the local budget at agent {agent}, step {step}"
        )
    workers = resolve_workers(workers)
    n = model.n
    N = t.n_agents
    E = t.n_edges
    K = horizon
    states = np.zeros((trials, K + 1, N, n))
    ys1 = np.zeros((trials, K, E, n))
    ys2 = np.zeros((trials, K, E, n))
    if K == 0:
        states[:, 0] = init_states
        return SimData(states=states, ystar1=ys1, ystar2=ys2)
    *schedules, rand_edges, rand_scale = _schedule_arrays(t, attacks, K, n)
    ak = np.array([noise_gain(k, ctrl) for k in range(K + 1)])
    edge_src = np.array([j for j, _ in t.edges], dtype=np.int64)
    edge_dst = np.array([i for _, i in t.edges], dtype=np.int64)
    edge_w = np.array(t.weights)

    def run_chunk(trial_ids: np.ndarray) -> None:
        W, M1, M2, F1, F2, byz_rand = _pregenerate(
            trial_ids,
            t,
            K,
            n,
            master_seed,
            ctrl.noise_var,
            wm,
            rand_edges,
            rand_scale,
        )
        lo, hi = int(trial_ids[0]), int(trial_ids[-1]) + 1
        _kernels._simulate_numpy(
            init_states,
            model.A,
            model.B,
            ctrl.K1,
            ctrl.K2,
            ak,
            edge_src,
            edge_dst,
            edge_w,
            W,
            M1,
            M2,
            F1,
            F2,
            *schedules,
            byz_rand,
            states[lo:hi],
            ys1[lo:hi],
            ys2[lo:hi],
        )

    chunks = [c for c in np.array_split(np.arange(trials), workers) if c.size]
    if len(chunks) == 1:
        run_chunk(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(run_chunk, chunks))
    return SimData(states=states, ystar1=ys1, ystar2=ys2)
