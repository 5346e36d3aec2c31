"""The Scenario type and the Monte Carlo simulation driver.

A Scenario is valid by construction: __post_init__ checks every run rule
(integer horizon, trials and master_seed, a real varsigma, gains, initial states and
attack vectors of one component per state dimension among them) and
raises ScenarioError at the field path the harness loader reports, so
one built through dataclasses.replace fails alike. Its Topology checks
the graph rules itself. simulate takes a Scenario, holds an inits stack
to its initial-state rule, and refuses a batch it cannot allocate, as a
ScenarioError on run. It builds the dense arrays the step kernel
consumes (the channel mask comes from attacks.activity, the schedules
and Byzantine tables are filled from the window slices), splits trials
into chunks and each chunk's steps into blocks, and returns the raw
slabs (states and recovered message pairs) that the detector pipeline
pools.
The kernel reads the model, controller and topology from the Scenario
itself, and the initial states from row 0 of its states slab. A zero
horizon takes the same path: every draw and schedule has no steps, and
the kernel writes nothing.

simulate can run one batch from several initial-state tables (inits).
The random material does not depend on the initial states, so each
tile's material is drawn once and serves every table: the kernel runs
once per table on the same W, M, F and byz_rand.

Every random stream is derived counter-style from
(master_seed, trial, edge, stream tag), so the draws are a pure function
of the scenario and seed: chunking trials across workers, or a chunk's
steps into blocks, cannot change which numbers are drawn. Each stream
yields one row per step, whether or not the step uses it.

Random material of a block of Kb steps of a chunk of T trials, E edges,
n dims:

    keys     stream_keys hashes the PCG64 seed words of all T x E
             streams of one tag in a single vectorised pass, once per
             chunk
    draws    one edge_stream per (trial, edge, tag) and chunk; each
             block draws the stream's next Kb rows into a per-trial
             (E, Kb, ..., n) buffer, and one transposed copy per trial
             moves it into a step-contiguous slab
    slabs    noise W (T, Kb, E, n); watermark z (T, Kb, 4, E, n), turned
             into the pair M, F = z[:, :, :2], z[:, :, 2:], each
             (T, Kb, 2, E, n) with the copy on axis -3, by one in-place
             watermark_blocks call; byz_rand (T, Kb, E, n) only when a
             per_neighbor_random window falls inside the horizon,
             scaled per (step, edge) so it is 0 outside such windows.
             Unused material (noise at zero variance, byz_rand without
             such a window) is a broadcast 0, never a slab. A chunk
             allocates its slabs once, at its longest block, and every
             block overwrites them.

Tile rule: a batch of T trials and K steps whose material takes B bytes
is worth tiles = ceil(B / CHUNK_BYTES). Its trials split into
C = min(tiles, T // MIN_CHUNK_TRIALS) chunks, but at least 1 and at most
T, equal to within one trial; each chunk splits its steps into
ceil(tiles / C) blocks, at least 1 and at most K, equal to within one
step. So every (chunk, block) tile holds about CHUNK_BYTES of material:
less than CHUNK_BYTES plus one trial's material over a block and one
step's over the chunk, unless a single step of a chunk takes more. Where the budget sets C, a chunk is
one block; where the floor binds, a chunk holds fewer than
2 x MIN_CHUNK_TRIALS trials and as many blocks as it takes, so material
memory does not grow with the horizon. The split reads no worker count,
so every worker count runs the same tiles; the threads only choose who
runs which chunk.

A chunk of one block opens each stream, draws it and drops it, so it
holds one stream at a time. A chunk of several blocks keeps its
T x E streams of each drawn tag open until its last block. An open
stream costs about 0.9 kB of resident memory with its key, against
0.14 kB for one dropped once drawn (ru_maxrss growth over 1.1e5 streams
drawn through _draw_streams, numpy 2.4.6): 0.8 MB for a chunk of 40
trials over 11 edges and 2 tags. Each block also pays about 0.8 us per
stream for the standard_normal call. Only running chunks hold material,
so a run's peak is its output slabs plus threads x (one tile + open
streams).

Bit-compatibility invariant: stream (trial, j, i, tag) draws exactly the
numbers of default_rng(SeedSequence([master_seed, trial, j, i, tag])),
and a step's row does not depend on K. tests/test_watermark.py checks
the keys against SeedSequence, and the oracle in tests/test_kernels.py
seeds its streams through SeedSequence itself.

Environment knob:
    MASWATCH_WORKERS = <int>   upper bound on worker threads (default 1);
                               no more threads than chunks or CPUs run.
                               The only worker setting: simulate reads
                               it on every call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._checks import integer, real, reals
from .attacks import AttackScenario, activity, validate_attacks, window_rows
from .detectors import EnvelopeConfig, KlDetectorConfig
from .dynamics import AgentModel, ControllerParams, StateBounds
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

# Byte budget of one tile, a trial chunk's block of steps, of random material.
CHUNK_BYTES = 4 * 2**20
# Fewest trials a split puts in a chunk. The step kernel pays about 25
# numpy calls per step for each chunk; below 64 trials per chunk that
# overhead shows in its time (README, Memory).
MIN_CHUNK_TRIALS = 64


def resolve_workers() -> int:
    """The integer in MASWATCH_WORKERS, else 1; at least 1."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


class ScenarioError(ValueError):
    """Scenario validation failure; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _init_table(table, shape: tuple[int, int]) -> np.ndarray:
    """The initial-state rule: a read-only float copy of table, reals of
    the (agents, n) shape, else a ScenarioError at run.init."""
    try:
        rows = reals(table, "init")
    except ValueError as err:
        raise ScenarioError("run.init", str(err)) from None
    try:
        init = np.array(rows)
    except ValueError:  # ragged rows, which numpy refuses
        init = None
    if init is None or init.shape != shape:
        raise ScenarioError("run.init", f"expected shape {shape}, got {'ragged rows' if init is None else init.shape}")
    init.flags.writeable = False
    return init


@dataclass(frozen=True)
class Scenario:
    name: str
    topology: Topology
    model: AgentModel
    controller: ControllerParams
    watermark: WatermarkParams
    kl: KlDetectorConfig
    envelope: EnvelopeConfig
    bounds: StateBounds | None
    attacks: AttackScenario
    horizon: int
    trials: int
    master_seed: int
    init_states: np.ndarray
    varsigma: float = 0.05

    def __post_init__(self):
        n = self.model.n
        for key in ("K1", "K2"):
            gain = getattr(self.controller, key)
            if len(gain) != n:
                raise ScenarioError(f"controller.{key}", f"expected {n} components, got {len(gain)}")
        run = (("horizon", integer, 0), ("trials", integer, 1), ("master_seed", integer, 0), ("varsigma", real, 0))
        for key, check, low in run:
            try:
                object.__setattr__(self, key, check(getattr(self, key), key, low))
            except ValueError as err:
                raise ScenarioError(f"run.{key}", str(err)) from None
        object.__setattr__(self, "init_states", _init_table(self.init_states, (self.topology.n_agents, n)))
        # A schedule always has n coefficients; an offset only when given.
        vectors = [
            (f"attacks.channel[{idx}].{name}.coeffs", getattr(a, name).coeffs)
            for idx, a in enumerate(self.attacks.channel)
            for name in ("xi1", "lam1", "xi2", "lam2")
        ]
        vectors += [
            (f"attacks.byzantine[{idx}].offset", bz.offset) for idx, bz in enumerate(self.attacks.byzantine) if bz.offset
        ]
        for path, v in vectors:
            if len(v) != n:
                raise ScenarioError(path, f"expected {n} components, got {len(v)}")
        try:
            offender = validate_attacks(self.attacks, self.topology, self.horizon)
        except ValueError as err:
            raise ScenarioError("attacks", str(err)) from None
        if offender is not None:
            raise ScenarioError("attacks.budget", "local budget exceeded at agent {}, step {}".format(*offender))


@dataclass
class SimData:
    """Raw simulation output.

    states  (trials, steps+1, agents, n)  agent states, index 0 initial
    ystar   (trials, steps, 2, edges, n)  recovered copy r of the step-k
                                          message at [:, k-1, r-1]
    ystar1, ystar2 are properties giving the two copies as (trials,
    steps, edges, n) views. Edge axis order follows Topology.edges.
    The message at step index k-1 carries the sender state of snapshot
    k-1; the controller that consumes it produces snapshot k. A run
    from a stack of B initial-state tables puts a leading (B,) axis on
    both slabs, table b at [b].
    """

    states: np.ndarray
    ystar: np.ndarray
    ystar1 = property(lambda self: self.ystar[..., 0, :, :])
    ystar2 = property(lambda self: self.ystar[..., 1, :, :])


def _schedule_arrays(t: Topology, attacks: AttackScenario, horizon: int, n: int):
    """Attack tables over (step, edge), filled from the window slices.

    Returns the kernel's chan_mask, Xi, Lam (each (K, 2, E, n), the
    copy on axis -3), send_row and byz_coeff in its argument order, then
    the (K, E) scale of byz_rand. A Byzantine agent's behavior covers
    every edge it sends on, each behavior fills only its own window, and
    a step outside every window gets the honest entries: send_row k-1,
    byz_coeff 0, scale 0. In a frozen_state window send_row is start-1,
    the snapshot the window froze; a divergent_ramp's coefficient at
    step k is offset * k and a per_neighbor_random window's scale its
    own, as byzantine_emit computes them.
    """
    chan_mask = activity(attacks, t, horizon)[0]
    E = t.n_edges
    xi = np.ones((horizon, 2, E, n))
    lam = np.zeros((horizon, 2, E, n))
    for a in attacks.channel:
        e = t.edge_index(*a.edge)
        rows = window_rows(a.window, horizon)
        steps = np.arange(rows.start + 1, rows.stop + 1)
        for r, (xi_r, lam_r) in enumerate(((a.xi1, a.lam1), (a.xi2, a.lam2))):
            xi[rows, r, e] = xi_r.eval(steps)
            lam[rows, r, e] = lam_r.eval(steps)
    send_row = np.repeat(np.arange(horizon)[:, None], E, axis=1)
    byz_coeff = np.zeros((horizon, E, n))
    scale = np.zeros((horizon, E))
    for bz in attacks.byzantine:
        rows = window_rows(bz.window, horizon)
        out = t.src == bz.agent
        if bz.kind == "frozen_state":
            send_row[rows, out] = rows.start
        elif bz.kind == "divergent_ramp":
            steps = np.arange(rows.start + 1, rows.stop + 1, dtype=float)
            byz_coeff[rows, out] = steps[:, None, None] * bz.offset
        elif bz.kind == "constant_offset":
            byz_coeff[rows, out] = bz.offset
        else:
            scale[rows, out] = bz.scale
    return chan_mask, xi, lam, send_row, byz_coeff, scale


def _tiling(s: Scenario, scale: np.ndarray) -> tuple[int, int]:
    """(chunks, blocks) of the module's tile rule: how many trial chunks
    the batch splits into and how many step blocks each chunk does."""
    slabs = 4 + (s.controller.noise_var > 0) + bool(scale.any())  # as _pregenerate allocates them
    material = s.trials * 8 * s.horizon * s.topology.n_edges * s.model.n * slabs
    tiles = -(-material // CHUNK_BYTES)
    chunks = min(s.trials, max(1, min(tiles, s.trials // MIN_CHUNK_TRIALS)))
    return chunks, max(1, min(s.horizon, -(-tiles // chunks)))


def _open_streams(s: Scenario, trial_ids: np.ndarray, edges, tag: int, blocks: int) -> list:
    """Per trial, the edge_stream of each (trial, edge) stream of one tag.

    A chunk of several blocks holds every stream open for all of them. A
    chunk of one block gets lazy iterators instead, so each stream opens
    when it is drawn and is dropped once drawn.
    """
    keys = stream_keys(s.master_seed, trial_ids, edges, tag)
    if blocks == 1:
        return [map(edge_stream, row) for row in keys]
    return [[edge_stream(key) for key in row] for row in keys]


def _draw_streams(slab, streams, rows=slice(None)) -> None:
    """Write the next slab.shape[1] standard-normal rows of each stream into slab.

    slab is step-contiguous, (T, Kb, ..., E, n) with the edge axis at -2,
    and streams is _open_streams' list. Each stream draws its
    (Kb, ..., n) block into a per-trial buffer, and one transposed copy
    per trial moves the buffer to slab[t][..., rows, :], rows being the
    edge slots of the streams.
    """
    n_edges = slab.shape[-2] if isinstance(rows, slice) else len(rows)
    buf = np.empty((n_edges,) + slab.shape[1:-2] + slab.shape[-1:])
    step_major = np.moveaxis(buf, 0, -2)
    outs = list(buf)
    for ti, row in enumerate(streams):
        for stream, out in zip(row, outs):
            stream.standard_normal(out=out)
        slab[ti][..., rows, :] = step_major


def _pregenerate(s: Scenario, trial_ids: np.ndarray, scale: np.ndarray):
    """The chunk's random material, one block of steps at a time.

    Yields (first_step, W, M, F, byz_rand) for each step block of the
    tile rule, first_step being the block's first step index (0-based).
    W and byz_rand are (T, Kb, E, n). M and F are the (T, Kb, 2, E, n)
    views z[:, :, :2] and z[:, :, 2:] of one (T, Kb, 4, E, n) slab that
    watermark_blocks transforms in place. byz_rand holds the draws of
    the edges with a nonzero entry in the (K, E) scale, multiplied by
    it. Material a run does not use (noise at zero variance, byz_rand
    with an all-zero scale) is a read-only broadcast of 0, not a slab.
    Every block's slabs are views of the same buffers, so a block is
    valid only until the next one is drawn.
    """
    t, noise_var = s.topology, s.controller.noise_var
    blocks = _tiling(s, scale)[1]
    cuts = [s.horizon * b // blocks for b in range(blocks + 1)]
    shape = (trial_ids.shape[0], -(-s.horizon // blocks), t.n_edges, s.model.n)
    noise = _open_streams(s, trial_ids, t.edges, STREAM_NOISE, blocks) if noise_var > 0 else None
    W_buf = np.empty(shape) if noise_var > 0 else None
    marks = _open_streams(s, trial_ids, t.edges, STREAM_WATERMARK, blocks)
    z_buf = np.empty(shape[:2] + (4,) + shape[2:])
    rows = np.flatnonzero(scale.any(axis=0))
    byz = _open_streams(s, trial_ids, [t.edges[e] for e in rows], STREAM_BYZANTINE, blocks) if rows.size else None
    byz_buf = np.zeros(shape) if rows.size else None
    for k0, k1 in zip(cuts, cuts[1:]):
        zeros = np.broadcast_to(0.0, (shape[0], k1 - k0) + shape[2:])
        W = byz_rand = zeros
        if noise is not None:
            W = W_buf[:, : k1 - k0]
            _draw_streams(W, noise)
            W *= np.sqrt(noise_var)
        z = z_buf[:, : k1 - k0]
        _draw_streams(z, marks)
        M, F = watermark_blocks(z, s.watermark)
        if byz is not None:
            byz_rand = byz_buf[:, : k1 - k0]
            _draw_streams(byz_rand, byz, rows)
            byz_rand *= scale[k0:k1, :, None]
        yield k0, W, M, F, byz_rand


def simulate(s: Scenario, inits: np.ndarray | None = None) -> SimData:
    """Run the scenario's Monte Carlo batch and return the raw slabs.

    inits, a (B, agents, n) stack of initial-state tables, replaces
    s.init_states: the batch then runs once per table and both slabs
    gain a leading (B,) axis. One chunk's material is drawn once and
    serves every table. Every table must pass the rule of s.init_states
    before anything is allocated or drawn, else a ScenarioError on
    run.init. A batch whose output slabs or chunk material cannot be
    allocated is a ScenarioError on run naming the trials, steps and
    bytes of the output slabs.

    Trials split into chunks, and each chunk's steps into blocks, by the
    module's tile rule: about CHUNK_BYTES of random material per tile,
    and at least MIN_CHUNK_TRIALS trials per chunk unless the batch has
    fewer. The threads number min(MASWATCH_WORKERS, chunks, cpu count),
    the calling thread among them, and each takes every threads-th chunk
    and runs its blocks in step order. The tiling never changes a number.
    """
    t, trials = s.topology, s.trials
    n, N, E, K = s.model.n, t.n_agents, t.n_edges, s.horizon
    tables = [s.init_states] if inits is None else [_init_table(x, (N, n)) for x in inits]
    shapes = ((len(tables), trials, K + 1, N, n), (len(tables), trials, K, 2, E, n))
    batch = f"{trials} trials x {K} steps" + (f" x {len(tables)} initial states" if len(tables) > 1 else "")
    nbytes = 8 * sum(map(math.prod, shapes))
    refused = ScenarioError("run", f"{batch} need {nbytes} bytes of output slabs, more than can be allocated")
    try:
        states, ys = np.zeros(shapes[0]), np.zeros(shapes[1])
    except (ValueError, MemoryError):  # numpy's ValueError: a shape beyond intp
        raise refused from None
    for b, table in enumerate(tables):
        states[b, :, 0] = table

    def run_chunk(trial_ids: np.ndarray) -> None:
        lo, hi = int(trial_ids[0]), int(trial_ids[-1]) + 1
        for k0, W, M, F, byz_rand in _pregenerate(s, trial_ids, scale):
            # A diverging run overflows silently here; harness rejects its
            # non-finite states. errstate is per thread, so it is set here.
            with np.errstate(over="ignore", invalid="ignore"):
                for b in range(len(tables)):
                    _kernels._simulate_numpy(s, k0, W, M, F, *schedules, byz_rand, states[b, lo:hi], ys[b, lo:hi])

    def run_share(first: int) -> None:
        for chunk in chunks[first::threads]:
            run_chunk(chunk)

    try:
        *schedules, scale = _schedule_arrays(t, s.attacks, K, n)
        n_chunks = _tiling(s, scale)[0]
        chunks = np.array_split(np.arange(trials), n_chunks)
        threads = min(resolve_workers(), n_chunks, os.cpu_count() or 1)
        if threads == 1:
            run_share(0)
        else:
            with ThreadPoolExecutor(max_workers=threads - 1) as pool:
                helpers = pool.map(run_share, range(1, threads))
                run_share(0)
                list(helpers)
    except MemoryError:
        raise refused from None
    if inits is None:
        return SimData(states=states[0], ystar=ys[0])
    return SimData(states=states, ystar=ys)
