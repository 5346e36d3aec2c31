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
slabs (states, recovered copy 1, and copy 2 where a channel is tampered)
or, given a sink, hands the recovered copies to it one step block at a
time, the way the detector pipeline pools them.
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
of the scenario and seed: splitting trials into chunks, or a chunk's
steps into blocks, cannot change which numbers are drawn. Each stream
yields one row per step, whether or not the step uses it.

Random material of a block of Kb steps of a chunk of T trials, E edges,
n dims:

    keys     stream_keys hashes the PCG64 seed words of all T x E
             streams of one tag in a single vectorised pass, once per
             chunk
    draws    one edge_stream per (trial, edge, tag) and chunk; each
             block draws the stream's next Kb rows straight into its
             own slab row slab[t, e], contiguous, with no buffer and no
             copy
    slabs    noise W (T, E, Kb, n); watermark z (T, E, Kb, 4, n), turned
             into the pair M, F = z[..., :2, :], z[..., 2:, :], each
             (T, E, Kb, 2, n) with the copy on axis -2, by one in-place
             watermark_blocks call; byz_rand (T, E, Kb, n) only when a
             per_neighbor_random window falls inside the horizon,
             scaled per (step, edge) so it is 0 outside such windows.
             Unused material (noise at zero variance, byz_rand without
             such a window) is a broadcast 0, never a slab. Each tile
             allocates its slabs C-contiguous at its block's own shape
             and frees them once the kernel has run it.

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
memory does not grow with the horizon. Every chunk has the same
blocks, and the tiles run block-major on the calling thread: every
chunk of block b, in trial order, runs before block b+1, and each
tile's material is freed before the next tile is drawn.

simulate takes each tile of a chunk from its _pregenerate generator
with next, and closes the generator after its last tile, which drops
the chunk's streams and keys. In a run of one block, each chunk opens
each stream, draws it and drops it, so the run holds one stream at a
time. A run of several blocks keeps the streams of every chunk open
across the chunks, each until its chunk's last tile: trials x edges
streams of each drawn tag. An open stream costs about 0.9 kB of
resident memory with its key, against 0.14 kB for one dropped once
drawn (ru_maxrss growth over 1.1e5 streams drawn through _draw_streams,
numpy 2.4.6): 9.9 MB for 500 trials over 11 edges and 2 tags. Each
block also pays about 0.8 us per stream for the standard_normal call.

The kernel writes each block's recovered copies into a copy window,
(trials, Kb, edges, n) for copy 1 and (trials, Pb, n) for copy 2 at the
block's Pb tampered pairs, sliced from one buffer per copy. Without a
sink, the buffers are the whole-run slabs that simulate returns, and
the window starts at the block's first step and pair. With a sink, they
are as long as the longest block, every window starts at row 0, and
once every chunk has run the block, the window goes to the sink with
the whole states slab. So a sink run's peak is its states plus one
copy window, one tile and the open streams; whatever the sink keeps
comes on top.

Bit-compatibility invariant: stream (trial, j, i, tag) draws exactly the
numbers of default_rng(SeedSequence([master_seed, trial, j, i, tag])),
and a step's row does not depend on K. tests/test_watermark.py checks
the keys against SeedSequence, and the oracle in tests/test_kernels.py
seeds its streams through SeedSequence itself.
"""

from __future__ import annotations

import math
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

# Byte budget of one tile, a trial chunk's block of steps, of random material.
CHUNK_BYTES = 4 * 2**20
# Fewest trials a split puts in a chunk. The step kernel pays about 25
# numpy calls per step for each chunk; below 64 trials per chunk that
# overhead shows in its time (README, Memory).
MIN_CHUNK_TRIALS = 64


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
    ystar1  (trials, steps, edges, n)     recovered copy 1 of the step-k
                                          message at [:, k-1]
    ystar2  (trials, P, n)                copy 2 at the P tampered pairs
    pairs   (P, 2)                        their (k-1, edge), step-major

    An untampered channel delivers copy 2 bitwise equal to copy 1, so it
    is stored only at pairs, np.argwhere of the channel mask. Edge axis
    order follows Topology.edges. The message at step index k-1 carries
    the sender state of snapshot k-1; the controller that consumes it
    produces snapshot k. A run from a stack of B initial-state tables
    puts a leading (B,) axis on the three slabs, table b at [b]. A run
    that handed its copies to a sink keeps none: ystar1 and ystar2 have
    no rows on axis 1, and pairs still lists the whole run's pairs.
    """

    states: np.ndarray
    ystar1: np.ndarray
    ystar2: np.ndarray
    pairs: np.ndarray


def _schedule_arrays(t: Topology, attacks: AttackScenario, horizon: int, n: int):
    """Attack tables over (step, edge), filled from the window slices.

    Returns the kernel's chan_mask, Xi, Lam (each (K, E, 2, n), the
    copy on axis -2), send_row and byz_coeff in its argument order, then
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
    xi = np.ones((horizon, E, 2, n))
    lam = np.zeros((horizon, E, 2, n))
    for a in attacks.channel:
        e = t.edge_index(*a.edge)
        rows = window_rows(a.window, horizon)
        steps = np.arange(rows.start + 1, rows.stop + 1)
        for r, (xi_r, lam_r) in enumerate(((a.xi1, a.lam1), (a.xi2, a.lam2))):
            xi[rows, e, r] = xi_r.eval(steps)
            lam[rows, e, r] = lam_r.eval(steps)
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


def _cuts(s: Scenario, scale: np.ndarray) -> list[int]:
    """The first step index of each step block of the tile rule, then the horizon."""
    blocks = _tiling(s, scale)[1]
    return [s.horizon * b // blocks for b in range(blocks + 1)]


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


def _draw_streams(slab, streams, rows) -> None:
    """Write the next slab.shape[2] standard-normal rows of each stream into slab.

    slab is stream-major, (T, E, Kb, ..., n), and streams is
    _open_streams' list; rows holds the edge indices of each trial's
    streams. Each stream draws its (Kb, ..., n) block into its own
    contiguous row slab[t, e].
    """
    for out, row in zip(slab, streams):
        # row first, so that zip exhausts a lazy row, which drops its keys
        for stream, e in zip(row, rows):
            stream.standard_normal(out=out[e])


def _pregenerate(s: Scenario, trial_ids: np.ndarray, scale: np.ndarray):
    """The chunk's random material, one block of steps at a time.

    Yields (first_step, W, M, F, byz_rand) for each step block of the
    tile rule, first_step being the block's first step index (0-based).
    W and byz_rand are (T, E, Kb, n). M and F are the (T, E, Kb, 2, n)
    views z[..., :2, :] and z[..., 2:, :] of one (T, E, Kb, 4, n) slab
    that watermark_blocks transforms in place. Each slab's [t, e] is the
    block's rows of stream (trial t, edge e), scaled. byz_rand holds the
    draws of the edges with a nonzero entry in the (K, E) scale,
    multiplied by it. Material a run does not use (noise at zero
    variance, byz_rand with an all-zero scale) is a read-only broadcast
    of 0, not a slab. Every tile's slabs are new C-contiguous arrays of
    the block's own shape, and the generator keeps no reference to them
    once yielded, so a tile lives only as long as its caller holds it.
    """
    t = s.topology
    cuts = _cuts(s, scale)
    blocks = len(cuts) - 1
    noise = _open_streams(s, trial_ids, t.edges, STREAM_NOISE, blocks) if s.controller.noise_var > 0 else None
    marks = _open_streams(s, trial_ids, t.edges, STREAM_WATERMARK, blocks)
    rows = np.flatnonzero(scale.any(axis=0))
    byz = _open_streams(s, trial_ids, [t.edges[e] for e in rows], STREAM_BYZANTINE, blocks) if rows.size else None
    for k0, k1 in zip(cuts, cuts[1:]):
        shape = (trial_ids.shape[0], t.n_edges, k1 - k0, s.model.n)
        yield (k0, *_draw_tile(s, shape, noise, marks, byz, rows, scale[k0:k1]))


def _draw_tile(s: Scenario, shape: tuple, noise, marks, byz, rows, scale):
    """W, M, F and byz_rand of one (T, E, Kb, n) tile, drawn from the
    chunk's open streams; scale is the block's (Kb, E) rows."""
    W = byz_rand = np.broadcast_to(0.0, shape)
    if noise is not None:
        W = np.empty(shape)
        _draw_streams(W, noise, range(shape[1]))
        W *= np.sqrt(s.controller.noise_var)
    z = np.empty(shape[:3] + (4,) + shape[3:])
    _draw_streams(z, marks, range(shape[1]))
    M, F = watermark_blocks(z, s.watermark)
    if byz is not None:
        byz_rand = np.zeros(shape)
        _draw_streams(byz_rand, byz, rows)
        byz_rand *= scale.T[:, :, None]
    return W, M, F, byz_rand


def simulate(s: Scenario, inits: np.ndarray | None = None, sink=None) -> SimData:
    """Run the scenario's Monte Carlo batch and return the raw slabs.

    inits, a (B, agents, n) stack of initial-state tables, replaces
    s.init_states: the batch then runs once per table and the three
    slabs gain a leading (B,) axis. One tile's material is drawn once
    and serves every table. Every table must pass the rule of s.init_states
    before anything is allocated or drawn, else a ScenarioError on
    run.init. A batch whose output slabs, material or copy windows
    cannot be allocated, or whose sink runs out of memory, is a
    ScenarioError on run naming the trials, steps and bytes of the
    output slabs.

    Trials split into chunks, and each chunk's steps into blocks, by the
    module's tile rule: about CHUNK_BYTES of random material per tile,
    and at least MIN_CHUNK_TRIALS trials per chunk unless the batch has
    fewer. The tiles run on the calling thread block by block, each
    block's chunks in trial order, and each tile runs the kernel once
    per table. The tiling never changes a number.

    sink, when given, is called once per step block in step order, as
    sink(k0, states, ys1, ys2, pairs), after every chunk has run the
    block: ys1 (trials, Kb, edges, n) holds copy 1 of steps k0+1 ..
    k0+Kb, ys2 (trials, Pb, n) copy 2 at the block's Pb tampered pairs,
    which pairs (Pb, 2) lists as SimData.pairs does, and states is the
    whole states slab, filled up to row k0+Kb; the arrays carry the
    (B,) axis of an inits stack. The next block reuses the windows' buffers.
    The returned SimData then holds the whole states and copies of no
    step: ystar1 (trials, 0, edges, n) and ystar2 (trials, 0, n), with
    the pairs of the whole run.
    """
    t, trials = s.topology, s.trials
    n, N, E, K = s.model.n, t.n_agents, t.n_edges, s.horizon
    tables = [s.init_states] if inits is None else [_init_table(x, (N, n)) for x in inits]
    B = len(tables)
    # The tampered (step, edge) pairs; no two channel attacks share one.
    P = sum(max(0, r.stop - r.start) for r in (window_rows(a.window, K) for a in s.attacks.channel))
    kept = (K, P) if sink is None else (0, 0)
    shapes = ((B, trials, K + 1, N, n), (B, trials, kept[0], E, n), (B, trials, kept[1], n))
    batch = f"{trials} trials x {K} steps" + (f" x {B} initial states" if B > 1 else "")
    nbytes = 8 * sum(map(math.prod, shapes))
    refused = ScenarioError("run", f"{batch} need {nbytes} bytes of output slabs, more than can be allocated")
    try:
        states, ys1, ys2 = tuple(map(np.zeros, shapes))
    except (ValueError, MemoryError):  # numpy's ValueError: a shape beyond intp
        raise refused from None
    for b, table in enumerate(tables):
        states[b, :, 0] = table
    one = (lambda a: a[0]) if inits is None else (lambda a: a)
    try:
        *schedules, scale = _schedule_arrays(t, s.attacks, K, n)
        pairs = np.argwhere(schedules[0])
        ends = np.concatenate(([0], np.cumsum(schedules[0].sum(axis=1))))  # ends[k]: pairs of steps 1..k
        cuts = _cuts(s, scale)
        blocks = [(k0, k1, ends[k0], ends[k1]) for k0, k1 in zip(cuts, cuts[1:])]
        win1, win2 = ys1, ys2  # the copy windows' buffers
        if sink is not None:
            win1 = np.empty((B, trials, max(k1 - k0 for k0, k1, _, _ in blocks), E, n))
            win2 = np.empty((B, trials, max(p1 - p0 for _, _, p0, p1 in blocks), n))
        # A material generator per chunk, which yields one tile per block.
        chunks = [
            (_pregenerate(s, ids, scale), slice(ids[0], ids[-1] + 1))
            for ids in np.array_split(np.arange(trials), _tiling(s, scale)[0])
        ]
        for k0, k1, p0, p1 in blocks:
            q0, r0 = (k0, p0) if sink is None else (0, 0)
            window1, window2 = win1[:, :, q0 : q0 + k1 - k0], win2[:, :, r0 : r0 + p1 - p0]
            for chunk, rows in chunks:
                tile = next(chunk)
                # A diverging run overflows silently here; harness rejects
                # its non-finite states.
                with np.errstate(over="ignore", invalid="ignore"):
                    for b in range(B):
                        _kernels._simulate_numpy(
                            s, *tile, *schedules, states[b, rows], window1[b, rows], window2[b, rows]
                        )
                del tile  # freed before the next chunk draws
                if k1 == K:
                    chunk.close()  # the chunk's last tile: drop its streams and keys
            if sink is not None:
                sink(k0, one(states), one(window1), one(window2), pairs[p0:p1])
    except MemoryError:
        raise refused from None
    return SimData(states=one(states), ystar1=one(ys1), ystar2=one(ys2), pairs=pairs)
