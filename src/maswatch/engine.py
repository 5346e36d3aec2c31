"""The Scenario type and the Monte Carlo simulation driver.

A Scenario is valid by construction: __post_init__ checks every run rule
(gains, initial states and attack vectors of one component per state
dimension among them) and raises ScenarioError at the field path the
harness loader reports, so one built through dataclasses.replace fails
alike. Its Topology checks the graph rules itself. simulate takes a
Scenario and refuses only a batch it cannot allocate, as a ScenarioError
on run. It builds the dense attack and watermark arrays the step kernel
consumes (the channel mask comes from attacks.activity, the schedules
and Byzantine tables are filled from the window slices), splits trials
into chunks, and returns the raw slabs (states and recovered message
pairs) that the detector pipeline pools.
The kernel reads the model, controller and topology from the Scenario
itself, and the initial states from row 0 of its states slab. A zero
horizon takes the same path: every draw and schedule has no steps, and
the kernel writes nothing.

simulate can run one batch from several initial-state tables (inits).
The random material does not depend on the initial states, so each
chunk's material is drawn once and serves every table: the kernel runs
once per table on the same W, M, F and byz_rand.

Every random stream is derived counter-style from
(master_seed, trial, edge, stream tag), so the draws are a pure function
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
             into the pair M, F = z[:, :, :2], z[:, :, 2:], each
             (T, K, 2, E, n) with the copy on axis -3, by one in-place
             watermark_blocks call; byz_rand (T, K, E, n) only when a
             per_neighbor_random window falls inside the horizon,
             scaled per (step, edge) so it is 0 outside such windows.
             Unused material (noise at zero variance, byz_rand without
             such a window) is a broadcast 0, never a slab.

Chunk rule: a batch of T trials whose material takes B bytes splits
into min(ceil(B / CHUNK_BYTES), T // MIN_CHUNK_TRIALS) chunks, but at
least ceil(B / MAX_CHUNK_BYTES) and 1, and at most T; the chunks are
equal to within one trial. The split reads no worker count, so every
worker count runs the same chunks; the threads only choose who runs
which. A chunk holds at most CHUNK_BYTES of slabs plus one trial's
worth, unless the floor binds: then it holds fewer than
2 x MIN_CHUNK_TRIALS trials, and still at most MAX_CHUNK_BYTES plus one
trial's worth. Only running chunks hold material, so a run's peak is
its output slabs plus at most threads x (MAX_CHUNK_BYTES + one trial)
of material.

Bit-compatibility invariant: stream (trial, j, i, tag) draws exactly the
numbers of default_rng(SeedSequence([master_seed, trial, j, i, tag])),
and a step's row does not depend on K. tests/test_watermark.py checks
the keys against SeedSequence, and the oracle in tests/test_kernels.py
seeds its streams through SeedSequence itself.

Environment knob:
    MASWATCH_WORKERS = <int>   upper bound on worker threads (default 1);
                               no more threads than chunks or CPUs run
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
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

# Byte budget of one trial chunk's random material.
CHUNK_BYTES = 4 * 2**20
# Fewest trials a split puts in a chunk. The step kernel pays about 25
# numpy calls per step for each chunk; below 64 trials per chunk that
# overhead shows in its time (README, Memory).
MIN_CHUNK_TRIALS = 64
# Byte ceiling of one chunk's material that the floor cannot push past,
# so a long horizon still splits.
MAX_CHUNK_BYTES = 32 * 2**20


def resolve_workers(workers: int | None = None) -> int:
    """workers, else the integer in MASWATCH_WORKERS, else 1; at least 1."""
    name = "worker count"
    if workers is None:
        name, raw = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{name} must be at least 1, got {workers}")
    return workers


class ScenarioError(ValueError):
    """Scenario validation failure; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


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
    varsigma: float
    init_states: np.ndarray

    def __post_init__(self):
        n = self.model.n
        for key in ("K1", "K2"):
            gain = getattr(self.controller, key)
            if len(gain) != n:
                raise ScenarioError(f"controller.{key}", f"expected {n} components, got {len(gain)}")
        for key, ok, message in (
            ("horizon", self.horizon >= 0, "horizon must be nonnegative"),
            ("trials", self.trials >= 1, "need at least one trial"),
            ("master_seed", self.master_seed >= 0, "master_seed must be nonnegative"),
            ("varsigma", 0 < self.varsigma < math.inf, "varsigma must be positive and finite"),
        ):
            if not ok:
                raise ScenarioError(f"run.{key}", message)
        try:
            init = np.array(self.init_states, dtype=float)
        except (TypeError, ValueError) as err:  # ragged rows, or not numbers
            raise ScenarioError("run.init", str(err)) from None
        shape = (self.topology.n_agents, n)
        if init.shape != shape:
            raise ScenarioError("run.init", f"expected shape {shape}, got {init.shape}")
        if not np.isfinite(init).all():
            raise ScenarioError("run.init", "initial states must be finite")
        init.flags.writeable = False
        object.__setattr__(self, "init_states", init)
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


def _pregenerate(s: Scenario, trial_ids: np.ndarray, scale: np.ndarray):
    """The chunk's random material W, M, F, byz_rand.

    W and byz_rand are (T, K, E, n). M and F are the (T, K, 2, E, n)
    views z[:, :, :2] and z[:, :, 2:] of one (T, K, 4, E, n) slab that
    watermark_blocks transforms in place. byz_rand holds the draws of
    the edges with a nonzero entry in the (K, E) scale, multiplied by
    it. Material a run does not use (noise at zero variance, byz_rand
    with an all-zero scale) is a read-only broadcast of 0, not a slab.
    """
    t, noise_var = s.topology, s.controller.noise_var
    shape = (trial_ids.shape[0], s.horizon, t.n_edges, s.model.n)
    zeros = np.broadcast_to(0.0, shape)
    W = zeros
    if noise_var > 0:
        W = np.empty(shape)
        _draw_streams(W, s.master_seed, trial_ids, t.edges, STREAM_NOISE)
        W *= np.sqrt(noise_var)
    z = np.empty(shape[:2] + (4,) + shape[2:])
    _draw_streams(z, s.master_seed, trial_ids, t.edges, STREAM_WATERMARK)
    M, F = watermark_blocks(z, s.watermark)
    byz_rand = zeros
    rows = np.flatnonzero(scale.any(axis=0))
    if rows.size:
        byz_rand = np.zeros(shape)
        _draw_streams(byz_rand, s.master_seed, trial_ids, [t.edges[e] for e in rows], STREAM_BYZANTINE, rows)
        byz_rand *= scale[:, :, None]
    return W, M, F, byz_rand


def simulate(s: Scenario, workers: int | None = None, inits: np.ndarray | None = None) -> SimData:
    """Run the scenario's Monte Carlo batch and return the raw slabs.

    s is valid by construction, so the one failure is a batch whose
    output slabs or chunk material cannot be allocated: a ScenarioError
    on run naming the trials, steps and bytes of the output slabs.
    inits, a (B, agents, n) stack of initial-state tables, replaces
    s.init_states: the batch then runs once per table and both slabs
    gain a leading (B,) axis. One chunk's material is drawn once and
    serves every table.

    Trials are split into chunks by the module's chunk rule: at most
    CHUNK_BYTES of random material each, and at least MIN_CHUNK_TRIALS
    trials unless the batch has fewer, or unless the floor would take a
    chunk past MAX_CHUNK_BYTES. The threads number min(workers, chunks,
    cpu count), the calling thread among them, and each takes every
    threads-th chunk. The chunking never changes a number.
    """
    t, trials = s.topology, s.trials
    workers = resolve_workers(workers)
    n, N, E, K = s.model.n, t.n_agents, t.n_edges, s.horizon
    tables = s.init_states[None] if inits is None else inits
    shapes = ((len(tables), trials, K + 1, N, n), (len(tables), trials, K, 2, E, n))
    batch = f"{trials} trials x {K} steps" + (f" x {len(tables)} initial states" if len(tables) > 1 else "")
    nbytes = 8 * sum(map(math.prod, shapes))
    refused = ScenarioError("run", f"{batch} need {nbytes} bytes of output slabs, more than can be allocated")
    try:
        states, ys = np.zeros(shapes[0]), np.zeros(shapes[1])
    except (ValueError, MemoryError):  # numpy's ValueError: a shape beyond intp
        raise refused from None
    states[:, :, 0] = tables[:, None]

    def run_chunk(trial_ids: np.ndarray) -> None:
        W, M, F, byz_rand = _pregenerate(s, trial_ids, scale)
        lo, hi = int(trial_ids[0]), int(trial_ids[-1]) + 1
        # A diverging run overflows silently here; harness rejects its
        # non-finite states. errstate is per thread, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(len(tables)):
                _kernels._simulate_numpy(s, W, M, F, *schedules, byz_rand, states[b, lo:hi], ys[b, lo:hi])

    def run_share(first: int) -> None:
        for chunk in chunks[first::threads]:
            run_chunk(chunk)

    try:
        *schedules, scale = _schedule_arrays(t, s.attacks, K, n)
        slabs = 4 + (s.controller.noise_var > 0) + bool(scale.any())  # as _pregenerate allocates them
        material = trials * 8 * K * E * n * slabs
        budget, ceiling = (-(-material // limit) for limit in (CHUNK_BYTES, MAX_CHUNK_BYTES))
        n_chunks = min(trials, max(1, ceiling, min(budget, trials // MIN_CHUNK_TRIALS)))
        chunks = np.array_split(np.arange(trials), n_chunks)
        threads = min(workers, n_chunks, os.cpu_count() or 1)
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
