"""The step kernel against a message-by-message oracle.

simulate runs every trial through one vectorized numpy kernel. The
oracle below steps the same simulation one message at a time through
the public per-message API (rows of watermark_blocks, apply_watermark
and remove_watermark, tamper_channel, byzantine_emit, compute_control,
step_system), reading the same counter-style streams, and must agree
with simulate to float64 round-off. An honest channel delivers the
message exactly, so the oracle masks, tampers and unmasks only a
message whose channel is tampered at that step, and a property test
pins the kernel's copies to the same model bit for bit. The oracle
carries no Byzantine state from step to step: a frozen_state window's
capture is read back from the states the oracle has already computed.
The oracle seeds each stream with numpy's own SeedSequence, so it also
checks the engine's vectorised stream_keys. Neither the byte budget's
trial chunks nor its step blocks may change results at all.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import _kernels, engine, harness
from maswatch.attacks import ByzantineBehavior, activity, byzantine_emit, tamper_channel
from maswatch.dynamics import compute_control, noise_gain, step_system
from maswatch.engine import ScenarioError, simulate
from maswatch.graph import LEADER
from maswatch.harness import RunReport, platoon_preset, run_monte_carlo, scenario_from_dict
from maswatch.watermark import (
    STREAM_BYZANTINE,
    STREAM_NOISE,
    STREAM_WATERMARK,
    apply_watermark,
    remove_watermark,
    watermark_blocks,
)

from _reference import recovered_copies, reference_report
from _scenarios import small_doc

# Largest relative difference allowed between simulate and the oracle,
# fixed beforehand for float64: the two sum the consensus terms and the
# dot products in different orders.
RTOL = 1e-12


def _oracle(s):
    """simulate's states and the two recovered copies of every message,
    (T, K, E, n) each, one message at a time."""
    t, K, n = s.topology, s.horizon, s.model.n
    states = np.zeros((s.trials, K + 1, t.n_agents, n))
    ys1 = np.zeros((s.trials, K, t.n_edges, n))
    ys2 = np.zeros((s.trials, K, t.n_edges, n))
    sig = np.sqrt(s.controller.noise_var)
    for trial in range(s.trials):
        noise, marks, byz_draws = {}, {}, {}
        for edge in t.edges:
            def stream(tag):
                return np.random.default_rng(np.random.SeedSequence([s.master_seed, trial, *edge, tag]))

            noise[edge] = np.zeros((K, n))
            if s.controller.noise_var > 0:
                noise[edge] = sig * stream(STREAM_NOISE).standard_normal((K, n))
            z = stream(STREAM_WATERMARK).standard_normal((K, 4, n))
            marks[edge] = watermark_blocks(z, s.watermark)  # m, f, each (K, 2, n)
            byz_draws[edge] = stream(STREAM_BYZANTINE).standard_normal((K, n))
        x = s.init_states.copy()
        states[trial, 0] = x
        for k in range(1, K + 1):
            received = {i: {} for i in range(t.n_agents)}
            for e, edge in enumerate(t.edges):
                j, i = edge
                plain = x[j]
                for bz in s.attacks.byzantine:
                    if bz.agent == j and bz.active(k):
                        frozen = states[trial, bz.window[0] - 1, j]  # what a frozen_state window sends
                        plain = byzantine_emit(bz, k, x[j], frozen, byz_draws[edge][k - 1])
                y = plain + noise[edge][k - 1]
                ys1[trial, k - 1, e] = ys2[trial, k - 1, e] = y
                for a in s.attacks.channel:
                    if a.edge == edge and a.active(k):
                        m, f = (block[k - 1] for block in marks[edge])  # (2, n), copy r in row r-1
                        tampered = tamper_channel(apply_watermark(y, m, f), a, k)
                        ys1[trial, k - 1, e], ys2[trial, k - 1, e] = remove_watermark(tampered, m, f)
                received[i][j] = ys1[trial, k - 1, e]
            u = [compute_control(i, x[i], received[i], k, t, s.controller) for i in range(t.n_agents)]
            x = step_system(x, np.array(u), s.model)
            states[trial, k] = x
    return states, ys1, ys2


def _platoon(variant):
    return replace(platoon_preset(variant), horizon=30, trials=4)


def _small_with_byzantine(*behaviors, horizon=12, noise_var=1.0):
    """Agent 1 lies on edge (1, 2) in each (window, kind, scale) of
    behaviors while edge (0, 2) is tampered from step 2 with sin, ramp
    and const schedules."""
    doc = small_doc(horizon=horizon, trials=4)
    doc["controller"]["noise_var"] = noise_var
    doc["attacks"]["channel"] = [
        {
            "edge": [0, 2],
            "window": [2, None],
            "xi1": {"kind": "sin", "coeffs": [1.0, 0.5]},
            "lam1": {"kind": "ramp", "coeffs": [0.2, -0.1]},
            "xi2": {"kind": "const", "coeffs": [0.8, 1.1]},
            "lam2": {"kind": "sin", "coeffs": [0.0, 0.7]},
        }
    ]
    doc["attacks"]["byzantine"] = [
        {"agent": 1, "window": list(window), "kind": kind, "offset": [3.0, -1.0], "scale": scale}
        for window, kind, scale in behaviors
    ]
    return scenario_from_dict(doc)


# Back-to-back behaviors of agent 1: each frozen window sends its own
# snapshot start-1 and each random window draws at its own scale.
SEQUENCE = (
    ((2, 4), "frozen_state", 1.0),
    ((4, 6), "frozen_state", 1.0),
    ((6, 7), "per_neighbor_random", 1.0),
    ((7, 8), "constant_offset", 1.0),
    ((8, 10), "frozen_state", 1.0),
    ((10, 13), "per_neighbor_random", 1000.0),
)

ORACLE_CASES = {
    **{f"platoon-{v}": (lambda v=v: _platoon(v)) for v in (None, "clean", "channel", "byzantine", "hybrid")},
    **{
        f"small-{kind}": (lambda kind=kind: _small_with_byzantine(((3, 7), kind, 2.5)))
        for kind in ("constant_offset", "divergent_ramp", "frozen_state", "per_neighbor_random")
    },
    "small-sequence": lambda: _small_with_byzantine(*SEQUENCE, horizon=14),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_simulate_matches_per_message_oracle(case):
    s = ORACLE_CASES[case]()
    sim = simulate(s)
    copies = recovered_copies(sim)
    for name, got, want in zip(("states", "copy 1", "copy 2"), (sim.states, copies[:, :, 0], copies[:, :, 1]), _oracle(s)):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= RTOL, (name, err)


def test_each_byzantine_window_sends_its_own_capture_and_scale():
    """Without noise, edge (1, 2) recovers exactly what agent 1 emits:
    in each frozen window its snapshot start-1, and in each random window
    its true state plus that window's own scale times the step's draw."""
    s = _small_with_byzantine(*SEQUENCE, horizon=14, noise_var=0.0)
    sim = simulate(s)
    e = s.topology.edge_index(1, 2)
    seeds = [np.random.SeedSequence([s.master_seed, trial, 1, 2, STREAM_BYZANTINE]) for trial in range(s.trials)]
    z = np.stack([np.random.default_rng(seed).standard_normal((s.horizon, 2)) for seed in seeds])
    for (start, stop), kind, scale in SEQUENCE:
        for k in range(start, stop):
            sent, true = sim.ystar1[:, k - 1, e], sim.states[:, k - 1, 1]
            if kind == "frozen_state":
                want = sim.states[:, start - 1, 1]
                assert np.max(np.abs(sent - want)) <= RTOL * np.max(np.abs(want)), k
            elif kind == "per_neighbor_random":
                assert np.allclose((sent - true) / z[:, k - 1], scale, rtol=1e-6), k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["clean", "channel", "byzantine", "hybrid"]),
    st.sampled_from([0.0, 0.25, 4.0]),
    st.integers(2, 40),
    st.integers(8, 12),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_recovered_copies_are_the_message_unless_tampered(variant, noise_var, trials, start, frozen, rand):
    """An honest channel delivers the message exactly: a clean (step,
    edge) pair's copy 1 is the message y bit for bit, and its copy 2,
    equal to it, is not stored: ystar2 holds the tampered pairs alone,
    np.argwhere(chan_mask) in step-major order. A tampered pair's copies
    are m * ((Xi * (y / m + f) + Lam) - f) bit for bit, from the same
    material block and the same message y. Agent 5 also sends a
    frozen_state window from step start and a per_neighbor_random one
    right after it, both before the byzantine variant's window."""
    s = replace(platoon_preset(variant), horizon=24, trials=trials)
    windows = (
        ByzantineBehavior(5, (start, start + frozen), "frozen_state"),
        ByzantineBehavior(5, (start + frozen, start + frozen + rand), "per_neighbor_random", scale=3.0),
    )
    s = replace(
        s,
        controller=replace(s.controller, noise_var=noise_var),
        attacks=replace(s.attacks, byzantine=s.attacks.byzantine + windows),
    )
    sim = simulate(s)
    chan_mask, Xi, Lam, send_row, byz_coeff, scale = engine._schedule_arrays(s.topology, s.attacks, s.horizon, s.model.n)
    assert np.array_equal(sim.pairs, np.argwhere(chan_mask))
    assert sim.ystar2.shape == (trials, len(sim.pairs), s.model.n)
    assert chan_mask.any() == (variant in ("channel", "hybrid"))
    row = {(k, e): p for p, (k, e) in enumerate(sim.pairs.tolist())}
    src = s.topology.src
    for k0, W, M, F, byz_rand in engine._pregenerate(s, np.arange(trials), scale):
        for j in range(W.shape[2]):
            k = k0 + j + 1
            for e in range(s.topology.n_edges):
                y = sim.states[:, send_row[k - 1, e], src[e]] + byz_coeff[k - 1, e]
                y += byz_rand[:, e, j]
                y += W[:, e, j]
                if not chan_mask[k - 1, e]:
                    assert np.array_equal(sim.ystar1[:, k - 1, e], y), (k, e)
                    continue
                m, f = M[:, e, j], F[:, e, j]  # (T, 2, n), the copy on axis 1
                want = m * ((Xi[k - 1, e] * (y[:, None] / m + f) + Lam[k - 1, e]) - f)
                assert np.array_equal(sim.ystar1[:, k - 1, e], want[:, 0]), (k, e)
                assert np.array_equal(sim.ystar2[:, row[k - 1, e]], want[:, 1]), (k, e)


def test_trial_chunking_is_invisible(monkeypatch):
    """The 10 trials run as one chunk, and with a 1-byte budget and the
    floor at 2 trials as 5 chunks; no number changes."""
    s = replace(platoon_preset("channel"), horizon=12, trials=10)
    chunks, pregenerate = [], engine._pregenerate

    def recorded(s, trial_ids, scale):
        chunks.append(len(trial_ids))
        return pregenerate(s, trial_ids, scale)

    monkeypatch.setattr(engine, "_pregenerate", recorded)
    a = simulate(s)
    assert chunks == [10]
    chunks.clear()
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 2)
    b = simulate(s)
    assert chunks == [2] * 5
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.ystar1, b.ystar1)
    assert np.array_equal(a.ystar2, b.ystar2)


def test_chunks_run_on_the_calling_thread(monkeypatch):
    """simulate starts no thread: with MASWATCH_WORKERS=4 and 4 CPUs
    reported, every chunk of a 6-chunk batch draws its material on the
    calling thread."""
    s = scenario_from_dict(small_doc())
    runs, pregenerate = [], engine._pregenerate

    def recorded(s, trial_ids, scale):
        runs.append(threading.get_ident())
        return pregenerate(s, trial_ids, scale)

    monkeypatch.setenv("MASWATCH_WORKERS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    monkeypatch.setattr(engine, "_pregenerate", recorded)
    simulate(s)
    assert runs == [threading.get_ident()] * s.trials


def test_importing_maswatch_loads_no_thread_pool():
    """No module of the package imports concurrent.futures. A fresh
    interpreter is used, since this one may have loaded it already."""
    code = "import sys, maswatch, maswatch.cli; assert 'concurrent.futures' not in sys.modules"
    src = os.path.dirname(os.path.dirname(engine.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)


def test_trial_slabs_are_independent_of_trial_count():
    """Adding trials must not change the numbers of earlier trials."""
    s = scenario_from_dict(small_doc(horizon=6, trials=4))
    small = simulate(s)
    big = simulate(replace(s, trials=9))
    assert np.array_equal(small.states, big.states[:4])
    assert np.array_equal(small.ystar1, big.ystar1[:4])


def _random_material_case(noise_var=1.0, random_byzantine=False):
    doc = small_doc(horizon=120, trials=100)
    doc["controller"]["noise_var"] = noise_var
    kind = "per_neighbor_random" if random_byzantine else "constant_offset"
    doc["attacks"]["byzantine"] = [{"agent": 1, "window": [3, 7], "kind": kind, "offset": [3.0, -1.0], "scale": 2.5}]
    return scenario_from_dict(doc)


# Number of (trials, steps, edges, n) random-material slabs each case
# needs: noise W, the four watermark components, byz_rand.
SLAB_CASES = {
    "watermarked": ({}, 5),
    "watermarked-random-byzantine": ({"random_byzantine": True}, 6),
    "watermarked-noiseless": ({"noise_var": 0.0}, 4),
}


@pytest.mark.parametrize("case", SLAB_CASES)
def test_simulate_allocates_only_the_slabs_it_uses(case):
    # At most 3.5 MB of material, below engine.CHUNK_BYTES, and 100
    # trials, below 2 x engine.MIN_CHUNK_TRIALS: every case runs as one
    # chunk that holds all its slabs at once.
    kwargs, slabs = SLAB_CASES[case]
    s = _random_material_case(**kwargs)
    T, K, E, n = s.trials, s.horizon, s.topology.n_edges, s.model.n
    slab = T * K * E * n * 8
    P = int(activity(s.attacks, s.topology, K)[0].sum())  # tampered (step, edge) pairs
    outputs = 8 * T * (K + 1) * s.topology.n_agents * n + slab + 8 * T * P * n
    # The first simulate of a process also allocates numpy's and the
    # package's one-time state (about 0.7 MB); an untraced run pays it.
    simulate(s)
    tracemalloc.start()
    try:
        simulate(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Schedules, stream keys, numpy's ufunc buffers and the kernel's
    # per-step temporaries stay below half a slab at this shape.
    assert outputs + (slabs - 0.5) * slab <= peak <= outputs + (slabs + 0.5) * slab, peak


def _assert_same_arrays(a, b):
    """Every array field of two SimData or RunReport objects is equal bit
    for bit; a report's summary too."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
    if isinstance(a, RunReport):
        assert json.dumps(a.summary) == json.dumps(b.summary)


@pytest.mark.parametrize("case", SLAB_CASES)
def test_chunk_budget_is_invisible(case, monkeypatch):
    """A budget of 100 kB and a floor of one trial split the 100 trials
    into 24 to 35 chunks; no number changes."""
    kwargs, slabs = SLAB_CASES[case]
    s = _random_material_case(**kwargs)
    chunks = -(-slabs * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8 // 100_000)
    sim, report = simulate(s), run_monte_carlo(s)
    calls, kernel = [], _kernels._simulate_numpy

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 100_000)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted)
    _assert_same_arrays(simulate(s), sim)
    assert len(calls) == chunks
    _assert_same_arrays(run_monte_carlo(s), report)
    assert len(calls) == 2 * chunks


# (trials, horizon): chunks. The watermarked case draws 240 bytes of
# material per trial and step. One chunk below the floor, the budget or
# both; 2 and 12 chunks set by the 4 MiB budget; 15 set by the floor,
# where the budget alone would make 18 chunks of 56 trials; 2 set by the
# floor at 3000 steps, each chunk in 11 step blocks (22 tiles).
SPLIT_CASES = {
    (1, 12): 1,
    (63, 100): 1,
    (128, 12): 1,
    (200, 100): 2,
    (2000, 100): 12,
    (1000, 300): 15,
    (128, 3000): 2,
}


@pytest.mark.parametrize("trials, horizon", SPLIT_CASES)
def test_trial_split_follows_the_tile_rule(trials, horizon, monkeypatch):
    """The chunks cover the trials in order. Each chunk holds at least
    MIN_CHUNK_TRIALS trials unless the batch has fewer, and at most
    CHUNK_BYTES of material plus one trial's worth unless one more chunk
    would break the floor. Each of its step blocks holds less than
    CHUNK_BYTES plus one trial's and one step's worth. Only the split
    runs: simulate builds every chunk's material generator before it
    draws, and the stand-in's first draw stops the run, so the kernel
    never runs and the output slabs stay untouched zero pages."""
    s = replace(_random_material_case(), trials=trials, horizon=horizon)
    per_step = 8 * s.topology.n_edges * s.model.n * SLAB_CASES["watermarked"][1]
    per_trial = per_step * horizon
    chunks, blocks = [], []

    class Drawn(Exception):
        pass

    def no_material():
        raise Drawn
        yield

    def recorded(s, trial_ids, scale):
        chunks.append(trial_ids.tolist())
        blocks.append(engine._tiling(s, scale)[1])
        return no_material()

    monkeypatch.setattr(engine, "_pregenerate", recorded)
    with pytest.raises(Drawn):
        simulate(s)
    assert len(chunks) == SPLIT_CASES[trials, horizon]
    assert sum(chunks, []) == list(range(trials))
    at_floor = trials < (len(chunks) + 1) * engine.MIN_CHUNK_TRIALS
    steps = -(-horizon // blocks[0])  # the longest block
    for chunk in chunks:
        assert len(chunk) >= min(trials, engine.MIN_CHUNK_TRIALS)
        assert (len(chunk) - 1) * per_trial < engine.CHUNK_BYTES or at_floor
        assert len(chunk) * steps * per_step < engine.CHUNK_BYTES + (len(chunk) + steps) * per_step


@pytest.mark.parametrize("floor, chunks, blocks", [(1, 35, 1), (100, 1, 35)], ids=["35_chunks", "35_blocks"])
def test_each_initial_state_table_matches_its_own_run(floor, chunks, blocks, monkeypatch):
    """simulate(s, inits=stack) gives, table by table, the numbers of a
    run from that table alone. Under a 100 kB budget the batch is 35
    tiles: at a floor of one trial, 35 chunks of one block, and at a
    floor of all 100 trials, one chunk of 35 step blocks. Each chunk
    draws its noise, watermark and byz_rand material once, and each
    block runs the kernel once per table."""
    s = _random_material_case(random_byzantine=True)
    leader = s.init_states[0]
    stack = np.stack([leader + scale * (s.init_states - leader) for scale in (0.5, 1.0, 3.0)])
    want = [simulate(replace(s, init_states=table)) for table in stack]
    assert -(-6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8 // 100_000) == chunks * blocks
    draws, steps = [], []
    pregenerate, kernel = engine._pregenerate, _kernels._simulate_numpy

    def counted_pregenerate(*args):
        draws.append(1)
        return pregenerate(*args)

    def counted_kernel(*args):
        steps.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 100_000)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", floor)
    monkeypatch.setattr(engine, "_pregenerate", counted_pregenerate)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted_kernel)
    got = simulate(s, inits=stack)
    assert len(draws) == chunks and len(steps) == chunks * blocks * len(stack)
    assert got.states.shape == (len(stack),) + want[0].states.shape
    for b, one in enumerate(want):
        for name in ("states", "ystar1", "ystar2"):
            assert np.array_equal(getattr(got, name)[b], getattr(one, name)), (b, name)


@pytest.mark.parametrize(
    "stack",
    [
        lambda x: x[None, :1],  # (1, 1, n)
        lambda x: x[None, :, :1],  # (1, agents, 1)
        lambda x: np.stack([x, np.where(x == x.max(), np.nan, x)]),  # NaN in the second table
    ],
    ids=["one_agent", "one_component", "nan"],
)
def test_a_bad_initial_state_table_is_refused_before_anything_is_allocated(stack):
    """simulate holds every table of an inits stack to the Scenario's
    initial-state rule: a table numpy would broadcast, or one that is not
    finite, is a ScenarioError at run.init. A batch of 10**18 trials
    would be refused at run, so the tables are checked first."""
    s = scenario_from_dict(small_doc())
    for trials in (s.trials, 10**18):
        with pytest.raises(ScenarioError) as err:
            simulate(replace(s, trials=trials), inits=stack(s.init_states))
        assert err.value.path == "run.init"


@pytest.mark.parametrize("horizon", [1, 7])
def test_one_edge_residuals_sum_trials_in_order(horizon):
    """Each residual is the in-order sum over trials divided by their
    count. One edge's block of one step is a (T, 1) column, which a mean
    would sum pairwise: at horizon 1 every block is one, at horizon 7
    none is."""
    doc = small_doc(horizon=horizon, trials=200)
    doc["topology"] = {"n_agents": 2, "edges": [[0, 1]]}
    doc["run"]["init"]["states"] = doc["run"]["init"]["states"][:2]
    s = scenario_from_dict(doc)
    sim, r = simulate(s), run_monte_carlo(s)
    want = np.empty((2, s.horizon))
    copies = recovered_copies(sim)
    for c in range(2):
        norms = np.linalg.norm(copies[:, :, c, 0] - sim.states[:, :-1, 1], axis=-1)  # (T, K)
        for k in range(s.horizon):
            total = 0.0
            for d in norms[:, k].tolist():
                total += d
            want[c, k] = total / s.trials
    assert np.array_equal(r.residuals[:, 0], want)


def test_simulate_holds_one_chunk_of_material_at_a_time(monkeypatch):
    """With the budget at a quarter of the material and a floor of one
    trial, the peak is the outputs plus one chunk; it was the outputs
    plus every slab."""
    s = _random_material_case()
    T, K, E, n = s.trials, s.horizon, s.topology.n_edges, s.model.n
    slab = T * K * E * n * 8
    outputs = 8 * T * (K + 1) * s.topology.n_agents * n + slab  # no channel attack: ystar2 is empty
    monkeypatch.setattr(engine, "CHUNK_BYTES", 5 * slab // 4)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    tracemalloc.start()
    try:
        simulate(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The schedules and the other per-run arrays stay below half a slab,
    # as in test_simulate_allocates_only_the_slabs_it_uses.
    assert peak <= outputs + engine.CHUNK_BYTES + slab / 2, (peak - outputs) / slab


def _block_case():
    """small_doc at 20 trials x 30 steps with a window of each kind that a
    step block can cut: agent 1 frozen over steps 4..19 and then
    per_neighbor_random over steps 20..27, and a channel attack on edge
    (0, 2) over steps 10..15."""
    doc = small_doc(horizon=30, trials=20)
    doc["attacks"]["byzantine"] = [
        {"agent": 1, "window": [4, 20], "kind": "frozen_state"},
        {"agent": 1, "window": [20, 28], "kind": "per_neighbor_random", "scale": 2.5},
    ]
    one, zero = {"kind": "const", "coeffs": [1.0, 1.0]}, {"kind": "const", "coeffs": [0.0, 0.0]}
    tamper = {"kind": "const", "coeffs": [1.5, -2.0]}
    channel = {"edge": [0, 2], "window": [10, 16], "xi1": one, "lam1": zero, "xi2": tamper, "lam2": tamper}
    doc["attacks"]["channel"] = [channel]
    return scenario_from_dict(doc)


@pytest.mark.parametrize(
    "floor, chunks, starts",
    [(8, 2, [0, 6, 12, 18, 24]), (20, 1, [0, 3, 6, 9, 12, 15, 18, 21, 24, 27])],
    ids=["2_chunks", "1_chunk"],
)
def test_step_blocks_change_no_number(floor, chunks, starts, monkeypatch):
    """A budget of a tenth of the material makes 10 tiles. A floor of 8
    trials gives 2 chunks of 10 trials, each in 5 step blocks, whose
    first rows are 0, 6, 12, 18 and 24, run block by block, each block's
    chunks in trial order; a floor of all 20 trials gives one chunk in
    10 blocks of 3 steps. The frozen window reads row 3 from
    the later blocks; the channel window (rows 9..14) crosses row 12 and
    the per_neighbor_random window (rows 19..26) row 24. The slabs are
    those of the run in one tile, from the scenario's table and from an
    inits stack."""
    s = _block_case()
    leader = s.init_states[0]
    stack = np.stack([leader + scale * (s.init_states - leader) for scale in (0.5, 3.0)])
    want, want_stack = simulate(s), simulate(s, inits=stack)
    material = 6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8
    draws, runs = [], []
    pregenerate, kernel = engine._pregenerate, _kernels._simulate_numpy

    def counted_pregenerate(*args):
        draws.append(1)
        return pregenerate(*args)

    def counted_kernel(*args):
        runs.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", material // 10)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", floor)
    monkeypatch.setattr(engine, "_pregenerate", counted_pregenerate)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted_kernel)
    _assert_same_arrays(simulate(s), want)
    assert len(draws) == chunks and runs == [k0 for k0 in starts for _ in range(chunks)]
    draws.clear()
    runs.clear()
    _assert_same_arrays(simulate(s, inits=stack), want_stack)
    assert len(draws) == chunks and len(runs) == 10 * len(stack)


@pytest.mark.parametrize("tiles, blocks", [(10, 5), (2, 1)], ids=["5_blocks", "1_block"])
def test_a_chunk_drops_its_streams_after_its_last_tile(tiles, blocks, monkeypatch):
    """_block_case in 2 chunks of 5 step blocks, or of one block. Each
    chunk's material generator runs to its end right after its last
    tile, which frees its streams and keys: when the kernel runs the
    second chunk's last tile, the first chunk's generator has finished,
    and until the last block no generator has."""
    s = _block_case()
    material = 6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8
    gens, finished = [], []
    pregenerate, kernel = engine._pregenerate, _kernels._simulate_numpy

    def recorded(*args):
        gens.append(pregenerate(*args))
        return gens[-1]

    def counted(*args):
        finished.append([g.gi_frame is None for g in gens])
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", material // tiles)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 8)
    monkeypatch.setattr(engine, "_pregenerate", recorded)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted)
    simulate(s)
    assert finished == [[False, False]] * (2 * blocks - 1) + [[True, False]]
    assert all(g.gi_frame is None for g in gens)


def test_block_sink_reports_equal_the_full_slab_reports(monkeypatch):
    """run_monte_carlo reads the recovered copies block by block through
    simulate's sink. Split as in test_step_blocks_change_no_number into 2
    chunks of 5 step blocks, where the frozen window and the channel
    window (rows 9..14) each cross a block boundary, its report equals
    the one-tile run's and the reference pooled from simulate's whole
    slabs, bit for bit."""
    s = _block_case()
    whole = run_monte_carlo(s)
    material = 6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8
    starts, simulate_ = [], harness.simulate

    def recorded(s, sink):
        def block(k0, *args):
            starts.append(k0)
            return sink(k0, *args)

        return simulate_(s, sink=block)

    monkeypatch.setattr(engine, "CHUNK_BYTES", material // 10)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 8)
    monkeypatch.setattr(harness, "simulate", recorded)
    got = run_monte_carlo(s)
    assert starts == [0, 6, 12, 18, 24]
    _assert_same_arrays(got, whole)
    want = reference_report(s)
    for f in fields(want):
        if isinstance(getattr(want, f.name), np.ndarray):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_material_rows_are_the_streams_own_draws(monkeypatch):
    """Each block's W[t, e], M[t, e], F[t, e] and byz_rand[t, e] are rows
    k0..k1 of stream (trial, edge)'s own draws, bit for bit: the noise
    draws times sqrt(noise_var), the watermark draws through
    watermark_blocks, and the Byzantine draws times the (K, E) scale, 0
    on an edge whose scale is 0 throughout. As in
    test_step_blocks_change_no_number, the run splits into 2 chunks of 5
    step blocks, so every stream is read across block boundaries; with
    8 tiles it splits into 2 chunks of 4 blocks of 7 or 8 steps. Each
    tile's slabs are C-contiguous at the block's own shape, a block
    shorter than the chunk's longest included."""
    s = _block_case()
    t, K, n = s.topology, s.horizon, s.model.n
    scale = engine._schedule_arrays(t, s.attacks, K, n)[-1]
    material = 6 * s.trials * K * t.n_edges * n * 8
    tiles, pregenerate = [], engine._pregenerate

    def draws(trial, edge, tag, shape):
        seed = np.random.SeedSequence([s.master_seed, trial, *edge, tag])
        return np.random.default_rng(seed).standard_normal((K,) + shape)

    def checked(s, trial_ids, scale):
        for k0, W, M, F, byz_rand in pregenerate(s, trial_ids, scale):
            k1 = k0 + W.shape[2]
            tiles.append((int(trial_ids[0]), k0, k1))
            for a in (W, M.base, byz_rand):
                assert a.flags.c_contiguous and a.shape == (len(trial_ids), t.n_edges, k1 - k0) + a.shape[3:]
            assert M.base is F.base
            for ti, trial in enumerate(trial_ids.tolist()):
                for e, edge in enumerate(t.edges):
                    noise = np.sqrt(s.controller.noise_var) * draws(trial, edge, STREAM_NOISE, (n,))
                    m, f = watermark_blocks(draws(trial, edge, STREAM_WATERMARK, (4, n)), s.watermark)
                    byz = np.zeros((K, n))
                    if scale[:, e].any():
                        byz = scale[:, e, None] * draws(trial, edge, STREAM_BYZANTINE, (n,))
                    assert np.array_equal(W[ti, e], noise[k0:k1]), (trial, edge, k0)
                    assert np.array_equal(M[ti, e], m[k0:k1]), (trial, edge, k0)
                    assert np.array_equal(F[ti, e], f[k0:k1]), (trial, edge, k0)
                    assert np.array_equal(byz_rand[ti, e], byz[k0:k1]), (trial, edge, k0)
            yield k0, W, M, F, byz_rand

    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 8)
    monkeypatch.setattr(engine, "_pregenerate", checked)
    for tile_count, cuts in ((10, [0, 6, 12, 18, 24, 30]), (8, [0, 7, 15, 22, 30])):
        tiles.clear()
        monkeypatch.setattr(engine, "CHUNK_BYTES", material // tile_count)
        simulate(s)
        # block by block, each block's chunks in trial order
        assert tiles == [(lo, k0, k1) for k0, k1 in zip(cuts, cuts[1:]) for lo in (0, 10)]
    assert scale.any() and not scale.all(axis=0).any()  # some edges draw byz_rand, none at every step


# tracemalloc's size of one edge_stream generator that has drawn is
# about 0.63 kB (numpy 2.4.6); an open stream is allowed 1 kB.
STREAM_BYTES = 1000


def test_material_memory_does_not_grow_with_the_horizon(monkeypatch):
    """At 100 trials, below 2 x MIN_CHUNK_TRIALS, the floor keeps the run
    in one chunk, and a 1 MiB budget splits its steps into 6 blocks at
    250 steps and 23 at 1000. Above the output slabs the peak stays
    within one tile, the chunk's 600 open streams and the schedules,
    which have no trial axis, at both horizons; the material is 6 and
    24 MB. Half a MiB covers the stream keys, numpy's ufunc buffers and the
    kernel's per-step temporaries."""
    monkeypatch.setattr(engine, "CHUNK_BYTES", 2**20)
    for horizon in (250, 1000):
        s = replace(_random_material_case(), horizon=horizon)
        T, K, E, n = s.trials, s.horizon, s.topology.n_edges, s.model.n
        outputs = 8 * T * (K + 1) * s.topology.n_agents * n + 8 * T * K * E * n  # ystar2 is empty
        schedules = sum(a.nbytes for a in engine._schedule_arrays(s.topology, s.attacks, K, n))
        streams = T * E * 2  # noise and watermark
        tracemalloc.start()
        try:
            simulate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = engine.CHUNK_BYTES + streams * STREAM_BYTES + schedules + 2**19
        assert peak - outputs <= bound, (horizon, peak - outputs, bound)


def test_a_run_holds_one_block_of_recovered_copies(monkeypatch):
    """run_monte_carlo hands the recovered copies to the detectors one
    step block at a time. Under a 512 kiB budget its 200 trials x 800
    steps run as 3 chunks of 25 step blocks of 32 steps, and edge (0, 2)
    is tampered at steps 10..29, all in the first block. Above the
    states, the peak stays within one block's copy window, one
    tile, the 1200 open streams, the schedules and half a MiB; the whole
    7.7 MB copy slab would break that bound."""
    doc = small_doc(horizon=800, trials=200)
    one, zero = {"kind": "const", "coeffs": [1.0, 1.0]}, {"kind": "const", "coeffs": [0.0, 0.0]}
    tamper = {"kind": "const", "coeffs": [1.5, -2.0]}
    doc["attacks"]["channel"] = [{"edge": [0, 2], "window": [10, 30], "xi1": one, "lam1": zero, "xi2": tamper, "lam2": tamper}]
    s = scenario_from_dict(doc)
    T, K, E, n = s.trials, s.horizon, s.topology.n_edges, s.model.n
    monkeypatch.setattr(engine, "CHUNK_BYTES", 2**19)
    schedules = engine._schedule_arrays(s.topology, s.attacks, K, n)
    assert engine._tiling(s, schedules[-1]) == (3, 25)
    states = 8 * T * (K + 1) * s.topology.n_agents * n
    window = 8 * T * 32 * E * n + 8 * T * 20 * n
    tile = 8 * 67 * 32 * E * n * 5  # noise and the four watermark slabs of the largest chunk
    streams = T * E * 2 * STREAM_BYTES  # noise and watermark
    run_monte_carlo(s)  # the first run's one-time state, untraced
    tracemalloc.start()
    try:
        run_monte_carlo(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = window + tile + streams + sum(a.nbytes for a in schedules) + 2**19
    assert peak - states <= bound, (peak - states, bound)


@pytest.mark.parametrize("failing", [0, 3], ids=["first_chunk", "later_chunk"])
def test_chunk_material_beyond_memory_is_a_scenario_error(failing, monkeypatch):
    """A MemoryError while drawing a chunk's material, in the first of
    the 6 one-trial chunks or after earlier chunks have run, is refused
    as a batch that cannot be allocated."""
    s = scenario_from_dict(small_doc())
    calls, pregenerate = [], engine._pregenerate

    def no_memory(*args):
        calls.append(1)
        if len(calls) > failing:
            raise MemoryError
        return pregenerate(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    monkeypatch.setattr(engine, "_pregenerate", no_memory)
    # states (6, 9, 3, 2), ystar1 (6, 8, 3, 2) and ystar2 (6, 0, 2): 612 float64
    with pytest.raises(ScenarioError, match=r"^run: 6 trials x 8 steps need 4896 bytes of output slabs, more") as err:
        simulate(s)
    assert err.value.path == "run"
    assert len(calls) == failing + 1


def test_a_sink_beyond_memory_is_a_scenario_error(monkeypatch):
    """A MemoryError in the sink, here on the second of _block_case's 5
    step blocks, refuses the run as a batch that cannot be allocated, as
    a ScenarioError on run rather than a traceback."""
    s = _block_case()
    material = 6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8
    starts, simulate_ = [], harness.simulate

    def recorded(s, sink):
        def block(k0, *args):
            starts.append(k0)
            if len(starts) == 2:
                raise MemoryError
            return sink(k0, *args)

        return simulate_(s, sink=block)

    monkeypatch.setattr(engine, "CHUNK_BYTES", material // 10)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 8)
    monkeypatch.setattr(harness, "simulate", recorded)
    with pytest.raises(ScenarioError, match=r"^run: 20 trials x 30 steps need \d+ bytes of output slabs, more") as err:
        run_monte_carlo(s)
    assert err.value.path == "run"
    assert starts == [0, 6]


def _consensus_order_case():
    """A scalar model where follower 9 hears the other nine agents, in
    this edge order: a term near +1e17, a small one, a term near -1e17,
    then six small ones. Added in order, the first small term is lost in
    the large partial sum and the last six are kept; a sum that pairs
    the terms up or splits them into lanes loses other small terms."""
    doc = small_doc(horizon=2, trials=3)
    follower = 9
    large = {0: 1.0, 2: -1.0}  # sender: offset over an edge of weight 1e17
    doc["topology"] = {
        "n_agents": follower + 1,
        "edges": [[j, follower, 1e17 if j in large else 1.0] for j in range(follower)],
    }
    doc["model"] = {"type": "companion", "rho": [0.9]}
    doc["controller"].update(K1=[0.5], K2=[1.0], noise_var=0.0)
    x_f = 0.25
    doc["run"]["init"] = {"states": [[x_f + large.get(j, 0.5 + j / 8)] for j in range(follower)] + [[x_f]]}
    return scenario_from_dict(doc)


def test_consensus_terms_add_in_edge_order():
    """Each follower's consensus sum is its terms added one by one in
    edge order, from 0.0, bit for bit. A sum that reassociates the terms
    (reversed, pairwise, or in lanes as a BLAS product by an incidence
    matrix may) gives other bits on this case."""
    s = _consensus_order_case()
    t, ctrl = s.topology, s.controller
    A, B, K1, K2 = float(s.model.A[0, 0]), float(s.model.B[0]), float(ctrl.K1[0]), float(ctrl.K2[0])
    sim = simulate(s)

    def terms(x, ys, i):
        return [((ys[e] - x[i]) * K2) * t.weights[e] for e in range(t.n_edges) if t.dst[e] == i]

    for k in (1, 2):
        want = np.empty((s.trials, t.n_agents, 1))
        for trial in range(s.trials):
            x, ys = sim.states[trial, k - 1, :, 0].tolist(), sim.ystar1[trial, k - 1, :, 0].tolist()
            for i in range(t.n_agents):
                acc = reduce(operator.add, terms(x, ys, i), 0.0) if i != LEADER else 0.0
                u = x[i] * K1 + noise_gain(k, ctrl) * acc
                want[trial, i, 0] = x[i] * A + u * B
        assert np.array_equal(sim.states[:, k], want), k

    # The case is sensitive to association: reversed, pairwise and
    # two-lane sums of the follower's first-step terms all differ from
    # the in-order sum.
    ts = terms(sim.states[0, 0, :, 0].tolist(), sim.ystar1[0, 0, :, 0].tolist(), t.n_agents - 1)
    in_order = reduce(operator.add, ts, 0.0)
    pairs = [a + b for a, b in zip(ts[0::2], ts[1::2])] + ts[len(ts) // 2 * 2 :]
    assert in_order != reduce(operator.add, ts[::-1], 0.0)
    assert in_order != reduce(operator.add, pairs, 0.0)
    assert in_order != reduce(operator.add, ts[0::2], 0.0) + reduce(operator.add, ts[1::2], 0.0)


def test_contractions_sum_state_components_in_order():
    """x K1, the per-edge K2 term and x A^T each add their products over
    the state components left to right, bit for bit: the platoon's three
    components, recomputed one Python float at a time from the kernel's
    own states and copies. A BLAS product may split or fuse that sum."""
    s = replace(platoon_preset("hybrid"), horizon=6, trials=8)
    t, ctrl, A, B = s.topology, s.controller, s.model.A.tolist(), s.model.B.tolist()
    K1, K2 = ctrl.K1.tolist(), ctrl.K2.tolist()
    sim = simulate(s)

    def dot(row, v):
        return reduce(operator.add, [r * c for r, c in zip(row[1:], v[1:])], row[0] * v[0])

    for k in range(1, s.horizon + 1):
        want = np.empty((s.trials, t.n_agents, 3))
        for trial in range(s.trials):
            x, ys = sim.states[trial, k - 1].tolist(), sim.ystar1[trial, k - 1].tolist()
            for i in range(t.n_agents):
                terms = [
                    dot([a - b for a, b in zip(ys[e], x[i])], K2) * t.weights[e]
                    for e in range(t.n_edges)
                    if t.dst[e] == i
                ]
                cons = reduce(operator.add, terms, 0.0) if i != LEADER else 0.0
                u = dot(x[i], K1) + noise_gain(k, ctrl) * cons
                want[trial, i] = [dot(x[i], row) + u * b for row, b in zip(A, B)]
        assert np.array_equal(sim.states[:, k], want), k


def test_outputs_do_not_depend_on_the_blas_core(tmp_path):
    """The hybrid preset's six CSVs are byte-identical with OpenBLAS
    forced to its Prescott core and with the core it picks itself: the
    run path makes no BLAS call. Where OPENBLAS_CORETYPE has no effect
    (numpy built against another BLAS, say), both runs take the same
    path and the test passes trivially."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    preset = os.path.join(src, "maswatch", "presets", "platoon.json")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    outputs = []
    for core in (None, "Prescott"):
        out = tmp_path / (core or "default")
        argv = [sys.executable, "-m", "maswatch.cli", "run", "--scenario", preset, "--variant", "hybrid", "--out", str(out)]
        core_env = {"OPENBLAS_CORETYPE": core} if core else {}
        subprocess.run(argv, check=True, env={**env, **core_env, "PYTHONPATH": src}, capture_output=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 6
    assert outputs[1] == outputs[0]
