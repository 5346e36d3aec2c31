"""The step kernel against a message-by-message oracle.

simulate runs every trial through one vectorized numpy kernel. The
oracle below steps the same simulation one message at a time through
the public per-message API (rows of watermark_blocks, apply_watermark
and remove_watermark, tamper_channel, byzantine_emit, compute_control,
step_system), reading the same counter-style streams, and must agree
with simulate to float64 round-off. It carries no Byzantine state from
step to step: a frozen_state window's capture is read back from the
states the oracle has already computed. The oracle seeds each stream
with numpy's own SeedSequence, so it also checks the engine's
vectorised stream_keys. Neither worker chunking nor the byte budget of
trial chunks may change results at all.
"""

from __future__ import annotations

import json
import operator
import os
import tracemalloc
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest

from maswatch import _kernels, engine
from maswatch.attacks import byzantine_emit, tamper_channel
from maswatch.dynamics import compute_control, noise_gain, step_system
from maswatch.engine import ScenarioError, resolve_workers, simulate
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

from _scenarios import small_doc

# Largest relative difference allowed between simulate and the oracle,
# fixed beforehand for float64: the two sum the consensus terms and the
# dot products in different orders.
RTOL = 1e-12


def _oracle(s):
    """simulate's (states, ystar1, ystar2), one message at a time."""
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
            z = stream(STREAM_WATERMARK).standard_normal((K, 4, 1, n))
            marks[edge] = watermark_blocks(z, s.watermark)  # m, f, each (K, 2, 1, n)
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
                m, f = (block[k - 1, :, 0] for block in marks[edge])  # (2, n), copy r in row r-1
                y = apply_watermark(plain + noise[edge][k - 1], m, f)
                for a in s.attacks.channel:
                    if a.edge == edge:
                        y = tamper_channel(y, a, k)
                ys1[trial, k - 1, e], ys2[trial, k - 1, e] = remove_watermark(y, m, f)
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
    for name, got, want in zip(("states", "ystar1", "ystar2"), (sim.states, sim.ystar1, sim.ystar2), _oracle(s)):
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


def test_resolve_workers(monkeypatch):
    assert resolve_workers(4) == 4
    monkeypatch.setenv("MASWATCH_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.delenv("MASWATCH_WORKERS")
    assert resolve_workers() == 1
    with pytest.raises(ValueError, match="at least 1"):
        resolve_workers(0)


def test_worker_chunking_is_invisible(monkeypatch):
    """With a 1-byte budget and the floor at 2 trials, the 10 trials run
    as 5 chunks, on one thread and on up to 4."""
    s = replace(platoon_preset("channel"), horizon=12, trials=10)
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    chunks, pregenerate = [], engine._pregenerate

    def recorded(s, trial_ids, scale):
        chunks.append(len(trial_ids))
        return pregenerate(s, trial_ids, scale)

    monkeypatch.setattr(engine, "_pregenerate", recorded)
    a = simulate(s, workers=1)
    b = simulate(s, workers=4)
    assert chunks == [2] * 10
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.ystar1, b.ystar1)
    assert np.array_equal(a.ystar2, b.ystar2)


def test_thread_count_is_bounded_by_trials_and_cpus(monkeypatch):
    """MASWATCH_WORKERS=5000 must not start 5000 threads: no more run
    than chunks or CPUs. A stand-in for ThreadPoolExecutor records
    max_workers and maps serially."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    s = scenario_from_dict(small_doc(horizon=6, trials=5))
    want = simulate(s, workers=1)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    simulate(s, workers=5000)  # 5 trials are one chunk: one thread, no pool
    # Every trial its own chunk.
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    for workers in (5000, 3):
        got = simulate(s, workers=workers)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.ystar1, want.ystar1)
    simulate(replace(s, trials=2), workers=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread, no pool
    simulate(s, workers=5000)
    assert pools == [3, 2, 1]  # the calling thread runs a share too


def test_surplus_workers_cost_nothing():
    """Workers beyond the chunk count get no chunk, so they cost neither
    time nor memory."""
    s = scenario_from_dict(small_doc(horizon=6, trials=2))
    tracemalloc.start()
    try:
        sim = simulate(s, workers=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert np.array_equal(sim.states, simulate(s, workers=1).states)


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
    outputs = 8 * T * (K + 1) * s.topology.n_agents * n + 2 * slab
    tracemalloc.start()
    try:
        simulate(s, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Schedules, stream keys, per-trial draw buffers and the kernel's
    # per-step temporaries stay far below half a slab at this shape.
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
    sim, report = simulate(s, workers=1), run_monte_carlo(s, workers=1)
    calls, kernel = [], _kernels._simulate_numpy

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 100_000)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted)
    _assert_same_arrays(simulate(s, workers=1), sim)
    assert len(calls) == chunks
    _assert_same_arrays(run_monte_carlo(s, workers=1), report)
    assert len(calls) == 2 * chunks


# (trials, horizon): chunks. The watermarked case draws 240 bytes of
# material per trial and step. One chunk below the floor, the budget or
# both; 2 and 12 chunks set by the 4 MiB budget; 15 set by the floor,
# where the budget alone would make 18 chunks of 56 trials; 3 set by the
# 32 MiB ceiling, where the floor alone would make 2 chunks of 46 MB.
SPLIT_CASES = {
    (1, 12): 1,
    (63, 100): 1,
    (128, 12): 1,
    (200, 100): 2,
    (2000, 100): 12,
    (1000, 300): 15,
    (128, 3000): 3,
}


@pytest.mark.parametrize("trials, horizon", SPLIT_CASES)
def test_trial_split_reads_no_worker_count(trials, horizon, monkeypatch):
    """Workers 1, 3 and 4 run the same trial ranges. Each chunk holds at
    most MAX_CHUNK_BYTES of material plus one trial's worth; at least
    MIN_CHUNK_TRIALS trials unless the batch has fewer or one fewer chunk
    would break that ceiling; and at most CHUNK_BYTES plus one trial's
    worth unless one more chunk would break the floor. Only the split
    runs: the material and the kernel are stand-ins, and the output slabs
    stay untouched zero pages."""
    s = replace(_random_material_case(), trials=trials, horizon=horizon)
    per_trial = 8 * horizon * s.topology.n_edges * s.model.n * SLAB_CASES["watermarked"][1]
    chunks = []  # list.append is atomic across worker threads

    def recorded(s, trial_ids, scale):
        chunks.append(trial_ids.tolist())
        return (None,) * 4

    monkeypatch.setattr(engine, "_pregenerate", recorded)
    monkeypatch.setattr(_kernels, "_simulate_numpy", lambda *args: None)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    splits = []
    for workers in (1, 3, 4):
        chunks.clear()
        simulate(s, workers=workers)
        splits.append(sorted(chunks))
    split = splits[0]
    assert splits[1] == split and splits[2] == split
    assert len(split) == SPLIT_CASES[trials, horizon]
    assert sum(split, []) == list(range(trials))
    at_floor = trials < (len(split) + 1) * engine.MIN_CHUNK_TRIALS
    at_ceiling = trials * per_trial > (len(split) - 1) * engine.MAX_CHUNK_BYTES
    for chunk in split:
        assert (len(chunk) - 1) * per_trial < engine.MAX_CHUNK_BYTES
        assert len(chunk) >= min(trials, engine.MIN_CHUNK_TRIALS) or at_ceiling
        assert (len(chunk) - 1) * per_trial < engine.CHUNK_BYTES or at_floor


@pytest.mark.parametrize("workers", [1, 3])
def test_each_initial_state_table_matches_its_own_run(workers, monkeypatch):
    """simulate(s, inits=stack) gives, table by table, the numbers of a
    run from that table alone. Under a 100 kB budget and a floor of one
    trial each of the 35 chunks draws its noise, watermark and byz_rand
    material once and runs the kernel once per table."""
    s = _random_material_case(random_byzantine=True)
    leader = s.init_states[0]
    stack = np.stack([leader + scale * (s.init_states - leader) for scale in (0.5, 1.0, 3.0)])
    want = [simulate(replace(s, init_states=table), workers=workers) for table in stack]
    chunks = -(-6 * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8 // 100_000)
    draws, steps = [], []  # list.append is atomic across worker threads
    pregenerate, kernel = engine._pregenerate, _kernels._simulate_numpy

    def counted_pregenerate(*args):
        draws.append(1)
        return pregenerate(*args)

    def counted_kernel(*args):
        steps.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 100_000)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    monkeypatch.setattr(engine, "_pregenerate", counted_pregenerate)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted_kernel)
    got = simulate(s, workers=workers, inits=stack)
    assert chunks == 35 and len(draws) == chunks and len(steps) == chunks * len(stack)
    assert got.states.shape == (len(stack),) + want[0].states.shape
    for b, one in enumerate(want):
        for name in ("states", "ystar1", "ystar2"):
            assert np.array_equal(getattr(got, name)[b], getattr(one, name)), (b, name)


def test_one_edge_residuals_sum_trials_in_order():
    """Each residual is the in-order sum over trials divided by their
    count. Reduced alone, one edge's step would be a 1-D array, which
    numpy sums pairwise; the copy axis keeps the reduction in order."""
    doc = small_doc(horizon=7, trials=200)
    doc["topology"] = {"n_agents": 2, "edges": [[0, 1]]}
    s = scenario_from_dict(doc)
    sim, r = simulate(s), run_monte_carlo(s)
    want = np.empty((2, s.horizon))
    for c, ys in enumerate((sim.ystar1, sim.ystar2)):
        norms = np.linalg.norm(ys[:, :, 0] - sim.states[:, :-1, 1], axis=-1)  # (T, K)
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
    outputs = 8 * T * (K + 1) * s.topology.n_agents * n + 2 * slab
    monkeypatch.setattr(engine, "CHUNK_BYTES", 5 * slab // 4)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 1)
    tracemalloc.start()
    try:
        simulate(s, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The schedules and the other per-run arrays stay below half a slab,
    # as in test_simulate_allocates_only_the_slabs_it_uses.
    assert peak <= outputs + engine.CHUNK_BYTES + slab / 2, (peak - outputs) / slab


@pytest.mark.parametrize("workers", [1, 3])
def test_chunk_material_beyond_memory_is_a_scenario_error(workers, monkeypatch):
    """A MemoryError while drawing a chunk's material, in the calling
    thread or a helper, is refused as a batch that cannot be allocated."""
    s = scenario_from_dict(small_doc())

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(engine, "_pregenerate", no_memory)
    # states (6, 9, 3, 2) and ystar (6, 8, 2, 3, 2): 900 float64
    with pytest.raises(ScenarioError, match=r"^run: 6 trials x 8 steps need 7200 bytes of output slabs, more") as err:
        simulate(s, workers=workers)
    assert err.value.path == "run"


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
            x, ys = sim.states[trial, k - 1, :, 0].tolist(), sim.ystar[trial, k - 1, 0, :, 0].tolist()
            for i in range(t.n_agents):
                acc = reduce(operator.add, terms(x, ys, i), 0.0) if i != LEADER else 0.0
                u = x[i] * K1 + noise_gain(k, ctrl) * acc
                want[trial, i, 0] = x[i] * A + u * B
        assert np.array_equal(sim.states[:, k], want), k

    # The case is sensitive to association: reversed, pairwise and
    # two-lane sums of the follower's first-step terms all differ from
    # the in-order sum.
    ts = terms(sim.states[0, 0, :, 0].tolist(), sim.ystar[0, 0, 0, :, 0].tolist(), t.n_agents - 1)
    in_order = reduce(operator.add, ts, 0.0)
    pairs = [a + b for a, b in zip(ts[0::2], ts[1::2])] + ts[len(ts) // 2 * 2 :]
    assert in_order != reduce(operator.add, ts[::-1], 0.0)
    assert in_order != reduce(operator.add, pairs, 0.0)
    assert in_order != reduce(operator.add, ts[0::2], 0.0) + reduce(operator.add, ts[1::2], 0.0)
