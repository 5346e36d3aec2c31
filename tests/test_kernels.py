"""The step kernel against a message-by-message oracle.

simulate runs every trial through one vectorized numpy kernel. The
oracle below steps the same simulation one message at a time through
the public per-message API (rows of watermark_blocks, apply_watermark
and remove_watermark, tamper_channel, byzantine_emit, compute_control,
step_system), reading the same counter-style streams, and must agree
with simulate to float64 round-off. The oracle seeds each stream with
numpy's own SeedSequence, so it also checks the engine's vectorised
stream_keys. Neither worker chunking nor the byte budget of trial
chunks may change results at all.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from maswatch import _kernels, engine
from maswatch.attacks import byzantine_emit, tamper_channel
from maswatch.dynamics import compute_control, step_system
from maswatch.engine import resolve_workers, simulate
from maswatch.harness import RunReport, platoon_preset, run_monte_carlo, scenario_from_dict
from maswatch.watermark import (
    STREAM_BYZANTINE,
    STREAM_NOISE,
    STREAM_WATERMARK,
    WatermarkDraw,
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
            m, f = watermark_blocks(z, s.watermark)
            marks[edge] = [m[:, 0, 0], m[:, 1, 0], f[:, 0, 0], f[:, 1, 0]]  # m1, m2, f1, f2
            byz_draws[edge] = stream(STREAM_BYZANTINE).standard_normal((K, n))
        frozen = {}
        x = s.init_states.copy()
        states[trial, 0] = x
        for k in range(1, K + 1):
            received = {i: {} for i in range(t.n_agents)}
            for e, edge in enumerate(t.edges):
                j, i = edge
                plain = x[j]
                active = [bz for bz in s.attacks.byzantine if bz.agent == j and bz.active(k)]
                if not active:
                    frozen.pop(edge, None)
                for bz in active:
                    if bz.kind == "frozen_state":
                        frozen.setdefault(edge, x[j].copy())
                    plain = byzantine_emit(bz, k, x[j], frozen.get(edge), byz_draws[edge][k - 1])
                draw = WatermarkDraw(*(block[k - 1] for block in marks[edge]))
                ms = apply_watermark(plain + noise[edge][k - 1], draw)
                for a in s.attacks.channel:
                    if a.edge == edge:
                        ms = tamper_channel(ms, a, k)
                ys1[trial, k - 1, e], ys2[trial, k - 1, e] = remove_watermark(ms, draw)
                received[i][j] = ys1[trial, k - 1, e]
            u = [compute_control(i, x[i], received[i], k, t, s.controller) for i in range(t.n_agents)]
            x = step_system(x, np.array(u), s.model)
            states[trial, k] = x
    return states, ys1, ys2


def _platoon(variant):
    return replace(platoon_preset(variant), horizon=30, trials=4)


def _small_with_byzantine(kind):
    """Agent 1 lies on edge (1, 2) in steps 3..6 while edge (0, 2) is
    tampered from step 2 with sin, ramp and const schedules."""
    doc = small_doc(horizon=12, trials=4)
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
        {"agent": 1, "window": [3, 7], "kind": kind, "offset": [3.0, -1.0], "scale": 2.5}
    ]
    return scenario_from_dict(doc)


ORACLE_CASES = {
    **{f"platoon-{v}": (lambda v=v: _platoon(v)) for v in (None, "clean", "channel", "byzantine", "hybrid")},
    **{
        f"small-{kind}": (lambda kind=kind: _small_with_byzantine(kind))
        for kind in ("constant_offset", "divergent_ramp", "frozen_state", "per_neighbor_random")
    },
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_simulate_matches_per_message_oracle(case):
    s = ORACLE_CASES[case]()
    sim = simulate(s)
    for name, got, want in zip(("states", "ystar1", "ystar2"), (sim.states, sim.ystar1, sim.ystar2), _oracle(s)):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= RTOL, (name, err)


def test_resolve_workers(monkeypatch):
    assert resolve_workers(4) == 4
    monkeypatch.setenv("MASWATCH_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.delenv("MASWATCH_WORKERS")
    assert resolve_workers() == 1
    with pytest.raises(ValueError, match="at least 1"):
        resolve_workers(0)


def test_worker_chunking_is_invisible():
    s = replace(platoon_preset("channel"), horizon=12, trials=10)
    a = simulate(s, workers=1)
    b = simulate(s, workers=4)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.ystar1, b.ystar1)
    assert np.array_equal(a.ystar2, b.ystar2)


def test_thread_count_is_bounded_by_trials_and_cpus(monkeypatch):
    """MASWATCH_WORKERS=5000 must not start 5000 threads. A stand-in for
    ThreadPoolExecutor records max_workers and maps serially."""
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
    for workers in (5000, 3):
        got = simulate(s, workers=workers)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.ystar1, want.ystar1)
    simulate(replace(s, trials=2), workers=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread, no pool
    simulate(s, workers=5000)
    assert pools == [3, 2, 1]  # the calling thread runs a share too


def test_surplus_workers_cost_nothing():
    """Workers beyond the trial count get no chunk, so they cost neither
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
    # At most 3.5 MB of material, far below engine.CHUNK_BYTES, so every
    # case runs as one chunk that holds all its slabs at once.
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
    """A budget of 100 kB splits the 100 trials into 24 to 35 chunks;
    no number changes."""
    kwargs, slabs = SLAB_CASES[case]
    s = _random_material_case(**kwargs)
    chunks = -(-slabs * s.trials * s.horizon * s.topology.n_edges * s.model.n * 8 // 100_000)
    sim, report = simulate(s, workers=1), run_monte_carlo(s, workers=1)
    calls, kernel = [], _kernels._simulate_numpy

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "CHUNK_BYTES", 100_000)
    monkeypatch.setattr(_kernels, "_simulate_numpy", counted)
    _assert_same_arrays(simulate(s, workers=1), sim)
    assert len(calls) == chunks
    _assert_same_arrays(run_monte_carlo(s, workers=1), report)
    assert len(calls) == 2 * chunks


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
    """With the budget at a quarter of the material, the peak is the
    outputs plus one chunk; it was the outputs plus every slab."""
    s = _random_material_case()
    T, K, E, n = s.trials, s.horizon, s.topology.n_edges, s.model.n
    slab = T * K * E * n * 8
    outputs = 8 * T * (K + 1) * s.topology.n_agents * n + 2 * slab
    monkeypatch.setattr(engine, "CHUNK_BYTES", 5 * slab // 4)
    tracemalloc.start()
    try:
        simulate(s, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The schedules and the other per-run arrays stay below half a slab,
    # as in test_simulate_allocates_only_the_slabs_it_uses.
    assert peak <= outputs + engine.CHUNK_BYTES + slab / 2, (peak - outputs) / slab
