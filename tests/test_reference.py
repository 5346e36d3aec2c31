"""run_monte_carlo against the slow reference pipeline, bit for bit.

Every RunReport array must be np.array_equal to reference_report's and
every label equal, on the four preset variants (the session's shared
runs) and on small scenarios that reach each branch of the pipeline:
each Byzantine kind, a channel attack alone and with a Byzantine
sender, zero noise, a zero horizon, fewer trials than the KL detector
needs, and bounds from a clean run. Derandomised scenarios on the
preset topology add random channel windows and schedules within the
budget, each Byzantine kind, zero noise and small trial and step
counts; each runs once more split into at least two trial chunks.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import engine, harness
from maswatch.attacks import SCHEDULE_KINDS, AttackScenario, ByzantineBehavior, ChannelAttack, Schedule
from maswatch.harness import RunReport, platoon_preset, run_monte_carlo, scenario_from_dict

from _reference import reference_report
from _scenarios import small_doc


def _assert_same_report(got: RunReport, want: RunReport) -> None:
    assert got.bounds_used == want.bounds_used
    for f in fields(RunReport):
        if f.name in ("scenario", "bounds_used", "summary"):
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.shape == b.shape and a.dtype == b.dtype, f.name
        if f.name == "classifications":
            assert a.tolist() == b.tolist()
        else:
            assert np.array_equal(a, b, equal_nan=True), f.name


@pytest.mark.parametrize(
    "fixture, variant",
    [("clean_data", None), ("channel_report", "channel"), ("byzantine_report", "byzantine"), ("hybrid_report", "hybrid")],
)
def test_presets_match_the_reference(request, fixture, variant):
    got = request.getfixturevalue(fixture)
    got = got[0] if fixture == "clean_data" else got
    _assert_same_report(got, reference_report(platoon_preset(variant)))


def _byzantine(agent, kind):
    entry = {"agent": agent, "window": [2, 9], "kind": kind}
    if kind in ("constant_offset", "divergent_ramp"):
        entry["offset"] = [30.0, -10.0]
    if kind == "per_neighbor_random":
        entry["scale"] = 20.0
    return entry


# Edge (0, 2) has the relay 1, so its channel alarms are arbitrated.
CHANNEL = {
    "edge": [0, 2],
    "window": [3, None],
    "xi1": {"kind": "const", "coeffs": [0.5, 0.5]},
    "lam1": {"kind": "sin", "coeffs": [1.0, 2.0]},
    "xi2": {"kind": "const", "coeffs": [0.3, 0.3]},
    "lam2": {"kind": "const", "coeffs": [50.0, 50.0]},
}

BYZANTINE_KINDS = ("constant_offset", "divergent_ramp", "frozen_state", "per_neighbor_random")

# name: (channel attacks, Byzantine behaviors, changes to small_doc's run
# section, controller and detectors)
SMALL_CASES = {
    **{kind: ([], [_byzantine(1, kind)], {}) for kind in BYZANTINE_KINDS},
    "channel": ([CHANNEL], [], {}),
    "hybrid": ([CHANNEL], [_byzantine(0, "constant_offset")], {}),
    "noise_var_0": ([CHANNEL], [], {"noise_var": 0.0}),
    "horizon_0": ([CHANNEL], [], {"horizon": 0}),
    "below_min_samples": ([CHANNEL], [], {"trials": 2}),
    "clean_run_bounds": ([], [], {"bounds": None}),
    "channel_clean_run_bounds": ([CHANNEL], [], {"bounds": None}),
}


def _case(name):
    channel, byzantine, changes = SMALL_CASES[name]
    doc = small_doc(horizon=changes.get("horizon", 12), trials=changes.get("trials", 20))
    doc["attacks"].update(channel=channel, byzantine=byzantine)
    if "noise_var" in changes:
        doc["controller"]["noise_var"] = changes["noise_var"]
    if "bounds" in changes:
        doc["detectors"]["bounds"] = changes["bounds"]
    return scenario_from_dict(doc)


@pytest.mark.parametrize("name", SMALL_CASES)
def test_small_scenarios_match_the_reference(name):
    s = _case(name)
    _assert_same_report(run_monte_carlo(s), reference_report(s))


def _preset_scenario(data, kind, noise_var):
    """The clean preset at 2-40 trials and 1-15 steps, with channel attacks
    on edges of distinct receivers (within P = 1) and the behaviors of one
    Byzantine agent (within L = 1): one of kind, maybe one more, in
    disjoint windows. Windows may start past the horizon or stay open.
    The KL detector's min_samples is drawn from 2-30, so it runs at small
    trial counts too."""
    s = platoon_preset()
    t, n = s.topology, s.model.n
    horizon = data.draw(st.integers(1, 15))
    coeffs, offsets = (st.tuples(*[st.floats(-x, x)] * n) for x in (3.0, 50.0))

    def window(start, stop):
        return (start, None if stop > horizon + 1 and data.draw(st.booleans()) else stop)

    channel = {}  # receiver: its one attacked in-channel
    for edge in data.draw(st.lists(st.sampled_from(t.edges), max_size=3)):
        start = data.draw(st.integers(1, horizon + 1))
        stop = data.draw(st.integers(start + 1, horizon + 2))
        schedules = [Schedule(data.draw(st.sampled_from(SCHEDULE_KINDS)), data.draw(coeffs)) for _ in range(4)]
        channel.setdefault(edge[1], ChannelAttack(edge, window(start, stop), *schedules))
    kinds = [kind] + data.draw(st.lists(st.sampled_from(BYZANTINE_KINDS), max_size=int(horizon > 1)))
    ends = st.lists(st.integers(1, horizon + 2), min_size=2 * len(kinds), max_size=2 * len(kinds), unique=True)
    ends = sorted(data.draw(ends))
    agent = data.draw(st.integers(0, t.n_agents - 1))
    byzantine = []
    for b, how in enumerate(kinds):
        offset = data.draw(offsets) if how in ("constant_offset", "divergent_ramp") else ()
        scale = data.draw(st.floats(0.1, 20.0)) if how == "per_neighbor_random" else 0.0
        byzantine.append(ByzantineBehavior(agent, window(*ends[2 * b : 2 * b + 2]), how, offset, scale))
    return replace(
        s,
        attacks=AttackScenario(tuple(channel.values()), tuple(byzantine), s.attacks.budget),
        controller=replace(s.controller, noise_var=noise_var),
        kl=replace(s.kl, min_samples=data.draw(st.integers(2, 30))),
        bounds=s.bounds if data.draw(st.booleans()) else None,
        horizon=horizon,
        trials=data.draw(st.integers(2, 40)),
    )


@pytest.mark.parametrize("noise_var", [0.0, 4.0])
@pytest.mark.parametrize("kind", BYZANTINE_KINDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_preset_topology_scenarios_match_the_reference(kind, noise_var, data):
    """As one chunk and split into at least two (a 1-byte budget and a
    drawn floor of at most half the trials), run_monte_carlo equals the
    reference."""
    s = _preset_scenario(data, kind, noise_var)
    want = reference_report(s)
    _assert_same_report(run_monte_carlo(s), want)
    floor = data.draw(st.integers(1, s.trials // 2))
    runs, pregenerate = [], engine._pregenerate  # chunk sizes per simulate call

    def recorded_run(*args, **kwargs):
        runs.append([])
        return engine.simulate(*args, **kwargs)

    def recorded(s, trial_ids, scale):
        runs[-1].append(len(trial_ids))
        return pregenerate(s, trial_ids, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_BYTES", 1)
        mp.setattr(engine, "MIN_CHUNK_TRIALS", floor)
        mp.setattr(engine, "_pregenerate", recorded)
        mp.setattr(harness, "simulate", recorded_run)
        _assert_same_report(run_monte_carlo(s), want)
    assert len(runs) == 1 + (s.bounds is None)
    for chunks in runs:
        assert len(chunks) >= 2 and min(chunks) >= floor
