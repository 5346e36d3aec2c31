"""run_monte_carlo against the slow reference pipeline, bit for bit.

Every RunReport array must be np.array_equal to reference_report's and
every label equal, on the four preset variants (the session's shared
runs) and on small scenarios that reach each branch of the pipeline:
each Byzantine kind, a channel attack alone and with a Byzantine
sender, zero noise, a zero horizon, fewer trials than the KL detector
needs, and bounds from a clean run.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

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
