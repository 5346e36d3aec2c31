"""Scenario loading, the platoon preset and report plumbing."""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
from dataclasses import FrozenInstanceError, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import engine, harness
from maswatch.attacks import AttackScenario, ByzantineBehavior, ChannelAttack, Schedule
from maswatch.detectors import envelope_verdict, estimate_kl, gaussian_kl
from maswatch.dynamics import StateBounds
from maswatch.engine import simulate
from maswatch.graph import LEADER, LocalAttackBudget
from maswatch.harness import (
    RunReport,
    Scenario,
    ScenarioError,
    export_report,
    load_scenario,
    platoon_preset,
    run_monte_carlo,
    scenario_from_dict,
    transient_sweep,
)
from maswatch.hybrid import Classification
from maswatch.watermark import edge_stream

from _scenarios import overflowing_tamper_doc, small_doc


def preset_doc() -> dict:
    """A fresh copy of the packaged platoon scenario document."""
    return json.loads((resources.files("maswatch") / "presets" / "platoon.json").read_text())


# --- validation -------------------------------------------------------------


def test_missing_theta_names_field_path():
    doc = preset_doc()
    del doc["detectors"]["kl"]["theta"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.path == "detectors.kl.theta"


def test_negative_variance_rejected():
    doc = small_doc()
    doc["watermark"]["sigma2_f1"] = -2.0
    with pytest.raises(ScenarioError, match="watermark"):
        scenario_from_dict(doc)


def test_unknown_model_type():
    doc = small_doc()
    doc["model"]["type"] = "quadrotor"
    with pytest.raises(ScenarioError, match="model.type"):
        scenario_from_dict(doc)


def test_gain_length_checked_against_model_order():
    doc = small_doc()
    doc["controller"]["K1"] = [0.5]
    with pytest.raises(ScenarioError, match="controller.K1"):
        scenario_from_dict(doc)


def test_init_states_shape_checked():
    doc = small_doc()
    doc["run"]["init"] = {"states": [[0.0, 0.0]]}
    with pytest.raises(ScenarioError, match="run.init.states"):
        scenario_from_dict(doc)


def test_attack_on_unknown_edge_rejected():
    doc = small_doc()
    doc["attacks"]["channel"] = [
        {
            "edge": [2, 0],
            "window": [1, None],
            "xi1": {"kind": "const", "coeffs": [1.0, 1.0]},
            "lam1": {"kind": "const", "coeffs": [0.0, 0.0]},
            "xi2": {"kind": "const", "coeffs": [1.0, 1.0]},
            "lam2": {"kind": "const", "coeffs": [0.0, 0.0]},
        }
    ]
    with pytest.raises(ScenarioError, match="unknown edge"):
        scenario_from_dict(doc)


def test_budget_violation_names_agent_and_step():
    doc = small_doc()
    doc["attacks"]["budget"] = {"L": 0, "P": 1}
    doc["attacks"]["byzantine"] = [
        {"agent": 1, "window": [3, None], "kind": "frozen_state"}
    ]
    with pytest.raises(ScenarioError, match="agent 2, step 3"):
        scenario_from_dict(doc)


def test_unknown_variant_lists_available():
    with pytest.raises(ScenarioError, match="available"):
        scenario_from_dict(preset_doc(), variant="nosuch")


def test_variant_may_only_override_attacks():
    doc = preset_doc()
    doc["variants"]["clean"]["run"] = {"horizon": 5}
    with pytest.raises(ScenarioError, match="only 'attacks'"):
        scenario_from_dict(doc, variant="clean")


def _channel_attack(**fields):
    attack = {
        "edge": [0, 1],
        "window": [1, None],
        "xi1": {"kind": "const", "coeffs": [1.0, 1.0]},
        "lam1": {"kind": "const", "coeffs": [0.0, 0.0]},
        "xi2": {"kind": "const", "coeffs": [1.0, 1.0]},
        "lam2": {"kind": "const", "coeffs": [0.0, 0.0]},
    }
    return {**attack, **fields}


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d["attacks"].update(channel=[_channel_attack(window=[[1], None])]), "attacks.channel[0].window"),
        (lambda d: d["topology"].update(edges=[["a", 2], [0, 1]]), "topology.edges[0]"),
        (lambda d: d["attacks"].update(budget=[1, 1]), "attacks.budget"),
        (lambda d: d["detectors"]["kl"].update(theta=math.nan), "detectors.kl.theta"),
        (lambda d: d["controller"].update(noise_var=math.inf), "controller.noise_var"),
        (lambda d: d["run"].update(trials=True), "run.trials"),
        (lambda d: d["detectors"]["kl"].update(estimator="histogram"), "detectors.kl.estimator"),
        (lambda d: d["detectors"]["envelope"].update(factor_mode="proposition3"), "detectors.envelope.factor_mode"),
        (lambda d: d["watermark"].update(identity=True), "watermark.identity"),
        (lambda d: d["topology"].update(n_agents=2**62), "topology.n_agents"),
        (lambda d: d["detectors"]["bounds"].update(eps1=-1, eps2=0), "detectors.bounds"),
        (lambda d: d["run"]["init"].update(spacing=1e308), "run.init"),
    ],
    ids=[
        "window", "edge", "budget", "theta_nan", "noise_var_inf", "trials_bool", "estimator", "factor_mode",
        "identity", "n_agents_huge", "eps2_zero", "spacing_overflows",
    ],
)
def test_bad_input_raises_scenario_error_with_path(edit, path):
    doc = small_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(json.loads(json.dumps(doc)))
    assert err.value.path == path


_CONST = Schedule("const", (1.0, 1.0))
_RAGGED = [[0.0, 0.0], [0.0], [0.0, 0.0]]


def _frozen_agent_1(d):
    d["attacks"] = {"budget": {"L": 0, "P": 1}, "byzantine": [{"agent": 1, "window": [3, None], "kind": "frozen_state"}]}


@pytest.mark.parametrize(
    "field, value, edit, path",
    [
        ("varsigma", -1.0, lambda d: d["run"].update(varsigma=-1.0), "run.varsigma"),
        ("varsigma", math.nan, lambda d: d["run"].update(varsigma=math.nan), "run.varsigma"),
        ("varsigma", math.inf, lambda d: d["run"].update(varsigma=math.inf), "run.varsigma"),
        ("trials", 0, lambda d: d["run"].update(trials=0), "run.trials"),
        ("horizon", -1, lambda d: d["run"].update(horizon=-1), "run.horizon"),
        ("master_seed", -1, lambda d: d["run"].update(master_seed=-1), "run.master_seed"),
        ("init_states", np.full((3, 2), np.nan), lambda d: d["run"]["init"].update(states=[[math.nan] * 2] * 3), "run.init"),
        ("init_states", np.zeros((2, 2)), lambda d: d["run"]["init"].update(states=[[0.0] * 2] * 2), "run.init"),
        ("init_states", _RAGGED, lambda d: d["run"]["init"].update(states=_RAGGED), "run.init"),
        (
            "attacks",
            AttackScenario(byzantine=(ByzantineBehavior(1, (3, None), "frozen_state"),), budget=LocalAttackBudget(0, 1)),
            _frozen_agent_1,
            "attacks.budget",
        ),
        (
            "attacks",
            AttackScenario(channel=(ChannelAttack((2, 0), (1, None), _CONST, _CONST, _CONST, _CONST),)),
            lambda d: d["attacks"].update(channel=[_channel_attack(edge=[2, 0])]),
            "attacks",
        ),
        (
            "attacks",
            AttackScenario(byzantine=(ByzantineBehavior(1, (3, None), "constant_offset", offset=(1000.0,)),)),
            lambda d: d["attacks"].update(byzantine=[{"agent": 1, "window": [3, None], "kind": "constant_offset", "offset": [1000.0]}]),
            "attacks.byzantine[0].offset",
        ),
        (
            "attacks",
            AttackScenario(channel=(ChannelAttack((0, 1), (1, None), _CONST, _CONST, _CONST, Schedule("const", (0.0,) * 3)),)),
            lambda d: d["attacks"].update(channel=[_channel_attack(lam2={"kind": "const", "coeffs": [0.0] * 3})]),
            "attacks.channel[0].lam2.coeffs",
        ),
    ],
    ids=[
        "varsigma_negative", "varsigma_nan", "varsigma_inf", "trials_zero", "horizon_negative", "master_seed_negative",
        "init_nan", "init_shape", "init_ragged", "over_budget", "unknown_edge", "offset_length", "coeffs_length",
    ],
)
def test_a_scenario_built_through_the_api_fails_as_the_loader_does(field, value, edit, path):
    """A fault set through replace is the ScenarioError the loader reports
    for it, at the same field. The loader's own checks may name a more
    specific path inside it (run.init.states, attacks.channel). Setting
    the field of a loaded Scenario is refused."""
    s = scenario_from_dict(small_doc())
    with pytest.raises(FrozenInstanceError):
        setattr(s, field, value)
    with pytest.raises(ScenarioError) as err:
        replace(s, **{field: value})
    assert err.value.path == path
    doc = small_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert f"{err.value.path}.".startswith(f"{path}.")


def test_loaded_init_states_are_read_only():
    s = scenario_from_dict(small_doc())
    with pytest.raises(ValueError, match="read-only"):
        s.init_states[0, 0] = 1.0


def test_retired_settings_still_load_at_their_remaining_value():
    doc = small_doc()
    doc["watermark"]["identity"] = False
    doc["detectors"]["kl"]["estimator"] = "gaussian_fit"
    doc["detectors"]["envelope"]["factor_mode"] = "algorithm2"
    assert isinstance(scenario_from_dict(doc), Scenario)


# Values a mutation may write: usually one of the JSON type it replaces
# (NaN and inf included, and the names the loader dispatches on), else
# any small JSON value. Integers stay small because an agent count that
# numpy would try to allocate may exhaust memory before it fails; the
# single-field faults below cover a count numpy refuses outright.
_names = st.sampled_from(["sin", "ramp", "const", "companion", "frozen_state", "per_neighbor_random", "histogram"])
_numbers = st.booleans() | st.integers(-3, 40) | st.floats()
_json_leaf = st.none() | _numbers | st.text(max_size=3) | _names
_json_value = st.recursive(
    _json_leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6
)


def _replacement(value):
    if isinstance(value, str):
        same = st.text(max_size=3) | _names
    elif isinstance(value, (bool, int, float)):
        same = _numbers
    elif isinstance(value, list):
        same = st.lists(_json_leaf, max_size=4)
    else:
        same = st.dictionaries(st.text(max_size=3), _json_leaf, max_size=3)
    return same | _json_value


def _nodes(node, prefix=()):
    """(container path, key) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _nodes(child, prefix + (key,))


def _attacked_small_doc() -> dict:
    doc = small_doc()
    doc["attacks"]["channel"] = [_channel_attack(window=[2, 5])]
    doc["attacks"]["byzantine"] = [{"agent": 1, "window": [3, None], "kind": "constant_offset", "offset": [1.0, 0.0]}]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=st.sampled_from([(_attacked_small_doc, None), (preset_doc, None), (preset_doc, "hybrid")]),
    data=st.data(),
)
def test_scenario_from_dict_returns_scenario_or_scenario_error(base, data):
    make, variant = base
    doc = make()
    for _ in range(data.draw(st.integers(1, 3))):
        prefix, key = data.draw(st.sampled_from(list(_nodes(doc))))
        parent = functools.reduce(operator.getitem, prefix, doc)
        if data.draw(st.integers(0, 3)):
            parent[key] = data.draw(_replacement(parent[key]))
        else:
            del parent[key]
    try:
        assert isinstance(scenario_from_dict(doc, variant=variant), Scenario)
    except ScenarioError:
        pass


# Faults written to each field in turn: deletion, then wrong types,
# signs and sizes, NaN and inf. 2**62 agents is an (n_agents, n) array
# numpy refuses at once, without trying to allocate it.
_DELETE = "<delete>"
_FAULTS = (_DELETE, None, True, -1, 0, 2, 0.5, -0.5, math.nan, math.inf, "x", "sin", [], [0], [[1, 0]], {}, 2**62)


@pytest.mark.parametrize("make, variant", [(_attacked_small_doc, None), (preset_doc, "hybrid")], ids=["small", "preset"])
def test_every_single_field_fault_gives_scenario_or_scenario_error(make, variant):
    for prefix, key in _nodes(make()):
        for fault in _FAULTS:
            doc = make()
            parent = functools.reduce(operator.getitem, prefix, doc)
            if fault is _DELETE:
                del parent[key]
            else:
                parent[key] = fault
            try:
                assert isinstance(scenario_from_dict(doc, variant=variant), Scenario)
            except ScenarioError:
                pass
            except Exception as err:  # noqa: BLE001 - report which field let it through
                pytest.fail(f"{'.'.join(map(str, prefix + (key,)))} <- {fault!r}: {err!r}")


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(bad)
    root = tmp_path / "list.json"
    root.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="root must be an object"):
        load_scenario(root)


# --- preset -----------------------------------------------------------------


def test_platoon_preset_parameters():
    s = platoon_preset()
    assert s.topology.n_agents == 7
    assert s.topology.n_edges == 11
    assert s.model.A[2, 2] == pytest.approx(1.0 - 1.0 / 1.2)
    assert s.kl.theta == 4.61
    assert s.envelope.M_r == 100.0
    assert s.envelope.phi == 0.16
    assert s.envelope.delta == 6.0
    assert s.watermark.lambda1 == 2.0 and s.watermark.lambda2 == 5.0
    assert s.watermark.sigma2_m1 == 7.2 and s.watermark.sigma2_m2 == 4.3
    assert s.watermark.sigma2_f1 == 2.0 and s.watermark.sigma2_f2 == 3.5
    assert s.controller.noise_var == 4.0
    assert s.horizon == 60 and s.trials == 100
    assert isinstance(s.bounds, StateBounds)
    assert s.attacks == AttackScenario(budget=s.attacks.budget)
    assert s.init_states.shape == (7, 3)


def test_platoon_variants_windows():
    chan = platoon_preset("channel")
    assert len(chan.attacks.channel) == 1 and not chan.attacks.byzantine
    a = chan.attacks.channel[0]
    assert a.edge == (5, 2) and a.window == (10, None)

    byz = platoon_preset("byzantine")
    assert not byz.attacks.channel and len(byz.attacks.byzantine) == 1
    b = byz.attacks.byzantine[0]
    assert b.agent == 5 and b.window == (20, None) and b.kind == "constant_offset"

    hyb = platoon_preset("hybrid")
    assert hyb.attacks.channel[0].window == (2, 6)
    assert hyb.attacks.byzantine[0].window == (4, 8)


# --- monte carlo ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    return run_monte_carlo(scenario_from_dict(small_doc()))


def test_run_monte_carlo_shapes(small_report):
    r = small_report
    E, K = 3, 8
    assert r.kl_stats.shape == (E, K)
    assert r.residuals.shape == (2, E, K)
    assert r.env_stats.shape == (2, E, K)
    assert r.flags.shape == (K, E, 2)
    assert r.classifications.shape == (K, E)
    assert r.eta.shape == (K + 1,)
    assert r.horizon == K


def test_run_monte_carlo_deterministic(small_report):
    again = run_monte_carlo(scenario_from_dict(small_doc()))
    assert np.array_equal(small_report.kl_stats, again.kl_stats)
    assert np.array_equal(small_report.residuals, again.residuals)
    assert small_report.summary == again.summary


def test_summary_metrics(small_report):
    s = small_report.summary
    assert s["false_alarm_rate"] == 0.0
    assert s["false_alarm_kl_steps"] == 0.0
    assert s["false_alarm_envelope_steps"] == 0.0
    assert all(
        c is Classification.NORMAL for row in small_report.classifications for c in row
    )


def test_kl_detector_is_silent_below_min_samples():
    tamper = {"xi1": {"kind": "const", "coeffs": [0.5, 0.5]}, "lam1": {"kind": "const", "coeffs": [5.0, 5.0]}}
    stats = {}
    for trials in (2, 6):  # min_samples is 3
        doc = small_doc(trials=trials)
        doc["attacks"]["channel"] = [_channel_attack(**tamper)]
        r = run_monte_carlo(scenario_from_dict(doc))
        stats[trials] = (r.kl_stats, r.kl_attacked)
    assert not stats[2][0].any() and not stats[2][1].any()
    assert stats[6][1][0].all()


@pytest.mark.parametrize("horizon, edges", [(0, None), (8, [])], ids=["no_steps", "no_edges"])
def test_run_monte_carlo_with_an_empty_axis(tmp_path, horizon, edges):
    doc = small_doc(horizon=horizon)
    if edges is not None:
        doc["topology"]["edges"] = edges
    r = run_monte_carlo(scenario_from_dict(doc))
    E, K = len(doc["topology"]["edges"]), horizon
    assert r.kl_stats.shape == (E, K) and r.kl_attacked.shape == (E, K)
    assert r.residuals.shape == (2, E, K) and r.env_stats.shape == (2, E, K)
    assert r.env_tested.shape == (E, K)
    assert r.flags.shape == (K, E, 2) and r.classifications.shape == (K, E)
    for p in export_report(r, tmp_path):
        if p.name in ("kl_trace.csv", "residual_trace.csv", "envelope_trace.csv", "flags.csv"):
            assert len(p.read_text().splitlines()) == 1


def _tampered_run(window):
    doc = small_doc()
    tamper = {"xi1": {"kind": "const", "coeffs": [0.5, 0.5]}, "lam1": {"kind": "const", "coeffs": [5.0, 5.0]}}
    doc["attacks"]["channel"] = [_channel_attack(window=window, **tamper)]
    return run_monte_carlo(scenario_from_dict(doc))


def test_envelope_reference_freezes_at_the_first_clean_step():
    r = _tampered_run([1, 4])  # edge (0, 1), index 0, tampered on steps 1-3
    assert r.kl_attacked[0].tolist() == [True] * 3 + [False] * 5
    assert r.env_tested[0].tolist() == [False] * 4 + [True] * 4
    # the step-by-step rule: freeze at the first step without a KL alarm,
    # test every later step against that reference
    s = r.scenario
    for e in range(s.topology.n_edges):
        ref = None
        for k in range(1, s.horizon + 1):
            assert r.env_tested[e, k - 1] == (ref is not None)
            for c in range(2):
                want = 0.0 if ref is None else envelope_verdict(r.residuals[c, e, k - 1], ref[c], k, s.envelope, r.bounds_used)
                assert r.env_stats[c, e, k - 1] == want
            if ref is None and not r.kl_attacked[e, k - 1]:
                ref = r.residuals[:, e, k - 1]

    always = _tampered_run([1, None])
    assert always.kl_attacked[0].all()
    assert not always.env_tested[0].any()
    assert not always.env_stats[:, 0].any()
    assert (always.flags[:, 0] == (1, 2)).all()


def test_time_to_detect_stays_inside_the_window():
    doc = small_doc()
    identity = {"xi1": {"kind": "const", "coeffs": [1.0, 1.0]}, "xi2": {"kind": "const", "coeffs": [1.0, 1.0]}}
    doc["attacks"]["channel"] = [_channel_attack(window=[3, 5], **identity)]
    summary = run_monte_carlo(scenario_from_dict(doc)).summary
    assert summary["kl_detection_rate"] == 0.0
    # the first normal step after the window is not a detection
    assert summary["ttd_channel_0_1"] == -1.0


def diverging_doc() -> dict:
    """small_doc with an unstable model: the states overflow at step 774."""
    doc = small_doc(horizon=800, trials=40)
    doc["model"]["rho"] = [0.5, 1.6]
    return doc


@pytest.mark.parametrize("bounds", [True, False], ids=["given_bounds", "nominal_bounds"])
def test_diverging_run_is_a_scenario_error(bounds):
    doc = diverging_doc()
    if not bounds:
        del doc["detectors"]["bounds"]
    with pytest.raises(ScenarioError, match="not finite from step 774 on") as err:
        run_monte_carlo(scenario_from_dict(doc))
    assert err.value.path == "run"


@pytest.mark.parametrize("xi2", [1e308, 1e200])
def test_overflowing_tamper_is_a_scenario_error(xi2):
    with pytest.raises(ScenarioError, match="not finite at step 3$") as err:
        run_monte_carlo(scenario_from_dict(overflowing_tamper_doc(xi2)))
    assert err.value.path == "run"


def test_nominal_bounds_with_eps2_zero_are_a_scenario_error():
    # Without steps the nominal run's states are the initial ones, whose
    # largest component is the leader's 0.
    doc = small_doc(horizon=0)
    del doc["detectors"]["bounds"]
    doc["run"]["init"] = {"leader": [0.0, 0.0], "spacing": -2.0}
    with pytest.raises(ScenarioError, match="eps2 = 0") as err:
        run_monte_carlo(scenario_from_dict(doc))
    assert err.value.path == "detectors.bounds"


# --- sweep ------------------------------------------------------------------


def test_transient_sweep_single_value():
    s = scenario_from_dict(small_doc())
    rows = transient_sweep(s, [1.0], probe_step=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["scale"] == 1.0 and row["probe_step"] == 4
    assert row["watermark_kl"] >= 0.0 and row["ablation_kl"] >= 0.0


def test_transient_sweep_draws_the_grid_once(monkeypatch):
    calls, streams = [], []

    def counting_simulate(s, **kwargs):
        calls.append((s, kwargs.get("inits")))
        return simulate(s, **kwargs)

    def counting_stream(key):
        streams.append(key)
        return edge_stream(key)

    monkeypatch.setattr(harness, "simulate", counting_simulate)
    monkeypatch.setattr(engine, "edge_stream", counting_stream)
    s = scenario_from_dict(small_doc())
    rows = transient_sweep(s, [0.5, 1.0, 2.0], probe_step=4)
    assert len(rows) == 3 and len(calls) == 1
    # a step's numbers do not depend on the horizon, so the grid is not
    # simulated past the probe step, and it runs as one batch of 3 tables
    (clean, inits), = calls
    assert clean.horizon == 4 and inits.shape == (3,) + s.init_states.shape
    # one noise stream and one watermark stream per (trial, edge), drawn
    # once for the whole grid
    assert len(streams) == s.trials * s.topology.n_edges * 2


def test_transient_sweep_matches_full_horizon_per_edge_reference():
    s = scenario_from_dict(small_doc(horizon=10, trials=40))
    grid, probe_step = [0.5, 3.0], 5
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
    leader = s.init_states[LEADER]
    nominal_var = max(s.controller.noise_var, 1e-30)
    want = []
    for scale in grid:
        sim = simulate(replace(clean, init_states=leader + scale * (s.init_states - leader)))
        wm_kl = ab_kl = 0.0
        for e, (_, i) in enumerate(s.topology.edges):
            y1, y2 = sim.ystar1[:, probe_step - 1, e], sim.ystar2[:, probe_step - 1, e]
            wm_kl = max(wm_kl, estimate_kl(y1, y2))
            resid = y1 - sim.states[:, probe_step - 1, i]
            mu, var = resid.mean(axis=0), np.maximum(resid.var(axis=0), 1e-30)
            ab_kl = max(ab_kl, gaussian_kl(mu, var, np.zeros_like(mu), np.full_like(mu, nominal_var)))
        want.append({"scale": scale, "watermark_kl": wm_kl, "ablation_kl": ab_kl, "probe_step": probe_step})
    assert transient_sweep(s, grid, probe_step=probe_step) == want
    assert want[1]["ablation_kl"] > want[0]["ablation_kl"] > 0.0


def test_transient_sweep_rows_do_not_depend_on_workers():
    s = platoon_preset()
    grid = [0.5, 1.0, 2.0, 5.0]
    assert transient_sweep(s, grid, probe_step=4, workers=1) == transient_sweep(s, grid, probe_step=4, workers=3)


def test_transient_sweep_rejects_a_scale_that_overflows_the_statistics():
    # The states stay finite at 1e160; the residual squares overflow.
    s = scenario_from_dict(small_doc())
    with pytest.raises(ScenarioError, match=r"at initial error scale 1e\+160: first not finite at step 4$") as err:
        transient_sweep(s, [1.0, 1e160], probe_step=4)
    assert err.value.path == "run"


def test_transient_sweep_reports_each_scale_in_grid_order():
    # On the preset, 1e306 keeps the initial states finite but the states
    # diverge at step 1, and 1e200 overflows the statistics. The whole
    # grid is one batch, yet each scale's states and statistics are
    # checked in turn, so the first failing scale of the grid is reported.
    s = platoon_preset()
    with pytest.raises(ScenarioError, match=r"^run: the states diverge: not finite from step 1 on$"):
        transient_sweep(s, [1e306, 1e200], probe_step=4)
    with pytest.raises(ScenarioError, match=r"at initial error scale 1e\+200: first not finite at step 4$"):
        transient_sweep(s, [1e200, 1e306], probe_step=4)


def test_transient_sweep_names_a_scale_that_overflows_the_initial_states():
    s = scenario_from_dict(small_doc())
    with pytest.raises(ScenarioError, match=r"^run: initial error scale 1\.7e\+308 overflows the initial states$"):
        transient_sweep(s, [1.0, 1.7e308], probe_step=4)


def test_transient_sweep_checks_the_whole_grid_before_drawing(monkeypatch):
    # 1e160 alone overflows the statistics, but the NaN after it is
    # rejected first, before anything is simulated.
    monkeypatch.setattr(harness, "simulate", None)
    s = scenario_from_dict(small_doc())
    with pytest.raises(ValueError, match="positive and finite, got nan") as err:
        transient_sweep(s, [1e160, math.nan], probe_step=4)
    assert not isinstance(err.value, ScenarioError)
    with pytest.raises(ScenarioError, match=r"^run: initial error scale 1\.7e\+308 overflows the initial states$"):
        transient_sweep(s, [1e160, 1.7e308], probe_step=4)


def test_transient_sweep_rejects_bad_grid():
    s = scenario_from_dict(small_doc())
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            transient_sweep(s, [1.0, scale])
    with pytest.raises(ValueError, match="beyond horizon"):
        transient_sweep(s, [1.0], probe_step=99)
    with pytest.raises(ValueError, match="at least 1"):
        transient_sweep(s, [1.0], probe_step=0)


# --- export -----------------------------------------------------------------

EXPORT_NAMES = [
    "kl_trace.csv",
    "residual_trace.csv",
    "envelope_trace.csv",
    "flags.csv",
    "eta.csv",
    "summary.csv",
]


def test_export_report_files(small_report, tmp_path):
    paths = export_report(small_report, tmp_path / "out")
    assert [p.name for p in paths] == EXPORT_NAMES
    kl = (tmp_path / "out" / "kl_trace.csv").read_text().splitlines()
    assert kl[0] == "k,edge_j,edge_i,detector,statistic,decision"
    assert len(kl) == 1 + 8 * 3
    flags = (tmp_path / "out" / "flags.csv").read_text().splitlines()
    assert flags[0] == "k,i,j,phi1,phi2,classification"
    assert flags[1].endswith(",normal")


def test_export_report_byte_identical(small_report, tmp_path):
    export_report(small_report, tmp_path / "a")
    again = run_monte_carlo(scenario_from_dict(small_doc()))
    export_report(again, tmp_path / "b")
    for name in EXPORT_NAMES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_report_zero_steps_keeps_headers(small_report, tmp_path):
    s = small_report.scenario
    E = s.topology.n_edges
    empty = RunReport(
        scenario=s,
        bounds_used=small_report.bounds_used,
        eta=np.zeros(1),
        kl_stats=np.zeros((E, 0)),
        kl_attacked=np.zeros((E, 0), dtype=bool),
        residuals=np.zeros((2, E, 0)),
        env_stats=np.zeros((2, E, 0)),
        env_attacked=np.zeros((2, E, 0), dtype=bool),
        env_tested=np.zeros((E, 0), dtype=bool),
        flags=np.zeros((0, E, 2), dtype=int),
        classifications=np.empty((0, E), dtype=object),
        summary={"false_alarm_rate": 0.0},
    )
    paths = export_report(empty, tmp_path / "empty")
    for p in paths:
        lines = p.read_text().splitlines()
        if p.name == "kl_trace.csv":
            assert lines == ["k,edge_j,edge_i,detector,statistic,decision"]
        if p.name == "eta.csv":
            assert lines[0] == "k,eta"


def _csv_by_rows(r: RunReport) -> dict[str, str]:
    """Each exported file's text, written row by row from the report's
    arrays: every field through str, joined by commas."""
    K, edges = r.horizon, r.scenario.topology.edges
    at = [(k, e, j, i) for k in range(1, K + 1) for e, (j, i) in enumerate(edges)]
    verdict = {True: "attacked", False: "secure"}
    detector = ("k", "edge_j", "edge_i", "detector", "statistic", "decision")
    tables = {
        "kl_trace.csv": [detector]
        + [(k, j, i, "kl", float(r.kl_stats[e, k - 1]), verdict[bool(r.kl_attacked[e, k - 1])]) for k, e, j, i in at],
        "residual_trace.csv": [("k", "edge_j", "edge_i", "msg", "d")]
        + [(k, j, i, c + 1, float(r.residuals[c, e, k - 1])) for k, e, j, i in at for c in range(2)],
        "envelope_trace.csv": [detector]
        + [
            (k, j, i, f"envelope{c + 1}", float(r.env_stats[c, e, k - 1]), verdict[bool(r.env_attacked[c, e, k - 1])])
            for k, e, j, i in at
            if r.env_tested[e, k - 1]
            for c in range(2)
        ],
        "flags.csv": [("k", "i", "j", "phi1", "phi2", "classification")]
        + [(k, i, j, *map(int, r.flags[k - 1, e]), r.classifications[k - 1, e].value) for k, e, j, i in at],
        "eta.csv": [("k", "eta")] + [(k, float(v)) for k, v in enumerate(r.eta)],
        "summary.csv": [("metric", "value")] + [(name, float(v)) for name, v in r.summary.items()],
    }
    return {name: "".join(",".join(map(str, row)) + "\n" for row in rows) for name, rows in tables.items()}


@pytest.mark.parametrize("horizon", [None, 0], ids=["hybrid", "zero_steps"])
def test_export_bytes_match_a_row_by_row_writer(tmp_path, horizon):
    """Every byte of the six files, formatting included, as a plain
    row-by-row writer produces it from the report."""
    s = platoon_preset("hybrid")
    if horizon is not None:
        s = replace(s, horizon=horizon)
    r = run_monte_carlo(s)
    paths = export_report(r, tmp_path)
    want = _csv_by_rows(r)
    assert [p.name for p in paths] == list(want)
    for p in paths:
        assert p.read_bytes() == want[p.name].encode(), p.name


def _csv_rows(path, *parsers):
    """Header and data rows of a CSV file, each field through its parser."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    assert all(len(row) == len(parsers) for row in rows)
    return header, [tuple(parse(v) for parse, v in zip(parsers, row)) for row in rows]


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("horizon", [None, 0], ids=["hybrid", "zero_steps"])
def test_export_round_trips_the_report(tmp_path, horizon):
    s = platoon_preset("hybrid")
    if horizon is not None:
        s = replace(s, horizon=horizon)
    r = run_monte_carlo(s)
    export_report(r, tmp_path)
    K, edges = r.horizon, s.topology.edges
    at = [(k, e, j, i) for k in range(1, K + 1) for e, (j, i) in enumerate(edges)]
    verdict = {True: "attacked", False: "secure"}
    if K:
        assert r.kl_attacked.any() and r.env_attacked.any() and not r.env_tested.all()

    header, rows = _csv_rows(tmp_path / "kl_trace.csv", int, int, int, str, float, str)
    assert header == ["k", "edge_j", "edge_i", "detector", "statistic", "decision"]
    assert rows == [(k, j, i, "kl", r.kl_stats[e, k - 1], verdict[r.kl_attacked[e, k - 1]]) for k, e, j, i in at]

    header, rows = _csv_rows(tmp_path / "residual_trace.csv", int, int, int, int, float)
    assert header == ["k", "edge_j", "edge_i", "msg", "d"]
    assert rows == [(k, j, i, c + 1, r.residuals[c, e, k - 1]) for k, e, j, i in at for c in range(2)]

    header, rows = _csv_rows(tmp_path / "envelope_trace.csv", int, int, int, str, float, str)
    assert header == ["k", "edge_j", "edge_i", "detector", "statistic", "decision"]
    assert rows == [
        (k, j, i, f"envelope{c + 1}", r.env_stats[c, e, k - 1], verdict[r.env_attacked[c, e, k - 1]])
        for k, e, j, i in at
        if r.env_tested[e, k - 1]
        for c in range(2)
    ]

    # flags.csv names the observer i first, then the sender j
    header, rows = _csv_rows(tmp_path / "flags.csv", int, int, int, int, int, Classification)
    assert header == ["k", "i", "j", "phi1", "phi2", "classification"]
    assert rows == [(k, i, j, *r.flags[k - 1, e], r.classifications[k - 1, e]) for k, e, j, i in at]

    header, rows = _csv_rows(tmp_path / "eta.csv", int, float)
    assert header == ["k", "eta"]
    assert len(rows) == K + 1
    assert all(k == want_k and _same(v, r.eta[k]) for (k, v), want_k in zip(rows, range(K + 1)))

    header, rows = _csv_rows(tmp_path / "summary.csv", str, float)
    assert header == ["metric", "value"]
    assert [name for name, _ in rows] == list(r.summary)
    assert all(_same(v, r.summary[name]) for name, v in rows)
