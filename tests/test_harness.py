"""Scenario loading, the platoon preset and report plumbing."""

from __future__ import annotations

import functools
import json
import math
import operator
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import harness
from maswatch.attacks import AttackScenario
from maswatch.detectors import envelope_verdict
from maswatch.dynamics import StateBounds
from maswatch.engine import simulate
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

from _scenarios import small_doc


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
    ],
    ids=[
        "window", "edge", "budget", "theta_nan", "noise_var_inf", "trials_bool", "estimator", "factor_mode",
        "identity", "n_agents_huge",
    ],
)
def test_bad_input_raises_scenario_error_with_path(edit, path):
    doc = small_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(json.loads(json.dumps(doc)))
    assert err.value.path == path


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
    assert len(r.classifications) == K and len(r.classifications[0]) == E
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
    assert r.flags.shape == (K, E, 2) and len(r.classifications) == K
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


# --- sweep ------------------------------------------------------------------


def test_transient_sweep_single_value():
    s = scenario_from_dict(small_doc())
    rows = transient_sweep(s, [1.0], probe_step=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["scale"] == 1.0 and row["probe_step"] == 4
    assert row["watermark_kl"] >= 0.0 and row["ablation_kl"] >= 0.0


def test_transient_sweep_simulates_each_scale_once(monkeypatch):
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate", counting_simulate)
    rows = transient_sweep(scenario_from_dict(small_doc()), [0.5, 1.0, 2.0], probe_step=4)
    assert len(rows) == 3 and len(calls) == 3


def test_transient_sweep_rejects_bad_grid():
    s = scenario_from_dict(small_doc())
    with pytest.raises(ValueError, match="positive"):
        transient_sweep(s, [0.0])
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
        classifications=[],
        summary={"false_alarm_rate": 0.0},
    )
    paths = export_report(empty, tmp_path / "empty")
    for p in paths:
        lines = p.read_text().splitlines()
        if p.name == "kl_trace.csv":
            assert lines == ["k,edge_j,edge_i,detector,statistic,decision"]
        if p.name == "eta.csv":
            assert lines[0] == "k,eta"
