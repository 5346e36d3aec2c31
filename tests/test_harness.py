"""Scenario loading, the platoon preset and report plumbing."""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import re
from dataclasses import FrozenInstanceError, fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import engine, harness
from maswatch.attacks import AttackScenario, ByzantineBehavior, ChannelAttack, Schedule
from maswatch.detectors import EnvelopeConfig, KlDetectorConfig, envelope_verdict, estimate_kl, gaussian_kl
from maswatch.dynamics import AgentModel, ControllerParams, StateBounds, companion_model, platoon_model
from maswatch.engine import simulate
from maswatch.graph import LEADER, LocalAttackBudget, Topology, build_topology
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
from maswatch.watermark import WatermarkParams, edge_stream

from _reference import recovered_copies
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
    s = platoon_preset("clean")
    for key in ("K1", "K2"):
        gains = {"K1": s.controller.K1, "K2": s.controller.K2, key: [0.0, 1.0]}
        with pytest.raises(ScenarioError, match="expected 3 components, got 2") as err:
            replace(s, controller=ControllerParams(**gains))
        assert err.value.path == f"controller.{key}"


def test_init_states_shape_checked():
    doc = small_doc()
    doc["run"]["init"] = {"states": [[0.0, 0.0]]}
    with pytest.raises(ScenarioError, match="expected shape") as err:
        scenario_from_dict(doc)
    assert err.value.path == "run.init"


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
    with pytest.raises(ScenarioError, match=r"unknown key, the known keys are \['attacks'\]$") as err:
        scenario_from_dict(doc, variant="clean")
    assert err.value.path == "variants.clean.run"


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
    "edit, path, message",
    [
        (
            lambda d: d["attacks"].update(channel=[_channel_attack(window=[[1], None])]),
            "attacks.channel[0]",
            r"window start must be an integer of at least 1, got \[1\]",
        ),
        (lambda d: d["topology"].update(edges=[["a", 2], [0, 1]]), "topology", r"edges\[0\] must be an integer .*, got 'a'"),
        (lambda d: d["attacks"].update(budget=[1, 1]), "attacks.budget", r"an object with keys \['L', 'P'\], got list"),
        (lambda d: d["detectors"]["kl"].update(theta=math.nan), "detectors.kl", "theta must be a finite real number, got nan"),
        (lambda d: d["controller"].update(noise_var=math.inf), "controller", "noise_var must be a finite real number, got inf"),
        (lambda d: d["run"].update(trials=True), "run.trials", "trials must be an integer of at least 1, got True"),
        (lambda d: d["detectors"]["kl"].update(estimator="histogram"), "detectors.kl.estimator", "unknown key"),
        (lambda d: d["detectors"]["envelope"].update(factor_mode="proposition3"), "detectors.envelope.factor_mode", "unknown key"),
        (lambda d: d["watermark"].update(identity=True), "watermark.identity", "unknown key"),
        (lambda d: d["topology"].update(n_agents=2**62), "run.init", r"expected shape \(4611686018427387904, 2\)"),
        (lambda d: d["detectors"]["bounds"].update(eps1=-1, eps2=0), "detectors.bounds", "eps2 = 0"),
    ],
    ids=[
        "window", "edge", "budget", "theta_nan", "noise_var_inf", "trials_bool", "estimator", "factor_mode",
        "identity", "n_agents_huge", "eps2_zero",
    ],
)
def test_bad_input_raises_scenario_error_with_path(edit, path, message):
    """A leaf's value is refused by its type, at the object that holds it,
    and the message names the leaf."""
    doc = small_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(json.loads(json.dumps(doc)))
    assert err.value.path == path
    assert re.search(message, str(err.value))


_CONST = Schedule("const", (1.0, 1.0))
_RAGGED = [[0.0, 0.0], [0.0], [0.0, 0.0]]


def _frozen_agent_1(d):
    d["attacks"] = {"budget": {"L": 0, "P": 1}, "byzantine": [{"agent": 1, "window": [3, None], "kind": "frozen_state"}]}


@pytest.mark.parametrize(
    "field, value, edit, path, rule",
    [
        ("varsigma", -1.0, lambda d: d["run"].update(varsigma=-1.0), "run.varsigma", r"lie in \(0, inf\), got -1.0"),
        ("varsigma", math.nan, lambda d: d["run"].update(varsigma=math.nan), "run.varsigma", r"finite real number, got nan"),
        ("varsigma", math.inf, lambda d: d["run"].update(varsigma=math.inf), "run.varsigma", r"finite real number, got inf"),
        ("varsigma", "x", lambda d: d["run"].update(varsigma="x"), "run.varsigma", r"finite real number, got 'x'"),
        ("varsigma", None, lambda d: d["run"].update(varsigma=None), "run.varsigma", r"finite real number, got None"),
        ("varsigma", True, lambda d: d["run"].update(varsigma=True), "run.varsigma", r"finite real number, got True"),
        ("trials", 0, lambda d: d["run"].update(trials=0), "run.trials", r"at least 1, got 0"),
        ("horizon", -1, lambda d: d["run"].update(horizon=-1), "run.horizon", r"at least 0, got -1"),
        ("master_seed", -1, lambda d: d["run"].update(master_seed=-1), "run.master_seed", r"at least 0, got -1"),
        ("master_seed", 1.5, lambda d: d["run"].update(master_seed=1.5), "run.master_seed", r"at least 0, got 1.5"),
        ("trials", 2.5, lambda d: d["run"].update(trials=2.5), "run.trials", r"at least 1, got 2.5"),
        ("horizon", 3.0, lambda d: d["run"].update(horizon=3.0), "run.horizon", r"at least 0, got 3.0"),
        ("trials", True, lambda d: d["run"].update(trials=True), "run.trials", r"at least 1, got True"),
        ("horizon", True, lambda d: d["run"].update(horizon=True), "run.horizon", r"at least 0, got True"),
        ("varsigma", 10**400, lambda d: d["run"].update(varsigma=10**400), "run.varsigma", r"got an integer of 401 digits"),
        (
            "controller",
            ControllerParams([0.5] * 3, [0.5, 1.0]),
            lambda d: d["controller"].update(K1=[0.5] * 3),
            "controller.K1",
            r"expected 2 components, got 3",
        ),
        (
            "controller",
            ControllerParams([0.5, 0.5], [0.5] * 3),
            lambda d: d["controller"].update(K2=[0.5] * 3),
            "controller.K2",
            r"expected 2 components, got 3",
        ),
        (
            "init_states",
            np.full((3, 2), np.nan),
            lambda d: d["run"]["init"].update(states=[[math.nan] * 2] * 3),
            "run.init",
            r"init\[0\]\[0\] must be a finite real number, got nan",
        ),
        (
            "init_states",
            np.zeros((2, 2)),
            lambda d: d["run"]["init"].update(states=[[0.0] * 2] * 2),
            "run.init",
            r"expected shape \(3, 2\), got \(2, 2\)",
        ),
        (
            "init_states",
            _RAGGED,
            lambda d: d["run"]["init"].update(states=_RAGGED),
            "run.init",
            r"expected shape \(3, 2\), got ragged rows",
        ),
        (
            "attacks",
            AttackScenario(byzantine=(ByzantineBehavior(1, (3, None), "frozen_state"),), budget=LocalAttackBudget(0, 1)),
            _frozen_agent_1,
            "attacks.budget",
            r"local budget exceeded at agent 2, step 3",
        ),
        (
            "attacks",
            AttackScenario(channel=(ChannelAttack((2, 0), (1, None), _CONST, _CONST, _CONST, _CONST),)),
            lambda d: d["attacks"].update(channel=[_channel_attack(edge=[2, 0])]),
            "attacks",
            r"unknown edge \(2, 0\)",
        ),
        (
            "attacks",
            AttackScenario(byzantine=(ByzantineBehavior(1, (3, None), "constant_offset", offset=(1000.0,)),)),
            lambda d: d["attacks"].update(byzantine=[{"agent": 1, "window": [3, None], "kind": "constant_offset", "offset": [1000.0]}]),
            "attacks.byzantine[0].offset",
            r"expected 2 components, got 1",
        ),
        (
            "attacks",
            AttackScenario(channel=(ChannelAttack((0, 1), (1, None), _CONST, _CONST, _CONST, Schedule("const", (0.0,) * 3)),)),
            lambda d: d["attacks"].update(channel=[_channel_attack(lam2={"kind": "const", "coeffs": [0.0] * 3})]),
            "attacks.channel[0].lam2.coeffs",
            r"expected 2 components, got 3",
        ),
    ],
    ids=[
        "varsigma_negative", "varsigma_nan", "varsigma_inf", "varsigma_str", "varsigma_none", "varsigma_bool",
        "trials_zero", "horizon_negative", "master_seed_negative",
        "master_seed_float", "trials_float", "horizon_float", "trials_bool", "horizon_bool", "varsigma_huge",
        "K1_length", "K2_length",
        "init_nan", "init_shape", "init_ragged", "over_budget", "unknown_edge", "offset_length", "coeffs_length",
    ],
)
def test_a_scenario_built_through_the_api_fails_as_the_loader_does(field, value, edit, path, rule):
    """A fault set through replace is the ScenarioError the loader reports
    for it, at the same field and with the same message, which states the
    broken rule. Setting the field of a loaded Scenario is refused."""
    s = scenario_from_dict(small_doc())
    with pytest.raises(FrozenInstanceError):
        setattr(s, field, value)
    with pytest.raises(ScenarioError, match=rule) as api:
        replace(s, **{field: value})
    assert api.value.path == path
    doc = small_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == str(api.value)


# Every numeric field of the config types: (factory, valid keyword
# arguments, the field). A list field's last entry takes the bad value.
_CONFIG_ARGS = {
    KlDetectorConfig: {"theta": 4.61, "min_samples": 30},
    EnvelopeConfig: {"M_r": 100.0, "phi": 0.16, "lambda_min": 1.0, "delta": 6.0},
    StateBounds: {"eps1": -200.0, "eps2": 1230.0},
    WatermarkParams: {"lambda1": 2.0, "lambda2": 5.0, "sigma2_m1": 7.2, "sigma2_m2": 4.3, "sigma2_f1": 2.0, "sigma2_f2": 3.5},
    ControllerParams: {"K1": [0.5, 0.5], "K2": [0.5, 1.0], "gain_mu": 0.5, "gain_lambda": 0.6, "noise_var": 1.0},
    AgentModel: {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [0.0, 1.0]},
    platoon_model: {"delta": 1.2, "T": 1.0},
    companion_model: {"rho": [0.0, 0.5]},
    Schedule: {"kind": "sin", "coeffs": [1.0, 2.0]},
    ByzantineBehavior: {"agent": 1, "window": (3, None), "kind": "per_neighbor_random", "offset": [1.0], "scale": 2.5},
    LocalAttackBudget: {"L": 1, "P": 1},
    Topology: {"n_agents": 2, "edges": [(0, 1)], "weights": [1.0]},
    ChannelAttack: {"edge": (0, 1), "window": (3, None), **dict.fromkeys(("xi1", "lam1", "xi2", "lam2"), _CONST)},
}
_NOT_NUMBERS = {"kind", "agent", "window", "n_agents", "edges", "edge", "xi1", "lam1", "xi2", "lam2"}
_NUMERIC_FIELDS = [(f, key) for f, args in _CONFIG_ARGS.items() for key in args if key not in _NOT_NUMBERS]
# Values no real field takes, by test id. 10**400 and 10**5000 are
# integers, so the integer fields among them (min_samples, L and P) do
# take them.
_NOT_FINITE = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "huge": 10**400, "-huge": -(10**400), "huger": 10**5000,
    "bool": True, "str": "1",
}
_INTEGER_KEYS = {"min_samples", "L", "P"}
# A refusal shows an integer beyond the float range by its digit count,
# since Python refuses to print one of more than 4300 digits.
_SHOWN = {"huge": "an integer of 401 digits", "-huge": "an integer of 401 digits", "huger": "an integer of 5001 digits"}


def _with_last(value, bad):
    """value with its last scalar (the value itself, if scalar) set to bad."""
    return [*value[:-1], _with_last(value[-1], bad)] if isinstance(value, list) else bad


@pytest.mark.parametrize(
    "factory, key, bad, shown",
    [
        pytest.param(f, key, bad, _SHOWN[name] if name in _SHOWN else repr(bad), id=f"{f.__name__}.{key}-{name}")
        for f, key in _NUMERIC_FIELDS
        for name, bad in _NOT_FINITE.items()
        if not (name in ("huge", "huger") and key in _INTEGER_KEYS)
    ],
)
def test_config_types_refuse_values_that_are_not_finite(factory, key, bad, shown):
    """A NaN, an infinity, a number beyond the float range, a bool or a
    string set through the Python API is a ValueError naming the field
    and the value, never an OverflowError or a TypeError, as the loader
    makes it a ScenarioError for a document. Showing the value never
    fails: an integer beyond the float range is shown by its digit count."""
    args = _CONFIG_ARGS[factory]
    factory(**args)
    with pytest.raises(ValueError) as err:
        factory(**{**args, key: _with_last(args[key], bad)})
    assert str(err.value).startswith(key) and str(err.value).endswith(f", got {shown}")


# Every integer field: (factory, field, its value around x, the name
# the refusal gives).
_INTEGER_FIELDS = {
    "L": (LocalAttackBudget, "L", lambda x: x, "L"),
    "P": (LocalAttackBudget, "P", lambda x: x, "P"),
    "n_agents": (Topology, "n_agents", lambda x: x, "n_agents"),
    "min_samples": (KlDetectorConfig, "min_samples", lambda x: x, "min_samples"),
    "agent": (ByzantineBehavior, "agent", lambda x: x, "agent"),
    "topology_edge": (Topology, "edges", lambda x: [(0, x)], "edges[0]"),
    "channel_edge": (ChannelAttack, "edge", lambda x: (x, 1), "edge[0]"),
    "byzantine_window_start": (ByzantineBehavior, "window", lambda x: (x, None), "window start"),
    "byzantine_window_stop": (ByzantineBehavior, "window", lambda x: (3, x), "window stop"),
    "channel_window_start": (ChannelAttack, "window", lambda x: (x, None), "window start"),
    "channel_window_stop": (ChannelAttack, "window", lambda x: (3, x), "window stop"),
}


@pytest.mark.parametrize("bad", [1.5, True, 5.0], ids=["fraction", "bool", "float"])
@pytest.mark.parametrize("field", _INTEGER_FIELDS)
def test_config_types_refuse_integer_fields_that_are_not_integers(field, bad):
    """A count, an id or a window end that is a fraction, a bool or a
    float is a ValueError naming the field and the value: a budget of
    1.5 would ask for fractional paths, an agent of 5.0 would name its
    summary keys ttd_byzantine_5.0, and a window end would slice."""
    factory, key, place, name = _INTEGER_FIELDS[field]
    args = _CONFIG_ARGS[factory]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer of at least \d+, got {bad!r}$"):
        factory(**{**args, key: place(bad)})


@pytest.mark.parametrize(
    "build, name, shown",
    [
        pytest.param(lambda: Schedule("const", 5), "coeffs", "5", id="coeffs_scalar"),
        pytest.param(lambda: ByzantineBehavior(1, (3, None), "constant_offset", offset=5), "offset", "5", id="offset_scalar"),
        pytest.param(lambda: ByzantineBehavior(1, 5, "frozen_state"), "window", "5", id="byzantine_window_scalar"),
        pytest.param(lambda: ChannelAttack(5, (1, None), *[_CONST] * 4), "edge", "5", id="channel_edge_scalar"),
        pytest.param(lambda: build_topology(3, [5]), "edges[0]", "5", id="build_topology_row_scalar"),
        pytest.param(lambda: Topology(3, (5,), (1.0,)), "edges[0]", "5", id="topology_edge_scalar"),
        pytest.param(lambda: Topology(3, ((0, 1),), 5), "weights", "5", id="topology_weights_scalar"),
        pytest.param(lambda: ByzantineBehavior(1, (1, 2, 3), "frozen_state"), "window", "(1, 2, 3)", id="byzantine_window_3"),
        pytest.param(
            lambda: ChannelAttack((0, 1), (1, None, 3), *[_CONST] * 4), "window", "(1, None, 3)", id="channel_window_3"
        ),
        pytest.param(lambda: build_topology(3, [(0, 1, 2, 3)]), "edges[0]", "(0, 1, 2, 3)", id="build_topology_row_4"),
        pytest.param(lambda: Topology(3, ((0, 1, 2),), (1.0,)), "edges[0]", "(0, 1, 2)", id="topology_edge_3"),
        pytest.param(lambda: ChannelAttack((1, 2, 3), (1, None), *[_CONST] * 4), "edge", "(1, 2, 3)", id="channel_edge_3"),
        pytest.param(lambda: ControllerParams(0.5, [0.5]), "K1", "0.5", id="K1_scalar"),
        pytest.param(lambda: ControllerParams([0.5], 0.5), "K2", "0.5", id="K2_scalar"),
        pytest.param(lambda: companion_model(0.5), "rho", "0.5", id="rho_scalar"),
    ],
)
def test_sequence_fields_refuse_a_value_of_the_wrong_shape(build, name, shown):
    """A window, an edge, a row of build_topology or a vector field that
    is not a list or tuple of the right number of entries is a ValueError
    naming the field and the value, never a TypeError from unpacking it
    and never a type built from it."""
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a list or tuple\b.*, got {re.escape(shown)}$"):
        build()


def test_loaded_init_states_are_read_only():
    s = scenario_from_dict(small_doc())
    with pytest.raises(ValueError, match="read-only"):
        s.init_states[0, 0] = 1.0


@pytest.mark.parametrize("value", [[], 0, False, "", [1]], ids=["empty_list", "zero", "false", "empty_string", "list"])
def test_attacks_that_are_not_an_object_are_refused(value):
    doc = small_doc()
    doc["attacks"] = value
    with pytest.raises(ScenarioError, match="expected an object") as err:
        scenario_from_dict(doc)
    assert err.value.path == "attacks"


def test_null_or_absent_attacks_mean_no_attacks():
    null, absent = small_doc(), small_doc()
    null["attacks"] = None
    del absent["attacks"]
    assert scenario_from_dict(null).attacks == scenario_from_dict(absent).attacks == AttackScenario()


def test_scenario_owns_the_varsigma_default():
    """The type defaults varsigma; a document that leaves it out (as
    small_doc does) gets that default, and one that gives it, its value."""
    s = scenario_from_dict(small_doc())
    assert s.varsigma == 0.05
    assert Scenario(**{f.name: getattr(s, f.name) for f in fields(s) if f.name != "varsigma"}).varsigma == 0.05
    doc = small_doc()
    doc["run"]["varsigma"] = 0.2
    assert scenario_from_dict(doc).varsigma == 0.2


# Values a mutation may write: usually one of the JSON type it replaces
# (NaN and inf included, and the names the loader dispatches on), else
# any small JSON value. Integers span the whole range: the loader
# allocates nothing sized by a document integer, so a huge agent count,
# horizon or trial count is refused (or loaded) without memory behind it.
_names = st.sampled_from(["sin", "ramp", "const", "companion", "frozen_state", "per_neighbor_random", "histogram"])
_numbers = st.booleans() | st.integers() | st.floats()
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


def _loader_path(keys) -> str:
    """keys as the loader names them: "attacks.channel[0].xi1"."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


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
# signs and sizes, NaN and inf. 2**62 agents is a valid topology whose
# initial states, one row per agent, the document cannot match; 10**400
# is an integer JSON may hold that no float can.
_DELETE = "<delete>"
_FAULTS = (_DELETE, None, True, -1, 0, 2, 0.5, -0.5, math.nan, math.inf, "x", "sin", [], [0], [[1, 0]], {}, 2**62, 10**400)


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
    # A key no table knows, added to any object the load reads (all but
    # the variants map, whose keys are names), is refused at its path.
    objects = [()] + [prefix + (key,) for prefix, key in _nodes(make())]
    for keys in objects:
        doc = make()
        obj = functools.reduce(operator.getitem, keys, doc)
        if not isinstance(obj, dict) or keys == ("variants",):
            continue
        obj["typo"] = 0
        with pytest.raises(ScenarioError, match=r"unknown key, the known keys are \[") as err:
            scenario_from_dict(doc, variant=variant)
        assert err.value.path == _loader_path(keys + ("typo",))


# Each config type's object in a document: (document, type, its keys from the root).
_DOCUMENT_OBJECTS = [
    (_attacked_small_doc, build_topology, ("topology",)),
    (_attacked_small_doc, companion_model, ("model",)),
    (preset_doc, platoon_model, ("model",)),
    (_attacked_small_doc, ControllerParams, ("controller",)),
    (_attacked_small_doc, WatermarkParams, ("watermark",)),
    (_attacked_small_doc, KlDetectorConfig, ("detectors", "kl")),
    (preset_doc, EnvelopeConfig, ("detectors", "envelope")),
    (_attacked_small_doc, StateBounds, ("detectors", "bounds")),
    (_attacked_small_doc, LocalAttackBudget, ("attacks", "budget")),
    (_attacked_small_doc, ChannelAttack, ("attacks", "channel", 0)),
    (_attacked_small_doc, Schedule, ("attacks", "channel", 0, "xi1")),
    (_attacked_small_doc, ByzantineBehavior, ("attacks", "byzantine", 0)),
]


@pytest.mark.parametrize("make, factory, keys", _DOCUMENT_OBJECTS, ids=[f.__name__ for _, f, _ in _DOCUMENT_OBJECTS])
def test_the_loader_reports_the_type_refusal_at_its_object(make, factory, keys):
    """Every leaf of a document goes to its type as written. Each bad value
    of _NOT_FINITE, written to each leaf (a list's last entry), that the
    type refuses is refused by the loader with exactly the type's own
    ValueError, at the path of the object that holds the leaf."""
    obj = functools.reduce(operator.getitem, keys, make())
    leaves = {key for key, v in obj.items() if key != "type" and not isinstance(v, dict)}
    refused = set()
    for key in leaves:
        for bad in _NOT_FINITE.values():
            doc = make()
            sec = functools.reduce(operator.getitem, keys, doc)
            sec[key] = _with_last(sec[key], bad)
            try:
                factory(**{k: v for k, v in sec.items() if k != "type"})
                continue  # a value the type takes, such as a huge count
            except ValueError as err:
                expected = f"{_loader_path(keys)}: {err}"
            with pytest.raises(ScenarioError) as got:
                scenario_from_dict(doc)
            assert str(got.value) == expected
            refused.add(key)
    assert refused == leaves


@pytest.mark.parametrize("weight", [-1, 0, "1"], ids=["negative", "zero", "string"])
def test_the_loader_refuses_an_edge_weight_at_its_row(weight):
    """A topology document has no weights key: each weight is the third
    entry of its edge row, and a bad one is refused there."""
    doc = small_doc()
    doc["topology"]["edges"][2] = [0, 2, weight]
    with pytest.raises(ScenarioError, match=rf"^topology: edges\[2\]\[2\] must .*, got {re.escape(repr(weight))}$") as err:
        scenario_from_dict(doc)
    assert err.value.path == "topology"


@pytest.mark.parametrize("value", [0.5, [[0.5, 0.5]]], ids=["scalar", "nested"])
@pytest.mark.parametrize("section, key", [("controller", "K1"), ("controller", "K2"), ("model", "rho")])
def test_the_loader_refuses_a_gain_or_rho_that_is_not_a_vector(section, key, value):
    """K1, K2 and rho are vectors, so a scalar is not read as a one-state
    model; their types refuse it, and the loader reports it at the object."""
    doc = small_doc()
    doc[section][key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    shown = f"{key} must be a list or tuple, got 0.5" if value == 0.5 else f"{key}[0] must be a finite real number, got [0.5, 0.5]"
    assert str(err.value) == f"{section}: {shown}"


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(bad)
    root = tmp_path / "list.json"
    root.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match=r"^list: expected an object, got list$"):
        load_scenario(root)


@pytest.mark.parametrize("section", [(), ("detectors", "kl"), ("variants", "quiet")], ids=["root", "nested", "variant"])
def test_load_scenario_refuses_a_key_written_twice(tmp_path, section):
    doc = small_doc()
    doc["variants"] = {"quiet": {"attacks": None}}
    obj = functools.reduce(operator.getitem, section, doc)
    key = next(iter(obj))
    text = json.dumps(doc)
    # the object's first key written once more, before it
    at = text.index(json.dumps(obj)) + 1
    p = tmp_path / "twice.json"
    p.write_text(text[:at] + f"{json.dumps(key)}: null, " + text[at:])
    with pytest.raises(ScenarioError, match=rf"^{re.escape(str(p))}: invalid JSON: key '{key}' is written twice in one object$"):
        load_scenario(p)


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


def _preset_with_windows(section, windows) -> Scenario:
    """The preset at horizon 40 with the channel variant's attack, or the
    byzantine variant's behavior, once in each of windows."""
    doc = preset_doc()
    attacks = doc["variants"][section]["attacks"]
    doc["attacks"] = {**attacks, section: [{**attacks[section][0], "window": list(w)} for w in windows]}
    doc["run"]["horizon"] = 40
    return scenario_from_dict(doc)


@pytest.mark.parametrize(
    "section, key, windows",
    [("channel", "ttd_channel_5_2", [(5, 15), (25, 35)]), ("byzantine", "ttd_byzantine_5_2", [(3, 8), (20, 30)])],
)
def test_each_attack_window_has_its_own_time_to_detect(section, key, windows):
    """Two windows on one edge, or two behaviors of one agent, give one
    ttd entry each, named by the window's start step; the entry of the
    first window is the one a run with it alone reports under the plain
    key."""
    alone = run_monte_carlo(_preset_with_windows(section, windows[:1])).summary
    both = run_monte_carlo(_preset_with_windows(section, windows)).summary
    first, second = (f"{key}_from_{start}" for start, _ in windows)
    assert key in alone and key not in both
    assert both[first] == alone[key]
    # one shared key would have kept only the second window's value
    assert both[second] != both[first]


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
    doc["run"]["init"] = {"states": [[0.0, 0.0], [-2.0, 0.0], [-4.0, 0.0]]}
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
        copies = recovered_copies(sim)
        wm_kl = ab_kl = 0.0
        for e, (_, i) in enumerate(s.topology.edges):
            y1, y2 = copies[:, probe_step - 1, 0, e], copies[:, probe_step - 1, 1, e]
            wm_kl = max(wm_kl, estimate_kl(y1, y2))
            resid = y1 - sim.states[:, probe_step - 1, i]
            mu, var = resid.mean(axis=0), np.maximum(resid.var(axis=0), 1e-30)
            ab_kl = max(ab_kl, gaussian_kl(mu, var, np.zeros_like(mu), np.full_like(mu, nominal_var)))
        want.append({"scale": scale, "watermark_kl": wm_kl, "ablation_kl": ab_kl, "probe_step": probe_step})
    assert transient_sweep(s, grid, probe_step=probe_step) == want
    assert want[1]["ablation_kl"] > want[0]["ablation_kl"] > 0.0


def test_transient_sweep_rows_do_not_depend_on_the_chunks(monkeypatch):
    """The preset's 100-trial sweep is one chunk; a floor of 25 trials
    and a 1-byte budget split it into 4 chunks, and the rows are those
    of the one-chunk run."""
    s = platoon_preset()
    grid = [0.5, 1.0, 2.0, 5.0]
    chunks, pregenerate = [], engine._pregenerate

    def recorded(s, trial_ids, scale):
        chunks.append(len(trial_ids))
        return pregenerate(s, trial_ids, scale)

    monkeypatch.setattr(engine, "_pregenerate", recorded)
    want = transient_sweep(s, grid, probe_step=4)
    assert chunks == [100]
    chunks.clear()
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "MIN_CHUNK_TRIALS", 25)
    assert transient_sweep(s, grid, probe_step=4) == want
    assert chunks == [25] * 4


def test_transient_sweep_of_an_empty_grid_draws_nothing(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("an empty grid needs no simulation")

    monkeypatch.setattr(harness, "simulate", no_simulation)
    assert transient_sweep(platoon_preset(), []) == []


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
    with pytest.raises(ScenarioError, match=r"^sweep: initial_error_grid\[1\] must be a finite real number, got nan$") as err:
        transient_sweep(s, [1e160, math.nan], probe_step=4)
    assert err.value.path == "sweep"
    with pytest.raises(ScenarioError, match=r"^run: initial error scale 1\.7e\+308 overflows the initial states$"):
        transient_sweep(s, [1e160, 1.7e308], probe_step=4)
    # Both statistics fit a distribution over trials, so one trial is
    # refused before anything is simulated.
    with pytest.raises(ScenarioError, match="at least 2 trials, got 1") as err:
        transient_sweep(replace(s, trials=1), [1.0], probe_step=4)
    assert err.value.path == "run.trials"


def test_transient_sweep_rejects_bad_grid():
    """Each refusal of an argument is a ScenarioError on sweep that names
    the argument, so the command line reports it with exit 2."""
    s = scenario_from_dict(small_doc())
    for scale, rule in (
        (0.0, r"lie in \(0, inf\), got 0\.0"),
        (-1.0, r"lie in \(0, inf\), got -1\.0"),
        (math.nan, "be a finite real number, got nan"),
        (math.inf, "be a finite real number, got inf"),
        (10**400, "be a finite real number, got an integer of 401 digits"),
        (True, "be a finite real number, got True"),
    ):
        with pytest.raises(ScenarioError, match=rf"^sweep: initial_error_grid\[1\] must {rule}"):
            transient_sweep(s, [1.0, scale])
    with pytest.raises(ScenarioError, match=f"^sweep: probe_step must be at most the horizon {s.horizon}, got 99$"):
        transient_sweep(s, [1.0], probe_step=99)
    # probe_step is read as an integer of at least 1, before the run's
    # own horizon rule sees it.
    for step in (0, 2.5, True):
        with pytest.raises(ScenarioError, match=rf"^sweep: probe_step must be an integer of at least 1, got {step}$") as err:
            transient_sweep(s, [1.0], probe_step=step)
        assert err.value.path == "sweep"


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
