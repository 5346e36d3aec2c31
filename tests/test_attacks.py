"""Attack schedules, tampering, Byzantine emission and scenario validation."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import engine
from maswatch.attacks import (
    BYZANTINE_KINDS,
    AttackScenario,
    ByzantineBehavior,
    ChannelAttack,
    Schedule,
    active_attacks,
    activity,
    byzantine_emit,
    tamper_channel,
    validate_attacks,
)
from maswatch.graph import LocalAttackBudget, build_topology
from maswatch.harness import scenario_from_dict

from _scenarios import small_doc


def _sin(*coeffs):
    return Schedule("sin", coeffs)


def _const(*coeffs):
    return Schedule("const", coeffs)


def section_iv_attack(window=(10, None)):
    # the channel attack used throughout the experiments
    return ChannelAttack(
        edge=(5, 2),
        window=window,
        xi1=_sin(1.0, 8.3, 2.4),
        lam1=_sin(0.0, 3.73, -1.32),
        xi2=_sin(0.0, 7.3, -2.32),
        lam2=_const(0.0, 0.0, 0.0),
    )


def test_schedule_kinds():
    k = 7
    assert np.allclose(_sin(2.0).eval(k), 2.0 * math.sin(7))
    assert np.allclose(Schedule("ramp", (0.5,)).eval(k), 3.5)
    assert np.allclose(_const(1.0, -1.0).eval(k), [1.0, -1.0])
    # an array of steps gives one row per step, each equal to the scalar call
    steps = np.arange(1, 30)
    for sched in (_sin(2.0, -0.5), Schedule("ramp", (0.5, 3.0)), _const(1.0, -1.0)):
        rows = sched.eval(steps)
        assert rows.shape == (29, 2)
        assert all(np.array_equal(rows[r], sched.eval(int(k))) for r, k in enumerate(steps))
    assert _sin(1.0).eval(np.arange(1, 1)).shape == (0, 1)
    with pytest.raises(ValueError, match="unknown schedule kind"):
        Schedule("cos", (1.0,))


def test_window_validation():
    with pytest.raises(ValueError, match="start at step 1"):
        ChannelAttack((0, 1), (0, 5), _const(1.0), _const(0.0), _const(1.0), _const(0.0))
    with pytest.raises(ValueError, match="nonempty"):
        ByzantineBehavior(1, (5, 5), "constant_offset", offset=(1.0,))


def test_active_window_bounds():
    a = section_iv_attack(window=(10, 20))
    assert not a.active(9)
    assert a.active(10) and a.active(19)
    assert not a.active(20)
    assert section_iv_attack(window=(10, None)).active(10_000)


def test_byzantine_validation():
    with pytest.raises(ValueError, match="unknown byzantine kind"):
        ByzantineBehavior(1, (1, None), "teleport")
    with pytest.raises(ValueError, match="needs an offset"):
        ByzantineBehavior(1, (1, None), "constant_offset")
    with pytest.raises(ValueError, match="positive scale"):
        ByzantineBehavior(1, (1, None), "per_neighbor_random", scale=0.0)


def test_tamper_channel():
    y = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    a = section_iv_attack(window=(10, None))
    assert tamper_channel(y, a, 9) is y
    out = tamper_channel(y, a, 10)
    s = math.sin(10)
    assert out.shape == (2, 3)
    assert np.allclose(out[0], np.array([1.0, 8.3 * 2, 2.4 * 3]) * s + np.array([0.0, 3.73, -1.32]) * s)
    assert np.allclose(out[1], np.array([0.0, 7.3, -2.32]) * s)


def test_byzantine_emit_kinds():
    x = np.array([1.0, 2.0, 3.0])
    const = ByzantineBehavior(5, (2, None), "constant_offset", offset=(10.0, 0.0, 0.0))
    assert np.array_equal(byzantine_emit(const, 1, x), x)
    assert np.array_equal(byzantine_emit(const, 2, x), [11.0, 2.0, 3.0])

    ramp = ByzantineBehavior(5, (1, None), "divergent_ramp", offset=(1.0, 0.0, 0.0))
    assert np.array_equal(byzantine_emit(ramp, 4, x), [5.0, 2.0, 3.0])

    frozen = ByzantineBehavior(5, (1, None), "frozen_state")
    cap = np.array([9.0, 9.0, 9.0])
    assert np.array_equal(byzantine_emit(frozen, 3, x, frozen_state=cap), cap)
    with pytest.raises(ValueError, match="captured state"):
        byzantine_emit(frozen, 3, x)

    rand = ByzantineBehavior(5, (1, None), "per_neighbor_random", scale=2.0)
    z = np.array([0.5, -1.0, 0.0])
    assert np.array_equal(byzantine_emit(rand, 1, x, draw=z), [2.0, 0.0, 3.0])
    with pytest.raises(ValueError, match="step's draw"):
        byzantine_emit(rand, 1, x)


def test_active_attacks_filters_by_step():
    chan = section_iv_attack(window=(10, 20))
    byz = ByzantineBehavior(5, (15, None), "constant_offset", offset=(1.0, 0.0, 0.0))
    s = AttackScenario(channel=(chan,), byzantine=(byz,))
    assert active_attacks(s, 9) == ([], [])
    assert active_attacks(s, 12) == ([chan], [])
    assert active_attacks(s, 16) == ([chan], [byz])
    assert active_attacks(s, 25) == ([], [byz])


def _topology():
    return build_topology(
        7,
        [(0, 2), (1, 2), (3, 2), (4, 2), (5, 2), (5, 1), (5, 3), (5, 4), (0, 1), (0, 5), (0, 6)],
    )


def test_validate_attacks_unknown_edge_and_agent():
    t = _topology()
    bad_edge = ChannelAttack((2, 5), (1, None), _const(1.0), _const(0.0), _const(1.0), _const(0.0))
    with pytest.raises(ValueError, match="unknown edge"):
        validate_attacks(AttackScenario(channel=(bad_edge,)), t, 10)
    bad_agent = ByzantineBehavior(9, (1, None), "constant_offset", offset=(1.0,))
    with pytest.raises(ValueError, match="unknown agent"):
        validate_attacks(AttackScenario(byzantine=(bad_agent,)), t, 10)


def test_validate_attacks_rejects_overlaps():
    t = _topology()
    a1 = section_iv_attack(window=(5, 15))
    a2 = section_iv_attack(window=(14, None))
    with pytest.raises(ValueError, match="overlap on edge"):
        validate_attacks(AttackScenario(channel=(a1, a2)), t, 30)
    # back to back windows are fine
    a3 = section_iv_attack(window=(15, None))
    assert validate_attacks(AttackScenario(channel=(a1, a3)), t, 30) is None

    b1 = ByzantineBehavior(5, (2, 8), "constant_offset", offset=(1.0, 0.0, 0.0))
    b2 = ByzantineBehavior(5, (7, None), "frozen_state")
    with pytest.raises(ValueError, match="overlap on agent"):
        validate_attacks(AttackScenario(byzantine=(b1, b2)), t, 30)


def test_validate_attacks_budget():
    t = _topology()
    budget = LocalAttackBudget(1, 1)
    chan = section_iv_attack(window=(10, None))
    byz = ByzantineBehavior(5, (20, None), "constant_offset", offset=(1000.0, 0.0, 0.0))
    ok = AttackScenario(channel=(chan,), byzantine=(byz,), budget=budget)
    assert validate_attacks(ok, t, 60) is None

    # two attacked channels into agent 2 breaks P = 1 at the overlap step
    extra = ChannelAttack((1, 2), (12, None), _const(1.0, 1.0, 1.0),
                          _const(0.0, 0.0, 0.0), _const(1.0, 1.0, 1.0), _const(0.0, 0.0, 0.0))
    over = AttackScenario(channel=(chan, extra), budget=budget)
    assert validate_attacks(over, t, 60) == (2, 12)

    # agent 2 hears two byzantine in-neighbors once both windows open
    byz2 = ByzantineBehavior(1, (25, None), "frozen_state")
    over2 = AttackScenario(byzantine=(byz, byz2), budget=budget)
    assert validate_attacks(over2, t, 60) == (2, 25)


def _brute_force_validate(s, t, horizon):
    """validate_attacks' contract checked at every step 1..horizon."""
    for pairs, key, what in ((s.channel, "edge", "channel attacks"), (s.byzantine, "agent", "byzantine behaviors")):
        for idx, a in enumerate(pairs):
            for b in pairs[idx + 1 :]:
                if getattr(a, key) != getattr(b, key):
                    continue
                for k in range(1, horizon + 1):
                    if a.active(k) and b.active(k):
                        return f"two {what} overlap on {key} {getattr(a, key)} at step {k}"
    for k in range(1, horizon + 1):
        chan_k, byz_k = active_attacks(s, k)
        byz_agents = {b.agent for b in byz_k}
        for i in range(t.n_agents):
            if sum(1 for j in t.in_neighbors(i) if j in byz_agents) > s.budget.max_byzantine_neighbors:
                return (i, k)
            if sum(1 for a in chan_k if a.edge[1] == i) > s.budget.max_attacked_channels:
                return (i, k)
    return None


_windows = st.tuples(st.integers(1, 14), st.one_of(st.none(), st.integers(1, 10))).map(
    lambda w: (w[0], None if w[1] is None else w[0] + w[1])
)


@settings(max_examples=300, deadline=None)
@given(
    chan=st.lists(st.tuples(st.sampled_from(_topology().edges), _windows), max_size=4),
    byz=st.lists(st.tuples(st.integers(0, 6), _windows), max_size=4),
    L=st.integers(0, 2),
    P=st.integers(0, 2),
    horizon=st.integers(0, 16),
)
def test_validate_attacks_matches_per_step_scan(chan, byz, L, P, horizon):
    t = _topology()
    s = AttackScenario(
        channel=tuple(
            ChannelAttack(e, w, _const(1.0), _const(0.0), _const(1.0), _const(0.0)) for e, w in chan
        ),
        byzantine=tuple(ByzantineBehavior(a, w, "frozen_state") for a, w in byz),
        budget=LocalAttackBudget(L, P),
    )
    want = _brute_force_validate(s, t, horizon)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            validate_attacks(s, t, horizon)
        assert str(err.value) == want
    else:
        assert validate_attacks(s, t, horizon) == want


@settings(max_examples=200, deadline=None)
@given(
    chan=st.lists(st.tuples(st.sampled_from(_topology().edges), _windows), max_size=4),
    byz=st.lists(st.tuples(st.integers(0, 6), _windows, st.sampled_from(BYZANTINE_KINDS)), max_size=4),
    horizon=st.integers(0, 16),
)
def test_activity_matches_per_step_scan(chan, byz, horizon):
    """activity against a step-by-step scan, and the kernel's Byzantine
    tables: outside activity's Byzantine mask they are the tables of a
    run without Byzantine behaviors (send_row k-1, byz_coeff 0, scale 0)."""
    t = _topology()
    s = AttackScenario(
        channel=tuple(
            ChannelAttack(e, w, _const(1.0), _const(0.0), _const(1.0), _const(0.0)) for e, w in chan
        ),
        byzantine=tuple(ByzantineBehavior(a, w, kind, (1.0,), 1.0) for a, w, kind in byz),
    )
    chan_mask, byz_mask = activity(s, t, horizon)
    assert chan_mask.shape == byz_mask.shape == (horizon, t.n_edges)
    kernel_mask, xi, lam, send_row, byz_coeff, scale = engine._schedule_arrays(t, s, horizon, 1)
    assert np.array_equal(kernel_mask, chan_mask)
    assert xi.shape == lam.shape == (horizon, 2, t.n_edges, 1)
    honest = engine._schedule_arrays(t, AttackScenario(channel=s.channel), horizon, 1)[3:]
    assert np.array_equal(honest[0], np.repeat(np.arange(horizon)[:, None], t.n_edges, axis=1))
    assert not honest[1].any() and not honest[2].any()
    for got, want in zip((send_row, byz_coeff, scale), honest):
        assert got.shape == want.shape
        assert np.array_equal(got[~byz_mask], want[~byz_mask])
    for k in range(1, horizon + 1):
        chan_k, byz_k = active_attacks(s, k)
        for e, (j, i) in enumerate(t.edges):
            assert chan_mask[k - 1, e] == any(a.edge == (j, i) for a in chan_k)
            assert byz_mask[k - 1, e] == any(b.agent == j for b in byz_k)


def test_validation_cost_does_not_grow_with_the_horizon():
    doc = small_doc(horizon=10**12, trials=2)
    doc["attacks"] = {
        "budget": {"L": 1, "P": 1},
        "channel": [
            {"edge": [0, 2], "window": [3, None], **{f: {"kind": "const", "coeffs": [1.0, 1.0]} for f in ("xi1", "xi2")},
             **{f: {"kind": "const", "coeffs": [0.0, 0.0]} for f in ("lam1", "lam2")}},
        ],
        "byzantine": [{"agent": 1, "window": [5, 10**9], "kind": "frozen_state"}],
    }
    t0 = time.perf_counter()
    s = scenario_from_dict(doc)
    assert time.perf_counter() - t0 < 1.0
    assert s.horizon == 10**12
    t0 = time.perf_counter()
    assert validate_attacks(s.attacks, s.topology, 10**30) is None
    assert time.perf_counter() - t0 < 1.0


def test_validation_cost_does_not_grow_with_the_agent_count():
    """Only receivers of attacked edges and out-neighbors of Byzantine
    agents are counted, so agents without an attacked in-edge cost nothing."""
    t = build_topology(10**6, [(0, 1), (1, 2), (0, 2), (2, 3)])
    s = AttackScenario(
        channel=(ChannelAttack((0, 2), (2, None), _const(1.0), _const(0.0), _const(1.0), _const(0.0)),),
        byzantine=(ByzantineBehavior(1, (3, None), "frozen_state"), ByzantineBehavior(2, (4, None), "frozen_state")),
        budget=LocalAttackBudget(1, 1),
    )
    t0 = time.perf_counter()
    assert validate_attacks(s, t, 10) is None
    assert time.perf_counter() - t0 < 0.5
    tight = AttackScenario(channel=s.channel, byzantine=s.byzantine, budget=LocalAttackBudget(0, 1))
    assert validate_attacks(tight, t, 10) == (2, 3)
