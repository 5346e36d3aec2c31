"""Agent models, the consensus controller and the tracking metric."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch import dynamics
from maswatch.dynamics import (
    AgentModel,
    ControllerParams,
    StateBounds,
    companion_model,
    compute_control,
    compute_state_bounds,
    eta_curve,
    noise_gain,
    platoon_model,
    settling_step,
    step_system,
    transient_metric,
)
from maswatch.graph import build_topology


def test_companion_model_layout():
    m = companion_model([2.0, 3.0])
    assert np.array_equal(m.A, [[0, 1], [2, 3]])
    assert np.array_equal(m.B, [0, 1])
    assert m.n == 2


def test_companion_model_scalar():
    m = companion_model([0.7])
    assert m.A.shape == (1, 1) and m.A[0, 0] == 0.7
    with pytest.raises(ValueError):
        companion_model([])


def test_agent_model_validation():
    with pytest.raises(ValueError, match="square"):
        AgentModel(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="B length"):
        AgentModel(np.eye(2), np.zeros(3))


def test_platoon_model_values():
    m = platoon_model(delta=1.2, T=1.0)
    expect = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1 - 1 / 1.2]])
    assert np.allclose(m.A, expect)
    assert np.array_equal(m.B, [0, 0, 1])
    with pytest.raises(ValueError):
        platoon_model(delta=0.0)


def _params(**kw):
    base = dict(
        K1=np.array([0.0, 0.0, 1.0 / 3.0]),
        K2=np.array([0.1, 1.2, 1.0]),
        gain_mu=0.5,
        gain_lambda=0.9,
        noise_var=4.0,
    )
    base.update(kw)
    return ControllerParams(**base)


def test_controller_params_validation():
    with pytest.raises(ValueError, match="gain_mu"):
        _params(gain_mu=0.0)
    with pytest.raises(ValueError, match="gain_lambda"):
        _params(gain_lambda=1.0)
    with pytest.raises(ValueError, match="noise_var"):
        _params(noise_var=-1.0)


def test_noise_gain_decays_and_clamps_step_zero():
    p = _params()
    assert noise_gain(0, p) == noise_gain(1, p) == 0.5
    assert noise_gain(2, p) == pytest.approx(0.5 * 2.0 ** -0.9)
    vals = [noise_gain(k, p) for k in range(1, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        noise_gain(-1, p)


def test_compute_control_leader_ignores_neighbors():
    t = build_topology(3, [(0, 1), (1, 2)])
    p = _params()
    x0 = np.array([1.0, 2.0, 3.0])
    assert compute_control(0, x0, {}, 5, t, p) == pytest.approx(1.0)


def test_compute_control_follower_hand_value():
    t = build_topology(3, [(0, 1), (1, 2)])
    p = _params()
    x1 = np.zeros(3)
    recv = {0: np.array([10.0, 0.0, 0.0])}
    # u = K1 x + a(2) * K2 (y - x) = 0 + 0.5 * 2^-0.9 * 1.0
    assert compute_control(1, x1, recv, 2, t, p) == pytest.approx(0.5 * 2.0 ** -0.9 * 1.0)


def test_compute_control_missing_message():
    t = build_topology(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="missing the message"):
        compute_control(2, np.zeros(3), {}, 1, t, _params())


def test_step_system():
    m = platoon_model()
    s = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 6.0]])
    nxt = step_system(s, np.array([0.0, 1.0]), m)
    assert nxt.shape == (2, 3)
    assert np.allclose(nxt[0], [1.0, 1.0, 0.0])
    assert np.allclose(nxt[1], [1.0, 6.0, 2.0])
    with pytest.raises(ValueError, match="one control per agent"):
        step_system(s, np.array([1.0]), m)


def _trajectory():
    # 1 trial, 3 steps, leader fixed at norm 1, follower error shrinking
    traj = np.zeros((1, 3, 2, 2))
    traj[0, :, 0, 0] = 1.0
    traj[0, 0, 1] = [1.0, 0.4]
    traj[0, 1, 1] = [1.0, 0.1]
    traj[0, 2, 1] = [1.0, 0.02]
    return traj


def test_transient_metric_and_eta():
    traj = _trajectory()
    assert transient_metric(traj, 0) == pytest.approx(0.4)
    eta = eta_curve(traj)
    assert np.allclose(eta, [0.4, 0.1, 0.02])
    with pytest.raises(ValueError):
        transient_metric(np.zeros((2, 2, 2)), 0)


def test_transient_metric_nan_on_zero_leader():
    traj = _trajectory()
    traj[0, 1, 0] = 0.0
    assert math.isnan(transient_metric(traj, 1))


def _noisy_trajectory(trials, steps, agents, n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(trials, steps, agents, n)) * rng.uniform(1.0, 100.0, size=(1, steps, agents, 1))


# One step of the (13 trials, steps, 4 agents, 3 components) trajectory below.
_STEP_BYTES = 8 * 13 * 4 * 3


@pytest.mark.parametrize("block_bytes", [None, 3 * _STEP_BYTES + 8], ids=["default", "three_steps"])
def test_eta_curve_is_transient_metric_at_every_step(block_bytes, monkeypatch):
    """Bit for bit over several blocks of steps, the last one partial,
    with a zero leader norm in one trial and in every trial."""
    if block_bytes is not None:
        monkeypatch.setattr(dynamics, "ETA_BLOCK_BYTES", block_bytes)
    steps_per_block = dynamics.ETA_BLOCK_BYTES // _STEP_BYTES
    traj = _noisy_trajectory(13, 2 * steps_per_block + 5, 4, 3)
    traj[4, steps_per_block, 0] = 0.0  # first step of the second block
    traj[:, 2, 0] = 0.0
    want = np.array([transient_metric(traj, k) for k in range(traj.shape[1])])
    assert np.isnan(want[2]) and np.isnan(want[steps_per_block]) and np.isfinite(want[1])
    assert np.array_equal(eta_curve(traj), want, equal_nan=True)


def test_eta_curve_memory_does_not_grow_with_steps():
    """Blocks of steps bound the temporaries: beyond its (steps,) output,
    the traced peak stays under one constant at 4000 and at 50000
    steps, while the larger trajectory is over ten times that constant."""
    bound = 5 * dynamics.ETA_BLOCK_BYTES
    for steps in (4000, 50000):
        traj = _noisy_trajectory(8, steps, 4, 2)
        tracemalloc.start()
        try:
            eta_curve(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 8 * steps <= bound, (steps, peak / dynamics.ETA_BLOCK_BYTES)
    assert traj.nbytes >= 10 * bound


def test_settling_step():
    assert settling_step(np.array([0.4, 0.1, 0.02, 0.01]), 0.05) == 2
    assert settling_step(np.array([0.4, 0.02, 0.1, 0.01]), 0.05) == 3
    assert settling_step(np.array([0.4, 0.3]), 0.05) is None
    # NaN steps are undefined, not violations
    assert settling_step(np.array([0.4, 0.02, math.nan, 0.01]), 0.05) == 1
    assert settling_step(np.array([0.4, math.nan]), 0.05) is None
    assert settling_step(np.array([]), 0.05) is None


def _settling_scan(eta, varsigma):
    """settling_step by its definition, one suffix per step."""
    for k in range(len(eta)):
        if not math.isnan(eta[k]) and all(v < varsigma or math.isnan(v) for v in eta[k:]):
            return k
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    eta=st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 0.2)), max_size=30),
    varsigma=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
)
def test_settling_step_matches_per_step_scan(eta, varsigma):
    assert settling_step(np.array(eta, dtype=float), varsigma) == _settling_scan(eta, varsigma)


def test_compute_state_bounds():
    traj = np.arange(24.0).reshape(1, 2, 3, 4) - 5.0
    b = compute_state_bounds(traj)
    assert b.eps1 == -5.0 and b.eps2 == 18.0
    with pytest.raises(ValueError, match=r"^eps2 must lie in \[2\.0, inf\), got 1\.0$"):
        StateBounds(2.0, 1.0)
