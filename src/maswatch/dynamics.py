"""Agent dynamics and the leader-follower consensus controller.

Every agent runs the same discrete-time linear model

    x_i(k+1) = A x_i(k) + B u_i(k)

with scalar input. The leader (agent 0) applies pure state feedback
u_0 = K1 x_0. Followers add a consensus term built from the states
received over incoming edges:

    u_i = K1 x_i + a(k) * sum_j a_ij * K2 (y_ij - x_i)

where y_ij is the recovered neighbor state (plaintext plus channel
noise once the watermark round-trip is clean) and a(k) = mu * k^(-lam)
is a decaying gain. The decay exponent trades convergence speed
against noise rejection; values in (1/2, 1) keep the noise term
square-summable while the gain itself is not summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import LEADER, Topology

# Bytes of states eta_curve reads per block of steps.
ETA_BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class AgentModel:
    """Discrete-time pair (A, B) with scalar input, B an (n,) column."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError("B length must match A")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("A and B must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ControllerParams:
    """Feedback gains and consensus schedule.

    K1: self-feedback row vector.
    K2: neighbor-error row vector.
    gain_mu, gain_lambda: a(k) = gain_mu * k**(-gain_lambda).
    noise_var: channel noise variance sigma_1^2 per state component.
    """

    K1: np.ndarray
    K2: np.ndarray
    gain_mu: float = 1.0
    gain_lambda: float = 0.6
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "K1", np.asarray(self.K1, dtype=float).reshape(-1))
        object.__setattr__(self, "K2", np.asarray(self.K2, dtype=float).reshape(-1))
        if not (np.isfinite(self.K1).all() and np.isfinite(self.K2).all()):
            raise ValueError("K1 and K2 must be finite")
        if not 0 < self.gain_mu < math.inf:
            raise ValueError("gain_mu must be positive and finite")
        if not 0 < self.gain_lambda < 1:
            raise ValueError("gain_lambda must lie in (0, 1)")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError("noise_var must be nonnegative and finite")


@dataclass(frozen=True)
class StateBounds:
    """Componentwise state range over a nominal run, eps1 <= x_l(k) <= eps2.

    It sets the norm-splitting factor of the residual detector's
    threshold (detectors.envelope_factor), which eps2 = 0 leaves
    undefined.
    """

    eps1: float
    eps2: float

    def __post_init__(self):
        if not -math.inf < self.eps1 <= self.eps2 < math.inf:
            raise ValueError("eps1 must not exceed eps2, both finite")
        if self.eps2 == 0:
            raise ValueError("eps2 = 0 leaves the residual growth factor undefined")


def companion_model(rho) -> AgentModel:
    """Companion-form pair: superdiagonal ones, last row rho, B = e_n."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    n = rho.shape[0]
    if n < 1:
        raise ValueError("need at least one coefficient")
    a = np.zeros((n, n))
    for r in range(n - 1):
        a[r, r + 1] = 1.0
    a[n - 1, :] = rho
    b = np.zeros(n)
    b[n - 1] = 1.0
    return AgentModel(a, b)


def platoon_model(delta: float = 1.2, T: float = 1.0) -> AgentModel:
    """Vehicle model with state (position, velocity, acceleration).

    Euler discretization of p' = v, v' = a, a' = -a/delta + u/delta
    with the input folded into the gain, giving

        A = I + T * [[0,1,0],[0,0,1],[0,0,-1/delta]],  B = (0,0,1).
    """
    if not (0 < delta < math.inf and 0 < T < math.inf):
        raise ValueError("delta and T must be positive and finite")
    a = np.eye(3) + T * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / delta]])
    return AgentModel(a, np.array([0.0, 0.0, 1.0]))


def noise_gain(k: int, p: ControllerParams) -> float:
    """Decaying consensus gain a(k); the k = 0 boundary maps to a(1)."""
    if k < 0:
        raise ValueError("step must be nonnegative")
    k = max(k, 1)
    return p.gain_mu * float(k) ** (-p.gain_lambda)


def compute_control(
    i: int,
    x_i: np.ndarray,
    received: dict[int, np.ndarray],
    k: int,
    t: Topology,
    p: ControllerParams,
) -> float:
    """Scalar control for agent i at step k.

    received maps in-neighbor id to the recovered state vector. The
    leader ignores neighbors; followers need a message from every
    in-neighbor.
    """
    x_i = np.asarray(x_i, dtype=float)
    u = float(p.K1 @ x_i)
    if i == LEADER:
        return u
    acc = 0.0
    for j in t.in_neighbors(i):
        if j not in received:
            raise ValueError(f"agent {i} is missing the message from in-neighbor {j}")
        acc += t.weight(j, i) * float(p.K2 @ (np.asarray(received[j], dtype=float) - x_i))
    return u + noise_gain(k, p) * acc


def step_system(states: np.ndarray, controls: np.ndarray, model: AgentModel) -> np.ndarray:
    """Advance every agent one step under its scalar control.

    states is (n_agents, n) with row i agent i's state; returns the
    next (n_agents, n) array.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float).reshape(-1)
    if controls.shape[0] != states.shape[0]:
        raise ValueError("one control per agent required")
    return states @ model.A.T + np.outer(controls, model.B)


def transient_metric(trajectories: np.ndarray, k: int) -> float:
    """Worst-agent mean relative tracking error at step k.

        eta(k) = max_i mean_trials ||x_i(k) - x_0(k)|| / ||x_0(k)||

    trajectories has shape (trials, steps+1, n_agents, n). Returns NaN
    when the leader norm vanishes in any trial at step k; such steps are
    undefined and excluded from threshold searches.
    """
    trajectories = np.asarray(trajectories, dtype=float)
    if trajectories.ndim != 4:
        raise ValueError("trajectories must be (trials, steps+1, agents, n)")
    snap = trajectories[:, k, :, :]
    leader = snap[:, LEADER, :]
    leader_norm = np.linalg.norm(leader, axis=1)
    if np.any(leader_norm == 0.0):
        return math.nan
    rel = np.linalg.norm(snap - leader[:, None, :], axis=2) / leader_norm[:, None]
    per_agent = rel.mean(axis=0)
    return float(per_agent[[a for a in range(snap.shape[1]) if a != LEADER]].max())


def eta_curve(trajectories: np.ndarray) -> np.ndarray:
    """transient_metric evaluated at every recorded step.

    The steps are taken in blocks of about ETA_BLOCK_BYTES of states, so
    the temporaries stay bounded while the per-step overhead is paid
    once per block. Every reduction keeps transient_metric's axes and
    order (norms over components, means over trials row by row), so each
    step's value is the same bits.
    """
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 4:
        raise ValueError("trajectories must be (trials, steps+1, agents, n)")
    trials, steps, agents, n = traj.shape
    followers = np.arange(agents) != LEADER
    block = max(1, ETA_BLOCK_BYTES // max(1, 8 * trials * agents * n))
    eta = np.empty(steps)
    for k0 in range(0, steps, block):
        snap = traj[:, k0 : k0 + block]  # (trials, block, agents, n)
        leader = snap[:, :, LEADER]
        leader_norm = np.linalg.norm(leader, axis=-1)  # (trials, block)
        vanish = leader_norm == 0.0
        # A step whose leader norm vanishes is NaN; dividing by 1 there
        # keeps the division free of warnings.
        rel = np.linalg.norm(snap - leader[:, :, None], axis=-1) / np.where(vanish, 1.0, leader_norm)[..., None]
        per_agent = rel.mean(axis=0)  # (block, agents)
        eta[k0 : k0 + block] = np.where(vanish.any(axis=0), math.nan, per_agent[:, followers].max(axis=1))
    return eta


def settling_step(eta: np.ndarray, varsigma: float) -> int | None:
    """First step after which eta stays below varsigma (NaN steps skipped)."""
    eta = np.asarray(eta, dtype=float)
    nan = np.isnan(eta)
    # settled[k]: eta is a number at k and below varsigma (or NaN) from k on.
    settled = np.logical_and.accumulate(((eta < varsigma) | nan)[::-1])[::-1] & ~nan
    return int(settled.argmax()) if settled.any() else None


def compute_state_bounds(trajectories: np.ndarray) -> StateBounds:
    """Componentwise min and max over agents, steps, trials of a run."""
    arr = np.asarray(trajectories, dtype=float)
    return StateBounds(eps1=float(arr.min()), eps2=float(arr.max()))
