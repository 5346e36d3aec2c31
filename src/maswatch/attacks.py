"""Channel tampering and Byzantine agent behaviors.

A channel attack rewrites both transmitted copies on one edge inside
its step window:

    ybar_r -> Xi_r(k) * ybar_r + Lam_r(k)   componentwise

with schedules Xi, Lam drawn from small named templates. A Byzantine
agent instead lies at the source: it watermarks honestly but feeds a
corrupted state into its outgoing messages, so the watermark
round-trip stays clean and only the residual detector can see it.

activity() is the one source of attack ground truth: (K, E) masks of
the steps at which each edge's channel is tampered with and its sender
is Byzantine. The simulation engine and the run summary both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, real, sequence, vector
from .graph import LocalAttackBudget, Topology

SCHEDULE_KINDS = ("sin", "const", "ramp")

BYZANTINE_KINDS = (
    "constant_offset",
    "divergent_ramp",
    "frozen_state",
    "per_neighbor_random",
)


@dataclass(frozen=True)
class Schedule:
    """Componentwise time profile c_l * g(k).

    kind selects g: "sin" -> sin(k), "const" -> 1, "ramp" -> k.
    coeffs is the per-component vector c.
    """

    kind: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}")
        object.__setattr__(self, "coeffs", tuple(vector(self.coeffs, "coeffs")))

    def eval(self, k) -> np.ndarray:
        """c * g(k): (n,) for one step, (S, n) for an array of S steps."""
        c = np.array(self.coeffs)
        steps = np.asarray(k, dtype=float)
        if self.kind == "sin":
            # math.sin per step rather than np.sin: numpy's vectorised sin
            # may round differently in the last bit on some platforms.
            g = np.array([math.sin(step) for step in steps.ravel()]).reshape(steps.shape)
        elif self.kind == "ramp":
            g = steps
        else:
            g = np.ones(steps.shape)
        return g[..., None] * c


def window_rows(window, horizon: int) -> slice:
    """Rows (index k-1) of the steps 1..horizon inside [start, stop)."""
    start, stop = window
    return slice(start - 1, horizon if stop is None else min(stop - 1, horizon))


def _window(window) -> tuple[int, int | None]:
    """window as integers (start, stop), stop None or after start >= 1."""
    start, stop = sequence(window, "window", (2,))
    start = integer(start, "window start", 1)
    return start, None if stop is None else integer(stop, "window stop", start + 1)


@dataclass(frozen=True)
class ChannelAttack:
    """Man-in-the-middle rewrite of one edge's message set.

    window is [start, stop) in steps; stop None means until the end of
    the run. xi1/lam1 act on the first copy, xi2/lam2 on the second.
    """

    edge: tuple[int, int]
    window: tuple[int, int | None]
    xi1: Schedule
    lam1: Schedule
    xi2: Schedule
    lam2: Schedule

    def __post_init__(self):
        edge = sequence(self.edge, "edge", (2,))
        object.__setattr__(self, "edge", tuple(integer(v, f"edge[{k}]", 0) for k, v in enumerate(edge)))
        object.__setattr__(self, "window", _window(self.window))

    def active(self, k: int) -> bool:
        start, stop = self.window
        return k >= start and (stop is None or k < stop)


@dataclass(frozen=True)
class ByzantineBehavior:
    """Corruption of an agent's outgoing plaintext inside a window.

    kind:
      constant_offset     emit x + offset
      divergent_ramp      emit x + offset * k
      frozen_state        emit snapshot start-1 of the agent's state,
                          the one its message at step start carries
      per_neighbor_random emit x + scale * z, z fresh per edge and step

    Every behavior acts only inside its own window: a frozen_state
    window freezes its own snapshot and a per_neighbor_random window
    draws at its own scale, whatever behavior of the same agent came
    just before it.
    """

    agent: int
    window: tuple[int, int | None]
    kind: str
    offset: tuple[float, ...] = ()
    scale: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "agent", integer(self.agent, "agent", 0))
        object.__setattr__(self, "window", _window(self.window))
        object.__setattr__(self, "offset", tuple(vector(self.offset, "offset")))
        object.__setattr__(self, "scale", real(self.scale, "scale"))
        if self.kind not in BYZANTINE_KINDS:
            raise ValueError(f"unknown byzantine kind {self.kind!r}, expected one of {BYZANTINE_KINDS}")
        if self.kind in ("constant_offset", "divergent_ramp") and not self.offset:
            raise ValueError(f"{self.kind} needs an offset vector")
        if self.kind == "per_neighbor_random" and self.scale <= 0:
            raise ValueError("per_neighbor_random needs a positive scale")

    def active(self, k: int) -> bool:
        start, stop = self.window
        return k >= start and (stop is None or k < stop)


@dataclass(frozen=True)
class AttackScenario:
    """All attacks of one run plus the per-agent budget they must respect."""

    channel: tuple[ChannelAttack, ...] = ()
    byzantine: tuple[ByzantineBehavior, ...] = ()
    budget: LocalAttackBudget = field(default_factory=LocalAttackBudget)

    def __post_init__(self):
        object.__setattr__(self, "channel", tuple(self.channel))
        object.__setattr__(self, "byzantine", tuple(self.byzantine))


def tamper_channel(y: np.ndarray, a: ChannelAttack, k: int) -> np.ndarray:
    """Apply the attack to one (2, n) pair of copies, copy r in row r-1;
    unchanged outside the window."""
    if not a.active(k):
        return y
    xi = np.stack([a.xi1.eval(k), a.xi2.eval(k)])
    lam = np.stack([a.lam1.eval(k), a.lam2.eval(k)])
    return xi * y + lam


def byzantine_emit(
    bz: ByzantineBehavior,
    k: int,
    true_state: np.ndarray,
    frozen_state: np.ndarray | None = None,
    draw: np.ndarray | None = None,
) -> np.ndarray:
    """State the Byzantine agent feeds into one outgoing message at step k.

    frozen_state is the agent's snapshot start-1 of this behavior's own
    window, which a frozen_state behavior sends at every step of it.
    draw is the step's standard-normal row for the edge, row k-1 of its
    STREAM_BYZANTINE stream; every step has one, whether or not the
    behavior is active, and a per_neighbor_random behavior scales it by
    its own scale.
    """
    x = np.asarray(true_state, dtype=float)
    if not bz.active(k):
        return x
    if bz.kind == "constant_offset":
        return x + np.array(bz.offset)
    if bz.kind == "divergent_ramp":
        return x + np.array(bz.offset) * float(k)
    if bz.kind == "frozen_state":
        if frozen_state is None:
            raise ValueError("frozen_state kind needs the captured state")
        return np.asarray(frozen_state, dtype=float)
    if draw is None:
        raise ValueError("per_neighbor_random kind needs the step's draw")
    return x + bz.scale * np.asarray(draw, dtype=float)


def activity(s: AttackScenario, t: Topology, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth over steps 1..horizon (row k-1) and edges.

    Returns two (K, E) bool masks: the channel of edge (j, i) is
    tampered with, and its sender j is Byzantine.
    """
    chan = np.zeros((horizon, t.n_edges), dtype=bool)
    byz = np.zeros_like(chan)
    for a in s.channel:
        chan[window_rows(a.window, horizon), t.edge_index(*a.edge)] = True
    for bz in s.byzantine:
        byz[window_rows(bz.window, horizon), t.src == bz.agent] = True
    return chan, byz


def _first_overlap(a, b, horizon: int) -> int | None:
    """First step in 1..horizon at which both windows are active."""
    (sa, ea), (sb, eb) = a.window, b.window
    first = max(sa, sb)
    stop = min([horizon + 1] + [e for e in (ea, eb) if e is not None])
    return first if first < stop else None


def validate_attacks(
    s: AttackScenario, t: Topology, horizon: int
) -> tuple[int, int] | None:
    """Structural and budget validation of an attack scenario.

    Raises on malformed scenarios (unknown edge or agent, two channel
    attacks sharing an edge and a step, two behaviors sharing an agent
    and a step). Then checks the per-agent budget: an agent may face at
    most L Byzantine in-neighbors and at most P attacked incoming
    channels. Returns the first offending (agent, step), or None when
    the budget holds.

    The cost grows with neither the horizon nor the agent count.
    Overlaps come from the windows in closed form. The budget is
    checked at step 1 and at each window start: between those steps the
    active set only loses attacks, so no count can rise and the first
    offending step is always one of them. At each such step only the
    receivers of attacked edges and the out-neighbors of Byzantine
    agents can exceed a budget; every other agent counts zero.
    """
    for a in s.channel:
        if a.edge not in t.edges:
            raise ValueError(f"channel attack targets unknown edge {a.edge}")
    for bz in s.byzantine:
        if not 0 <= bz.agent < t.n_agents:
            raise ValueError(f"byzantine behavior targets unknown agent {bz.agent}")
    for idx, a in enumerate(s.channel):
        for b in s.channel[idx + 1 :]:
            k = _first_overlap(a, b, horizon) if a.edge == b.edge else None
            if k is not None:
                raise ValueError(f"two channel attacks overlap on edge {a.edge} at step {k}")
    for idx, a in enumerate(s.byzantine):
        for b in s.byzantine[idx + 1 :]:
            k = _first_overlap(a, b, horizon) if a.agent == b.agent else None
            if k is not None:
                raise ValueError(f"two byzantine behaviors overlap on agent {a.agent} at step {k}")
    starts = {1} | {x.window[0] for x in (*s.channel, *s.byzantine)}
    for k in sorted(k for k in starts if k <= horizon):
        chan_k = [a for a in s.channel if a.active(k)]
        byz_agents = {b.agent for b in s.byzantine if b.active(k)}
        exposed = {a.edge[1] for a in chan_k} | {i for j in byz_agents for i in t.out_neighbors(j)}
        for i in sorted(exposed):
            n_byz = sum(1 for j in t.in_neighbors(i) if j in byz_agents)
            if n_byz > s.budget.L:
                return (i, k)
            n_chan = sum(1 for a in chan_k if a.edge[1] == i)
            if n_chan > s.budget.P:
                return (i, k)
    return None
