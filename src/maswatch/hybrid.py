"""Two-bit flag protocol separating channel attacks from Byzantine agents.

Each agent i keeps a flag pair phi_ij = (phi1, phi2) about every
in-neighbor j, recomputed each step from its two local detectors:

    (0, 0)  channel clean, residual inside the envelope
    (0, 1)  channel clean, residual outside: j's data itself is bad
    (1, 2)  channel attack on (j, i): j's honesty is unobservable
    (2, 2)  initial value, nothing evaluated yet

A (1, 2) edge is arbitrated through a trusted relay: an in-neighbor
jhat of i that also hears j, whose own edge to i is fully clean
(phi_i,jhat = (0, 0)) and whose channel from j is clean
(phi_jhat,j has phi1 = 0). jhat's second bit about j then tells i
whether j is also Byzantine (hybrid) or only the channel is under
attack. Flag transport itself is assumed reliable and untampered.

run_protocol_step takes one step's detector alarms as (E,) boolean
vectors in the topology's edge order and returns the (E, 2) flag
array and the classifications in that order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Topology


class FlagPair(NamedTuple):
    phi1: int
    phi2: int


INITIAL_FLAG = FlagPair(2, 2)

FLAG_VALUES = (0, 1, 2)


class Classification(enum.Enum):
    NORMAL = "normal"
    BYZANTINE_ONLY = "byzantine_only"
    CHANNEL_ONLY = "channel_only"
    HYBRID = "hybrid"
    UNDECIDABLE = "undecidable"


@dataclass
class FlagBoard:
    """All flag pairs at one step; keys are (observer, observed)."""

    step: int
    flags: dict[tuple[int, int], FlagPair] = field(default_factory=dict)

    def get(self, i: int, j: int) -> FlagPair:
        return self.flags.get((i, j), INITIAL_FLAG)


def local_detect(channel_attacked: bool, envelope_attacked: bool) -> FlagPair:
    """Flag pair from one step's detector alarms on one edge.

    A channel alarm hides the residual information (the recovered
    values are meaningless), hence the unknown second bit. Before the
    residual detector has a reference, its side raises no alarm and
    counts as clean.
    """
    if channel_attacked:
        return FlagPair(1, 2)
    if envelope_attacked:
        return FlagPair(0, 1)
    return FlagPair(0, 0)


def select_trusted(i: int, j: int, board: FlagBoard, t: Topology) -> int | None:
    """Trusted relay for arbitrating i's flagged edge from j.

    Candidates are in-neighbors jhat of i, distinct from j, that also
    receive from j, with phi_i,jhat = (0, 0) and a clean channel bit in
    phi_jhat,j. The smallest index wins, deterministically.
    """
    for jhat in sorted(t.in_neighbors(i)):
        if jhat == j:
            continue
        if j not in t.in_neighbors(jhat):
            continue
        if board.get(i, jhat) != FlagPair(0, 0):
            continue
        if board.get(jhat, j).phi1 != 0:
            continue
        return jhat
    return None


def classify(own: FlagPair, trusted: FlagPair | None) -> Classification:
    """Final per-edge classification from own and (optional) relayed flags.

    Total over every flag combination: malformed or uninitialized
    input degrades to UNDECIDABLE rather than raising, because a live
    protocol step can always be asked about an edge it has not
    resolved yet.
    """
    if own == FlagPair(0, 0):
        return Classification.NORMAL
    if own == FlagPair(0, 1):
        return Classification.BYZANTINE_ONLY
    if own == FlagPair(1, 2):
        if trusted == FlagPair(0, 0):
            return Classification.CHANNEL_ONLY
        if trusted == FlagPair(0, 1):
            return Classification.HYBRID
        return Classification.UNDECIDABLE
    return Classification.UNDECIDABLE


def run_protocol_step(
    k: int,
    channel_attacked,
    envelope_attacked,
    t: Topology,
) -> tuple[np.ndarray, list[Classification]]:
    """One synchronous round: detect, broadcast, arbitrate.

    channel_attacked and envelope_attacked are (E,) booleans in edge
    order: the KL alarm and the alarm of either envelope copy. Returns
    the (E, 2) flag pairs phi_ij of every edge (j, i) and the edge
    classifications, both in edge order.
    """
    board = FlagBoard(step=k)
    for (j, i), chan, env in zip(t.edges, channel_attacked, envelope_attacked, strict=True):
        board.flags[(i, j)] = local_detect(bool(chan), bool(env))
    labels = []
    for j, i in t.edges:
        own = board.get(i, j)
        relayed = None
        if own == FlagPair(1, 2):
            jhat = select_trusted(i, j, board, t)
            if jhat is not None:
                relayed = board.get(jhat, j)
        labels.append(classify(own, relayed))
    flags = np.array([board.get(i, j) for j, i in t.edges], dtype=np.int64).reshape(-1, 2)
    return flags, labels
