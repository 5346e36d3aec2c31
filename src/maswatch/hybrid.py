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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from .detectors import EdgeVerdict
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

    @classmethod
    def initial(cls, t: Topology) -> "FlagBoard":
        return cls(step=0, flags={(i, j): INITIAL_FLAG for (j, i) in t.edges})

    def get(self, i: int, j: int) -> FlagPair:
        return self.flags.get((i, j), INITIAL_FLAG)


def local_detect(
    channel: EdgeVerdict,
    envelope_pair: tuple[EdgeVerdict, EdgeVerdict] | None,
) -> FlagPair:
    """Flag pair from one step's detector output on one edge.

    A channel alarm hides the residual information (the recovered
    values are meaningless), hence the unknown second bit. Before the
    residual detector has a reference (first step), the envelope side
    counts as clean.
    """
    if channel.attacked:
        return FlagPair(1, 2)
    if envelope_pair is not None and any(v.attacked for v in envelope_pair):
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
    channel_verdicts: dict[tuple[int, int], EdgeVerdict],
    envelope_verdicts: dict[tuple[int, int], tuple[EdgeVerdict, EdgeVerdict]],
    t: Topology,
) -> tuple[FlagBoard, dict[tuple[int, int], Classification]]:
    """One synchronous round: detect, broadcast, arbitrate.

    channel_verdicts and envelope_verdicts are keyed by edge (j, i);
    an edge missing from envelope_verdicts counts as not yet testable.
    Returns the fresh flag board (keyed (i, j)) and the classification
    of every edge.
    """
    board = FlagBoard(step=k)
    for j, i in t.edges:
        board.flags[(i, j)] = local_detect(
            channel_verdicts[(j, i)], envelope_verdicts.get((j, i))
        )
    labels: dict[tuple[int, int], Classification] = {}
    for j, i in t.edges:
        own = board.get(i, j)
        relayed = None
        if own == FlagPair(1, 2):
            jhat = select_trusted(i, j, board, t)
            if jhat is not None:
                relayed = board.get(jhat, j)
        labels[(j, i)] = classify(own, relayed)
    return board, labels
