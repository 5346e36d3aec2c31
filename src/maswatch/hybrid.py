"""Two-bit flag protocol separating channel attacks from Byzantine agents.

Each agent i keeps a flag pair phi_ij = (phi1, phi2) about every
in-neighbor j, recomputed each step from its two local detectors:

    (0, 0)  channel clean, residual inside the envelope
    (0, 1)  channel clean, residual outside: j's data itself is bad
    (1, 2)  channel attack on (j, i): j's honesty is unobservable

A channel alarm hides the residual (the recovered values are
meaningless), hence the unknown second bit. Before the residual
detector has a reference, its side raises no alarm and counts as clean.

A (1, 2) edge is arbitrated through a trusted relay: an agent jhat on
a two-hop path j -> jhat -> i (graph.two_hop_relays) whose own edge to
i is fully clean (phi_i,jhat = (0, 0)) and whose channel from j is
clean (phi_jhat,j has phi1 = 0). The first such relay in sorted order
wins, and its second bit about j tells i whether j is also Byzantine
(hybrid) or only the channel is under attack. Flag transport itself is
assumed reliable and untampered.

run_protocol_step does one step for every edge at once. The flags are
an (E, 2) table in the topology's edge order, flags[e] = phi_ij of edge
e = (j, i), and the relay lookups index it through the topology's
padded relay_si / relay_js tables. select_trusted and classify are the
per-edge reference of the same rules.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .graph import Topology, two_hop_relays


class FlagPair(NamedTuple):
    phi1: int
    phi2: int


class Classification(enum.Enum):
    NORMAL = "normal"
    BYZANTINE_ONLY = "byzantine_only"
    CHANNEL_ONLY = "channel_only"
    HYBRID = "hybrid"
    UNDECIDABLE = "undecidable"


# Flag pair by own code: 0 clean, 1 envelope alarm, 2 channel alarm.
_FLAGS = np.array([(0, 0), (0, 1), (1, 2)], dtype=np.int64)

# Label by (own code, relay code); relay code 0 means no trusted relay,
# 1 a relay with j inside its envelope and 2 one with j outside.
_LABELS = np.array(
    [
        [Classification.NORMAL] * 3,
        [Classification.BYZANTINE_ONLY] * 3,
        [Classification.UNDECIDABLE, Classification.CHANNEL_ONLY, Classification.HYBRID],
    ],
    dtype=object,
)


def select_trusted(i: int, j: int, flags: np.ndarray, t: Topology) -> int | None:
    """Trusted relay for arbitrating i's flagged edge from j.

    flags is the (E, 2) flag table of one step in edge order. The first
    two-hop relay jhat with phi_i,jhat = (0, 0) and a clean channel bit
    in phi_jhat,j wins, deterministically.
    """
    for jhat in two_hop_relays(t, j, i):
        if tuple(flags[t.edge_index(jhat, i)]) != (0, 0):
            continue
        if flags[t.edge_index(j, jhat), 0] != 0:
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


def run_protocol_step(channel_attacked, envelope_attacked, t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous round of one step: detect, broadcast, arbitrate.

    channel_attacked and envelope_attacked are (E,) booleans in edge
    order: the KL alarm and the alarm of either envelope copy. Returns
    the (E, 2) int64 flag pairs phi_ij of every edge (j, i) and the
    (E,) object array of its classifications, both in edge order.
    """
    chan = np.asarray(channel_attacked, dtype=bool)
    env = np.asarray(envelope_attacked, dtype=bool)
    own = np.where(chan, 2, env)
    # A trailing False answers the -1 padding of the relay tables.
    clean = np.append(own == 0, False)
    chan_clean = np.append(~chan, False)
    ok = clean[t.relay_si] & chan_clean[t.relay_js]
    relay_js = t.relay_js[np.arange(t.n_edges), ok.argmax(axis=1)]
    relay = np.where(ok.any(axis=1), 1 + env[relay_js], 0)
    return _FLAGS[own], _LABELS[own, relay]
