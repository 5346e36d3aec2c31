"""Directed communication topologies for leader-follower networks.

Agent 0 is the leader by convention. An edge (j, i) means agent j
transmits its state to agent i, so j is an in-neighbor of i. The
Laplacian uses the weighted in-degree on the diagonal:

    l_ii = sum_j a_ij,    l_ij = -a_ij  (j != i)

The grounded Laplacian L2 is the Laplacian without the leader's row
and column, laplacian(t)[1:, 1:]. Its smallest eigenvalue
parameterizes the decay envelope used by the residual detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, real, sequence, vector

LEADER = 0


@dataclass(frozen=True)
class LocalAttackBudget:
    """Per-agent attack budget: at most L Byzantine in-neighbors and at
    most P attacked incoming channels at any step. The scenario document
    (attacks.budget) and check-graph (--L / --P) name them the same way."""

    L: int = 1
    P: int = 1

    def __post_init__(self):
        for key in ("L", "P"):
            object.__setattr__(self, key, integer(getattr(self, key), key, 0))


@dataclass(frozen=True)
class Topology:
    """Weighted digraph over agents 0..n_agents-1 (0 is the leader).

    edges holds (j, i) pairs in insertion order; weights[e] is the gain
    a_ij of the e-th edge. Edge order is the canonical message order
    used everywhere downstream (simulation slabs, CSV exports).

    A Topology is valid by construction: __post_init__ raises ValueError
    for an agent count that is not an integer of at least 2 or exceeds an
    intp, edges that are not a list or tuple, an edge that is not a
    pair, an id that is not an integer of a known agent, a self-loop, a
    duplicate edge, weights that are not a vector of positive reals, or
    a weight count other than the edge count. It then derives the
    read-only tables below, so one built through dataclasses.replace
    derives them again.

    src and dst are (E,) intp arrays of each edge's sender j and
    receiver i; in_neighbors and out_neighbors read them in edge order.
    relay_si and relay_js are (E, C) edge indices over the relays s of
    each edge (j, i), in two_hop_relays order: row e holds the index of
    (s, i) and of (j, s) for every relay of edge e, padded with -1 to
    the widest row (C is at least 1).
    """

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    relay_si: np.ndarray = field(init=False, repr=False, compare=False)
    relay_js: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = integer(self.n_agents, "n_agents", 2)
        if n > np.iinfo(np.intp).max:  # the src / dst arrays hold agent ids
            raise ValueError(f"{n} agents exceed numpy's index range")
        edges = tuple(
            tuple(integer(v, f"edges[{e}]", 0) for v in sequence(pair, f"edges[{e}]", (2,)))
            for e, pair in enumerate(sequence(self.edges, "edges"))
        )
        weights = tuple(vector(self.weights, "weights", 0))
        if len(weights) != len(edges):
            raise ValueError(f"{len(weights)} weights for {len(edges)} edges")
        seen = set()
        for j, i in edges:
            if not (j < n and i < n):
                raise ValueError(f"edge ({j}, {i}) references an unknown agent")
            if j == i:
                raise ValueError(f"self-loop on agent {j} is not allowed")
            if (j, i) in seen:
                raise ValueError(f"duplicate edge ({j}, {i})")
            seen.add((j, i))
        ends = np.array(edges, dtype=np.intp).reshape(-1, 2).T.copy()
        ends.flags.writeable = False
        for name, value in (("n_agents", n), ("edges", edges), ("weights", weights), ("src", ends[0]), ("dst", ends[1])):
            object.__setattr__(self, name, value)
        index = {e: k for k, e in enumerate(edges)}
        relays = [two_hop_relays(self, j, i) for j, i in edges]
        width = max(1, max(map(len, relays), default=0))
        relay_si = np.full((len(edges), width), -1, dtype=np.intp)
        relay_js = relay_si.copy()
        for e, ((j, i), mids) in enumerate(zip(edges, relays)):
            relay_si[e, : len(mids)] = [index[s, i] for s in mids]
            relay_js[e, : len(mids)] = [index[j, s] for s in mids]
        relay_si.flags.writeable = relay_js.flags.writeable = False
        object.__setattr__(self, "relay_si", relay_si)
        object.__setattr__(self, "relay_js", relay_js)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(self.src[self.dst == i].tolist())

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return tuple(self.dst[self.src == j].tolist())

    def edge_index(self, j: int, i: int) -> int:
        return self.edges.index((j, i))

    def weight(self, j: int, i: int) -> float:
        return self.weights[self.edge_index(j, i)]


def build_topology(n_agents: int, edges) -> Topology:
    """A Topology from (j, i) or (j, i, weight) entries; weight
    defaults to 1.0. Each weight is checked at its entry, as
    edges[k][2]; Topology itself checks the rest."""
    rows = [sequence(e, f"edges[{k}]", (2, 3)) for k, e in enumerate(sequence(edges, "edges"))]
    weights = tuple(real(row[2], f"edges[{k}][2]", 0) if row[2:] else 1.0 for k, row in enumerate(rows))
    return Topology(n_agents, tuple(row[:2] for row in rows), weights)


def laplacian(t: Topology) -> np.ndarray:
    """Weighted in-degree Laplacian, n_agents x n_agents."""
    n = t.n_agents
    lap = np.zeros((n, n))
    for (j, i), w in zip(t.edges, t.weights):
        lap[i, i] += w
        lap[i, j] -= w
    return lap


def grounded_laplacian_min_eigenvalue(t: Topology) -> float:
    """Smallest real part over the eigenvalues of L2.

    L2 has no positive entry off its diagonal, so by Perron-Frobenius
    the eigenvalue of least real part is real, also on a directed graph;
    computed, a double one may pick up a round-off imaginary part.
    """
    return float(np.linalg.eigvals(laplacian(t)[1:, 1:]).real.min())


def has_spanning_tree(t: Topology) -> bool:
    """True when every agent is reachable from the leader along directed edges."""
    seen = {LEADER}
    frontier = [LEADER]
    while frontier:
        j = frontier.pop()
        for i in t.out_neighbors(j):
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return len(seen) == t.n_agents


def two_hop_relays(t: Topology, j: int, i: int) -> tuple[int, ...]:
    """Sorted agents s not in {i, j} with edges (j, s) and (s, i).

    These are the relays that can arbitrate the edge (j, i).
    """
    if not (0 <= j < t.n_agents and 0 <= i < t.n_agents):
        raise ValueError(f"unknown agent in pair ({j}, {i})")
    return tuple(sorted(set(t.out_neighbors(j)) & set(t.in_neighbors(i)) - {i, j}))


def check_hybrid_detectability(t: Topology, budget: LocalAttackBudget) -> tuple[int, list[tuple[int, int]]]:
    """Count the two-hop paths the flag arbitration draws relays from.

    The condition asks every communication edge (j, i) for at least
    L + P + 1 directed two-hop paths j -> h -> i, and this counts paths
    only. It does not show that a clean relay survives every admissible
    placement: a relay h also needs (j, h) clean, which the budget
    charges to h, not to i. On the platoon graph with budget (1, 1),
    tampering (5, 2), (5, 1), (5, 3) and (5, 4) is admissible and cuts
    all three paths of (5, 2). Returns (need, short_edges): the path
    count L + P + 1 and the edges with fewer paths; the condition holds
    when short_edges is empty.
    """
    need = budget.L + budget.P + 1
    return need, [e for e in t.edges if len(two_hop_relays(t, *e)) < need]
