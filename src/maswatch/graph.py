"""Directed communication topologies for leader-follower networks.

Agent 0 is the leader by convention. An edge (j, i) means agent j
transmits its state to agent i, so j is an in-neighbor of i. The
Laplacian uses the weighted in-degree on the diagonal:

    l_ii = sum_j a_ij,    l_ij = -a_ij  (j != i)

The grounded Laplacian L2 is the follower block obtained by deleting
the leader row and column. Its smallest eigenvalue parameterizes the
decay envelope used by the residual detector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

LEADER = 0


@dataclass(frozen=True)
class LocalAttackBudget:
    """Per-agent attack budget: at most L Byzantine in-neighbors and at
    most P attacked incoming channels at any step."""

    max_byzantine_neighbors: int
    max_attacked_channels: int

    def __post_init__(self):
        if self.max_byzantine_neighbors < 0 or self.max_attacked_channels < 0:
            raise ValueError("attack budget entries must be nonnegative")


@dataclass(frozen=True)
class Topology:
    """Weighted digraph over agents 0..n_agents-1 (0 is the leader).

    edges holds (j, i) pairs in insertion order; weights[e] is the gain
    a_ij of the e-th edge. Edge order is the canonical message order
    used everywhere downstream (simulation slabs, CSV exports).
    """

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    _in: dict[int, tuple[int, ...]] = field(repr=False, compare=False, default_factory=dict)
    _out: dict[int, tuple[int, ...]] = field(repr=False, compare=False, default_factory=dict)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return self._in.get(i, ())

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return self._out.get(j, ())

    def edge_index(self, j: int, i: int) -> int:
        return self.edges.index((j, i))

    def weight(self, j: int, i: int) -> float:
        return self.weights[self.edge_index(j, i)]


def build_topology(n_agents: int, edge_list) -> Topology:
    """Validate and build a Topology.

    edge_list entries are (j, i) or (j, i, weight); weight defaults
    to 1.0. Rejects self-loops, duplicate edges, out-of-range agent
    ids and nonpositive weights.
    """
    if n_agents < 2:
        raise ValueError("need at least a leader and one follower")
    edges = []
    weights = []
    seen = set()
    for entry in edge_list:
        if len(entry) == 2:
            j, i = entry
            w = 1.0
        else:
            j, i, w = entry
        if not (0 <= j < n_agents and 0 <= i < n_agents):
            raise ValueError(f"edge ({j}, {i}) references an unknown agent")
        if j == i:
            raise ValueError(f"self-loop on agent {j} is not allowed")
        if (j, i) in seen:
            raise ValueError(f"duplicate edge ({j}, {i})")
        if w <= 0:
            raise ValueError(f"edge ({j}, {i}) has nonpositive weight {w}")
        seen.add((j, i))
        edges.append((j, i))
        weights.append(float(w))
    incoming: dict[int, list[int]] = {}
    outgoing: dict[int, list[int]] = {}
    for j, i in edges:
        incoming.setdefault(i, []).append(j)
        outgoing.setdefault(j, []).append(i)
    return Topology(
        n_agents=n_agents,
        edges=tuple(edges),
        weights=tuple(weights),
        _in={i: tuple(v) for i, v in incoming.items()},
        _out={j: tuple(v) for j, v in outgoing.items()},
    )


def laplacian(t: Topology, followers_only: bool = False) -> np.ndarray:
    """Weighted in-degree Laplacian.

    Full size (n_agents x n_agents) by default; followers_only drops
    the leader row and column (the grounded Laplacian L2).
    """
    n = t.n_agents
    lap = np.zeros((n, n))
    for (j, i), w in zip(t.edges, t.weights):
        lap[i, i] += w
        lap[i, j] -= w
    if followers_only:
        keep = [a for a in range(n) if a != LEADER]
        lap = lap[np.ix_(keep, keep)]
    return lap


def grounded_laplacian_min_eigenvalue(t: Topology, scaling: np.ndarray | None = None) -> float:
    """Smallest eigenvalue (by real part) of C @ L2.

    scaling C defaults to the identity. Directed graphs can produce
    complex eigenvalues; a nonzero imaginary part on the minimizer is
    reported through a warning and the real part is returned.
    """
    l2 = laplacian(t, followers_only=True)
    if scaling is not None:
        scaling = np.asarray(scaling, dtype=float)
        if scaling.shape != l2.shape:
            raise ValueError(f"scaling must be {l2.shape}, got {scaling.shape}")
        l2 = scaling @ l2
    eig = np.linalg.eigvals(l2)
    idx = int(np.argmin(eig.real))
    lam = eig[idx]
    if abs(lam.imag) > 1e-9 * max(1.0, abs(lam.real)):
        warnings.warn(
            f"minimum eigenvalue {lam} has a nonzero imaginary part; "
            "using its real part",
            stacklevel=2,
        )
    return float(lam.real)


def has_spanning_tree(t: Topology, root: int = LEADER) -> bool:
    """True when every agent is reachable from root along directed edges."""
    seen = {root}
    frontier = [root]
    while frontier:
        j = frontier.pop()
        for i in t.out_neighbors(j):
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return len(seen) == t.n_agents


def count_directed_two_hop_paths(t: Topology, j: int, i: int) -> int:
    """Number of distinct s with edges (j, s) and (s, i), s not in {i, j}."""
    if not (0 <= j < t.n_agents and 0 <= i < t.n_agents):
        raise ValueError(f"unknown agent in pair ({j}, {i})")
    mids = set(t.out_neighbors(j)) & set(t.in_neighbors(i))
    mids.discard(i)
    mids.discard(j)
    return len(mids)


def check_hybrid_detectability(
    t: Topology, budget: LocalAttackBudget
) -> tuple[bool, list[tuple[int, int]]]:
    """Check the two-hop redundancy condition for flag arbitration.

    Every communication edge (j, i) needs at least L + P + 1 directed
    two-hop paths from j to i so that a clean relay survives any
    admissible placement of Byzantine agents and channel attacks.
    Returns (ok, violating_edges).
    """
    need = budget.max_byzantine_neighbors + budget.max_attacked_channels + 1
    bad = [e for e in t.edges if count_directed_two_hop_paths(t, *e) < need]
    return (not bad, bad)
