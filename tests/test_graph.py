"""Topology construction, spectral helpers and the two-hop condition.

The two-hop counter is checked against a brute-force path enumeration;
the heavyweight sweep over graph families lives in the acceptance
suite, this file keeps the small exhaustive case and the error paths.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from maswatch.graph import (
    LEADER,
    LocalAttackBudget,
    Topology,
    build_topology,
    check_hybrid_detectability,
    count_directed_two_hop_paths,
    grounded_laplacian_min_eigenvalue,
    has_spanning_tree,
    laplacian,
)

PLATOON_EDGES = [
    (0, 2), (1, 2), (3, 2), (4, 2), (5, 2),
    (5, 1), (5, 3), (5, 4), (0, 1), (0, 5), (0, 6),
]


def platoon_topology() -> Topology:
    return build_topology(7, PLATOON_EDGES)


def brute_two_hop(edges: set, n: int, j: int, i: int) -> int:
    return sum(
        1 for s in range(n) if s not in (i, j) and (j, s) in edges and (s, i) in edges
    )


# --- construction -----------------------------------------------------------


def test_build_topology_neighbors_and_weights():
    t = build_topology(4, [(0, 1), (1, 2, 2.5), (0, 2), (2, 3)])
    assert t.n_agents == 4
    assert t.n_edges == 4
    assert t.in_neighbors(2) == (1, 0)
    assert t.out_neighbors(0) == (1, 2)
    assert t.in_neighbors(0) == ()
    assert t.weight(1, 2) == 2.5
    assert t.weight(0, 1) == 1.0
    assert t.edge_index(2, 3) == 3


def test_build_topology_rejects_bad_edges():
    with pytest.raises(ValueError, match="at least a leader"):
        build_topology(1, [])
    with pytest.raises(ValueError, match="self-loop"):
        build_topology(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        build_topology(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="unknown agent"):
        build_topology(3, [(0, 3)])
    with pytest.raises(ValueError, match="nonpositive weight"):
        build_topology(3, [(0, 1, 0.0)])


# --- laplacian --------------------------------------------------------------


def test_laplacian_hand_example():
    t = build_topology(3, [(0, 1), (1, 2), (0, 2)])
    lap = laplacian(t)
    assert np.array_equal(lap, [[0, 0, 0], [-1, 1, 0], [-1, -1, 2]])
    grounded = laplacian(t, followers_only=True)
    assert np.array_equal(grounded, [[1, 0], [-1, 2]])


def test_laplacian_row_sums_vanish_without_leader_edges():
    t = build_topology(4, [(1, 2), (2, 3), (3, 1)])
    assert np.allclose(laplacian(t).sum(axis=1), 0.0)


def test_grounded_min_eigenvalue_chain():
    t = build_topology(3, [(0, 1), (1, 2)])
    assert grounded_laplacian_min_eigenvalue(t) == pytest.approx(1.0)


def test_grounded_min_eigenvalue_platoon_is_one():
    # the decay envelope uses lambda_min = 1 for the preset topology
    assert grounded_laplacian_min_eigenvalue(platoon_topology()) == pytest.approx(1.0)


def test_grounded_min_eigenvalue_scaling():
    t = build_topology(3, [(0, 1), (0, 2)])
    val = grounded_laplacian_min_eigenvalue(t, scaling=np.diag([2.0, 3.0]))
    assert val == pytest.approx(2.0)
    with pytest.raises(ValueError, match="scaling must be"):
        grounded_laplacian_min_eigenvalue(t, scaling=np.eye(3))


def test_grounded_min_eigenvalue_warns_on_complex_minimizer():
    t = build_topology(3, [(0, 1), (0, 2)])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.warns(UserWarning, match="imaginary part"):
        grounded_laplacian_min_eigenvalue(t, scaling=rot)


# --- reachability -----------------------------------------------------------


def test_spanning_tree_platoon():
    assert has_spanning_tree(platoon_topology())


def test_spanning_tree_detects_unreachable_agent():
    t = build_topology(7, [e for e in PLATOON_EDGES if e != (0, 6)])
    assert not has_spanning_tree(t)
    assert has_spanning_tree(t, root=6) is False


def test_spanning_tree_alternate_root():
    t = build_topology(3, [(1, 0), (1, 2)])
    assert not has_spanning_tree(t, root=LEADER)
    assert has_spanning_tree(t, root=1)


# --- two-hop paths ----------------------------------------------------------


def test_two_hop_hand_example():
    t = platoon_topology()
    # 5 -> {1,3,4} -> 2 are the arbitration paths the preset relies on
    assert count_directed_two_hop_paths(t, 5, 2) == 3
    assert count_directed_two_hop_paths(t, 0, 2) == 2
    assert count_directed_two_hop_paths(t, 0, 6) == 0
    with pytest.raises(ValueError, match="unknown agent"):
        count_directed_two_hop_paths(t, 0, 9)


def test_two_hop_exhaustive_three_nodes():
    pairs = [(j, i) for j in range(3) for i in range(3) if j != i]
    for bits in itertools.product([0, 1], repeat=6):
        chosen = [e for e, b in zip(pairs, bits) if b]
        if not chosen:
            continue
        t = build_topology(3, chosen)
        edge_set = set(chosen)
        for j, i in pairs:
            assert count_directed_two_hop_paths(t, j, i) == brute_two_hop(edge_set, 3, j, i)


def test_two_hop_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 7))
        pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
        mask = rng.random(len(pairs)) < 0.4
        chosen = [e for e, b in zip(pairs, mask) if b]
        if not chosen:
            continue
        t = build_topology(n, chosen)
        edge_set = set(chosen)
        j, i = pairs[int(rng.integers(len(pairs)))]
        assert count_directed_two_hop_paths(t, j, i) == brute_two_hop(edge_set, n, j, i)


# --- detectability ----------------------------------------------------------


def test_hybrid_detectability_platoon_budget_1_1():
    """Only (5, 2) carries the 3 redundant paths a (1, 1) budget needs."""
    ok, bad = check_hybrid_detectability(platoon_topology(), LocalAttackBudget(1, 1))
    assert not ok
    assert (5, 2) not in bad
    assert set(bad) == set(PLATOON_EDGES) - {(5, 2)}


def test_hybrid_detectability_budget_0_0():
    ok, bad = check_hybrid_detectability(platoon_topology(), LocalAttackBudget(0, 0))
    assert not ok
    assert set(bad) == set(PLATOON_EDGES) - {(5, 2), (0, 2), (0, 1)}


def test_hybrid_detectability_satisfied_on_dense_graph():
    n = 5
    edges = [(j, i) for j in range(n) for i in range(n) if j != i]
    ok, bad = check_hybrid_detectability(build_topology(n, edges), LocalAttackBudget(1, 1))
    assert ok and bad == []


def test_attack_budget_rejects_negative():
    with pytest.raises(ValueError):
        LocalAttackBudget(-1, 0)
