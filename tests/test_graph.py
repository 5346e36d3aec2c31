"""Topology construction, spectral helpers and the two-hop condition.

The two-hop counter is checked against a brute-force path enumeration;
the heavyweight sweep over graph families lives in the acceptance
suite, this file keeps the small exhaustive case and the error paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch.graph import (
    LocalAttackBudget,
    Topology,
    build_topology,
    check_hybrid_detectability,
    grounded_laplacian_min_eigenvalue,
    has_spanning_tree,
    laplacian,
    two_hop_relays,
)
from maswatch.harness import platoon_preset

PLATOON_EDGES = [
    (0, 2), (1, 2), (3, 2), (4, 2), (5, 2),
    (5, 1), (5, 3), (5, 4), (0, 1), (0, 5), (0, 6),
]


def platoon_topology() -> Topology:
    return build_topology(7, PLATOON_EDGES)


def brute_two_hop(edges: set, n: int, j: int, i: int) -> tuple[int, ...]:
    return tuple(s for s in range(n) if s not in (i, j) and (j, s) in edges and (s, i) in edges)


# --- construction -----------------------------------------------------------


def test_build_topology_neighbors_and_weights():
    t = build_topology(4, [(0, 1), (1, 2, 2.5), (0, 2), (2, 3)])
    assert t.n_agents == 4
    assert t.n_edges == 4
    assert t.in_neighbors(2) == (1, 0)
    assert t.out_neighbors(0) == (1, 2)
    assert t.in_neighbors(0) == ()
    assert t.out_neighbors(3) == () and t.in_neighbors(9) == ()
    for a in range(t.n_agents):  # edge order, as the senders and receivers appear
        assert t.in_neighbors(a) == tuple(j for j, i in t.edges if i == a)
        assert t.out_neighbors(a) == tuple(i for j, i in t.edges if j == a)
    assert all(type(j) is int for j in t.in_neighbors(2) + t.out_neighbors(0))
    assert t.src.tolist() == [j for j, _ in t.edges] and t.dst.tolist() == [i for _, i in t.edges]
    assert t.src.dtype == t.dst.dtype == np.intp
    for ends in (t.src, t.dst):
        with pytest.raises(ValueError, match="read-only"):
            ends[0] = 3
    assert t.weight(1, 2) == 2.5
    assert t.weight(0, 1) == 1.0
    assert t.edge_index(2, 3) == 3


def test_build_topology_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"^n_agents must be an integer of at least 2, got 1$"):
        build_topology(1, [])
    with pytest.raises(ValueError, match="self-loop"):
        build_topology(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        build_topology(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="unknown agent"):
        build_topology(3, [(0, 3)])
    # an id beyond intp would not fit the src / dst arrays
    with pytest.raises(ValueError, match="index range"):
        build_topology(2**70, [(0, 1), (2**65, 0)])
    # a weight is refused at its row, a Topology's at its weights entry
    for w, rule in ((0.0, r"lie in \(0, inf\)"), (math.inf, "be a finite real number"), (-1, r"lie in \(0, inf\)")):
        with pytest.raises(ValueError, match=rf"^edges\[1\]\[2\] must {rule}, got {w}$"):
            build_topology(3, [(0, 1), (0, 2, w)])
        with pytest.raises(ValueError, match=rf"^weights\[1\] must {rule}, got {w}$"):
            Topology(3, ((0, 1), (0, 2)), (1.0, w))


def test_a_topology_built_through_replace_checks_and_derives_its_tables_again():
    t = platoon_preset().topology
    cut = replace(t, edges=t.edges[:5], weights=t.weights[:5])
    want = build_topology(t.n_agents, [(j, i, w) for (j, i), w in zip(t.edges[:5], t.weights[:5])])
    assert len(cut.src) == cut.n_edges == 5
    for name in ("src", "dst", "relay_si", "relay_js"):
        assert np.array_equal(getattr(cut, name), getattr(want, name)), name
    for edges, weights, match in (
        (t.edges, (-1.0,) + t.weights[1:], r"^weights\[0\] must lie in \(0, inf\), got -1\.0$"),
        (t.edges, (0.0,) + t.weights[1:], r"^weights\[0\] must lie in \(0, inf\), got 0\.0$"),
        (t.edges, (math.nan,) + t.weights[1:], r"^weights\[0\] must be a finite real number, got nan$"),
        (t.edges, (math.inf,) + t.weights[1:], r"^weights\[0\] must be a finite real number, got inf$"),
        (((1, 1),) + t.edges[1:], t.weights, "self-loop"),
        (t.edges + t.edges[:1], t.weights + t.weights[:1], "duplicate"),
        (((0, 7),) + t.edges[1:], t.weights, "unknown agent"),
        (t.edges, t.weights[1:], "10 weights for 11 edges"),
    ):
        with pytest.raises(ValueError, match=match):
            replace(t, edges=edges, weights=weights)
    with pytest.raises(ValueError, match=r"^n_agents must be an integer of at least 2, got 1$"):
        replace(t, n_agents=1, edges=(), weights=())


# --- laplacian --------------------------------------------------------------


def test_laplacian_hand_example():
    t = build_topology(3, [(0, 1), (1, 2), (0, 2)])
    lap = laplacian(t)
    assert np.array_equal(lap, [[0, 0, 0], [-1, 1, 0], [-1, -1, 2]])
    grounded = laplacian(t)[1:, 1:]
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


def _assert_min_eigenvalue_is_real(t: Topology) -> None:
    """L2 has no positive entry off its diagonal, so by Perron-Frobenius
    its eigenvalue of least real part is real. Computed, a double
    eigenvalue of a defective L2 may split into a pair about sqrt(eps)
    off the real axis; 1e-6 allows that rounding and nothing more."""
    eig = np.linalg.eigvals(laplacian(t)[1:, 1:])
    lam = eig[np.argmin(eig.real)]
    assert grounded_laplacian_min_eigenvalue(t) == eig.real.min()
    assert abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 8))
def test_grounded_min_eigenvalue_is_attained_by_a_real_eigenvalue(data, n):
    pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    weight = st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 100.0))
    weights = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    _assert_min_eigenvalue_is_real(build_topology(n, [(j, i, w) for (j, i), w in zip(edges, weights)]))


def test_grounded_min_eigenvalue_double_eigenvalue():
    """With unit weights L2 has the double eigenvalue (3 - sqrt 5) / 2,
    which the computed spectrum can place a few 1e-9 off the real axis."""
    edges = [(0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 1), (5, 0), (5, 2), (5, 3), (5, 4)]
    t = build_topology(6, edges)
    assert grounded_laplacian_min_eigenvalue(t) == pytest.approx((3 - 5**0.5) / 2)
    _assert_min_eigenvalue_is_real(t)


# --- reachability -----------------------------------------------------------


def test_spanning_tree_platoon():
    assert has_spanning_tree(platoon_topology())


def test_spanning_tree_detects_unreachable_agent():
    t = build_topology(7, [e for e in PLATOON_EDGES if e != (0, 6)])
    assert not has_spanning_tree(t)


# --- two-hop paths ----------------------------------------------------------


def test_two_hop_hand_example():
    t = platoon_topology()
    # 5 -> {1,3,4} -> 2 are the arbitration paths the preset relies on
    assert two_hop_relays(t, 5, 2) == (1, 3, 4)
    assert two_hop_relays(t, 0, 2) == (1, 5)
    assert two_hop_relays(t, 0, 6) == ()
    with pytest.raises(ValueError, match="unknown agent"):
        two_hop_relays(t, 0, 9)
    # the relay tables hold the edge indices of (s, 2) and (5, s)
    e = t.edges.index
    assert t.relay_si.shape == (t.n_edges, 3)
    assert list(t.relay_si[e((5, 2))]) == [e((1, 2)), e((3, 2)), e((4, 2))]
    assert list(t.relay_js[e((5, 2))]) == [e((5, 1)), e((5, 3)), e((5, 4))]
    assert list(t.relay_si[e((0, 2))]) == [e((1, 2)), e((5, 2)), -1]
    assert list(t.relay_js[e((0, 6))]) == [-1, -1, -1]
    # a graph without any two-hop path still has one padding column
    assert build_topology(2, [(0, 1)]).relay_si.tolist() == [[-1]]


def test_two_hop_exhaustive_three_nodes():
    pairs = [(j, i) for j in range(3) for i in range(3) if j != i]
    for bits in itertools.product([0, 1], repeat=6):
        chosen = [e for e, b in zip(pairs, bits) if b]
        if not chosen:
            continue
        t = build_topology(3, chosen)
        edge_set = set(chosen)
        for j, i in pairs:
            assert two_hop_relays(t, j, i) == brute_two_hop(edge_set, 3, j, i)


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
        assert two_hop_relays(t, j, i) == brute_two_hop(edge_set, n, j, i)


# --- detectability ----------------------------------------------------------


def test_hybrid_detectability_platoon_budget_1_1():
    """Only (5, 2) carries the 3 redundant paths a (1, 1) budget needs."""
    need, short = check_hybrid_detectability(platoon_topology(), LocalAttackBudget(1, 1))
    assert need == 3
    assert (5, 2) not in short
    assert set(short) == set(PLATOON_EDGES) - {(5, 2)}


def test_hybrid_detectability_budget_0_0():
    need, short = check_hybrid_detectability(platoon_topology(), LocalAttackBudget(0, 0))
    assert need == 1
    assert set(short) == set(PLATOON_EDGES) - {(5, 2), (0, 2), (0, 1)}


def test_hybrid_detectability_satisfied_on_dense_graph():
    n = 5
    edges = [(j, i) for j in range(n) for i in range(n) if j != i]
    need, short = check_hybrid_detectability(build_topology(n, edges), LocalAttackBudget(1, 1))
    assert need == 3 and short == []


def test_attack_budget_rejects_negative():
    with pytest.raises(ValueError):
        LocalAttackBudget(-1, 0)
