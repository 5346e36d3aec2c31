"""Flag protocol: trusted relays, classification, and the array step
against the per-edge reference."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch.graph import build_topology, two_hop_relays
from maswatch.hybrid import (
    Classification,
    FlagPair,
    classify,
    run_protocol_step,
    select_trusted,
)

from _reference import reference_step

PLATOON_EDGES = [
    (0, 2), (1, 2), (3, 2), (4, 2), (5, 2),
    (5, 1), (5, 3), (5, 4), (0, 1), (0, 5), (0, 6),
]


def _topology():
    return build_topology(7, PLATOON_EDGES)


def _mask(t, attacked):
    """(E,) alarm vector in edge order, True on the edges attacked() picks."""
    return np.array([attacked(e) for e in t.edges])


def _labels(t, labels):
    return dict(zip(t.edges, labels))


def test_classify_table():
    assert classify(FlagPair(0, 0), None) is Classification.NORMAL
    assert classify(FlagPair(0, 1), None) is Classification.BYZANTINE_ONLY
    assert classify(FlagPair(1, 2), FlagPair(0, 0)) is Classification.CHANNEL_ONLY
    assert classify(FlagPair(1, 2), FlagPair(0, 1)) is Classification.HYBRID
    assert classify(FlagPair(1, 2), None) is Classification.UNDECIDABLE
    assert classify(FlagPair(2, 2), None) is Classification.UNDECIDABLE


def test_classify_total_over_flag_domain():
    pairs = [FlagPair(a, b) for a, b in itertools.product((0, 1, 2), repeat=2)]
    for own in pairs:
        for trusted in pairs + [None]:
            out = classify(own, trusted)
            assert isinstance(out, Classification)
            if own not in (FlagPair(0, 0), FlagPair(0, 1), FlagPair(1, 2)):
                assert out is Classification.UNDECIDABLE


def _set(t, flags, j, i, pair):
    flags[t.edge_index(j, i)] = pair


def test_select_trusted_prefers_lowest_index():
    t = _topology()
    flags = np.zeros((t.n_edges, 2), dtype=np.int64)
    # arbitrating (5, 2): candidates 1, 3, 4 all hear agent 5
    assert select_trusted(2, 5, flags, t) == 1
    _set(t, flags, 1, 2, (0, 1))
    assert select_trusted(2, 5, flags, t) == 3
    _set(t, flags, 5, 3, (1, 2))
    assert select_trusted(2, 5, flags, t) == 4
    _set(t, flags, 4, 2, (2, 2))
    _set(t, flags, 5, 4, (0, 0))
    assert select_trusted(2, 5, flags, t) is None


def test_select_trusted_requires_two_hop():
    t = _topology()
    flags = np.zeros((t.n_edges, 2), dtype=np.int64)
    # nobody else hears the leader's edge into 6
    assert select_trusted(6, 0, flags, t) is None
    # 5 relays the leader for agent 1
    assert select_trusted(1, 0, flags, t) == 5


def test_run_protocol_step_channel_only():
    t = _topology()
    chan = _mask(t, lambda e: e == (5, 2))
    flags, labels = run_protocol_step(chan, _mask(t, lambda e: False), t)
    assert flags.shape == (len(t.edges), 2)
    assert tuple(flags[t.edge_index(5, 2)]) == (1, 2)
    assert tuple(flags[t.edge_index(1, 2)]) == (0, 0)
    by_edge = _labels(t, labels)
    assert by_edge[(5, 2)] is Classification.CHANNEL_ONLY
    assert by_edge[(1, 2)] is Classification.NORMAL
    assert len(labels) == len(t.edges)


def test_run_protocol_step_hybrid():
    t = _topology()
    chan = _mask(t, lambda e: e == (5, 2))
    # relays 1, 3, 4 all see agent 5's residual break the envelope
    env = _mask(t, lambda e: e[0] == 5 and e != (5, 2))
    flags, labels = run_protocol_step(chan, env, t)
    assert tuple(flags[t.edge_index(5, 1)]) == (0, 1)
    by_edge = _labels(t, labels)
    assert by_edge[(5, 2)] is Classification.HYBRID
    assert by_edge[(5, 1)] is Classification.BYZANTINE_ONLY


def test_run_protocol_step_undecidable_without_relay():
    t = _topology()
    chan = _mask(t, lambda e: e == (0, 6))
    _, labels = run_protocol_step(chan, _mask(t, lambda e: False), t)
    assert _labels(t, labels)[(0, 6)] is Classification.UNDECIDABLE


def test_run_protocol_step_missing_envelope_counts_clean():
    # an edge without an envelope reference raises no envelope alarm
    t = _topology()
    none = _mask(t, lambda e: False)
    flags, labels = run_protocol_step(none, none, t)
    assert not flags.any()
    assert all(v is Classification.NORMAL for v in labels)


# --- the array step against the per-edge reference ----------------------------


def _assert_matches_reference(chan, env, t):
    flags, labels = run_protocol_step(chan, env, t)
    want_flags, want_labels = reference_step(chan, env, t)
    assert flags.dtype == np.int64 and flags.shape == (t.n_edges, 2)
    assert np.array_equal(flags, want_flags)
    assert list(labels) == want_labels


def test_protocol_step_matches_reference_on_platoon_masks():
    t = _topology()
    rng = np.random.default_rng(20260821)
    seen = set()
    for _ in range(1500):
        p_chan, p_env = rng.uniform(0.0, 0.6, size=2)
        chan = rng.random(t.n_edges) < p_chan
        env = rng.random(t.n_edges) < p_env
        _assert_matches_reference(chan, env, t)
        seen.update(run_protocol_step(chan, env, t)[1])
    assert seen == set(Classification)


@st.composite
def _topology_and_masks(draw):
    n = draw(st.integers(2, 7))
    pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    masks = st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
    return n, edges, draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_topology_and_masks())
def test_protocol_step_matches_reference_on_random_topologies(case):
    n, edges, steps = case
    t = build_topology(n, edges)
    edge_set = set(edges)
    for e, (j, i) in enumerate(edges):
        relays = two_hop_relays(t, j, i)
        brute = {s for s in range(n) if s not in (i, j) and (j, s) in edge_set and (s, i) in edge_set}
        assert relays == tuple(sorted(brute))
        width = len(relays)
        assert list(t.relay_si[e, :width]) == [t.edge_index(s, i) for s in relays]
        assert list(t.relay_js[e, :width]) == [t.edge_index(j, s) for s in relays]
        assert (t.relay_si[e, width:] == -1).all() and (t.relay_js[e, width:] == -1).all()
    for chan, env in steps:
        _assert_matches_reference(np.array(chan, dtype=bool), np.array(env, dtype=bool), t)
