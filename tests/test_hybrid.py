"""Flag protocol: local detection, trusted relays, classification."""

from __future__ import annotations

import itertools

import numpy as np

from maswatch.graph import build_topology
from maswatch.hybrid import (
    FLAG_VALUES,
    INITIAL_FLAG,
    Classification,
    FlagBoard,
    FlagPair,
    classify,
    local_detect,
    run_protocol_step,
    select_trusted,
)

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


def test_local_detect():
    assert local_detect(False, False) == FlagPair(0, 0)
    assert local_detect(False, True) == FlagPair(0, 1)
    # a channel alarm hides whatever the residual would have said
    assert local_detect(True, True) == FlagPair(1, 2)
    assert local_detect(True, False) == FlagPair(1, 2)


def test_classify_table():
    assert classify(FlagPair(0, 0), None) is Classification.NORMAL
    assert classify(FlagPair(0, 1), None) is Classification.BYZANTINE_ONLY
    assert classify(FlagPair(1, 2), FlagPair(0, 0)) is Classification.CHANNEL_ONLY
    assert classify(FlagPair(1, 2), FlagPair(0, 1)) is Classification.HYBRID
    assert classify(FlagPair(1, 2), None) is Classification.UNDECIDABLE
    assert classify(FlagPair(2, 2), None) is Classification.UNDECIDABLE


def test_classify_total_over_flag_domain():
    pairs = [FlagPair(a, b) for a, b in itertools.product(FLAG_VALUES, repeat=2)]
    for own in pairs:
        for trusted in pairs + [None]:
            out = classify(own, trusted)
            assert isinstance(out, Classification)
            if own not in (FlagPair(0, 0), FlagPair(0, 1), FlagPair(1, 2)):
                assert out is Classification.UNDECIDABLE


def test_flag_board_initial():
    board = FlagBoard(step=0)
    assert board.get(2, 5) == INITIAL_FLAG
    board.flags[(2, 5)] = FlagPair(0, 0)
    assert board.get(2, 5) == FlagPair(0, 0)
    # pairs never set, edges or not, read as uninitialized
    assert board.get(6, 3) == INITIAL_FLAG


def _clean_board(t, step=4):
    return FlagBoard(step=step, flags={(i, j): FlagPair(0, 0) for (j, i) in t.edges})


def test_select_trusted_prefers_lowest_index():
    t = _topology()
    board = _clean_board(t)
    # arbitrating (5, 2): candidates 1, 3, 4 all hear agent 5
    assert select_trusted(2, 5, board, t) == 1
    board.flags[(2, 1)] = FlagPair(0, 1)
    assert select_trusted(2, 5, board, t) == 3
    board.flags[(3, 5)] = FlagPair(1, 2)
    assert select_trusted(2, 5, board, t) == 4
    board.flags[(2, 4)] = FlagPair(2, 2)
    board.flags[(4, 5)] = FlagPair(0, 0)
    assert select_trusted(2, 5, board, t) is None


def test_select_trusted_requires_two_hop():
    t = _topology()
    board = _clean_board(t)
    # nobody else hears the leader's edge into 6
    assert select_trusted(6, 0, board, t) is None
    # 5 relays the leader for agent 1
    assert select_trusted(1, 0, board, t) == 5


def test_run_protocol_step_channel_only():
    t = _topology()
    chan = _mask(t, lambda e: e == (5, 2))
    flags, labels = run_protocol_step(7, chan, _mask(t, lambda e: False), t)
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
    flags, labels = run_protocol_step(5, chan, env, t)
    assert tuple(flags[t.edge_index(5, 1)]) == (0, 1)
    by_edge = _labels(t, labels)
    assert by_edge[(5, 2)] is Classification.HYBRID
    assert by_edge[(5, 1)] is Classification.BYZANTINE_ONLY


def test_run_protocol_step_undecidable_without_relay():
    t = _topology()
    chan = _mask(t, lambda e: e == (0, 6))
    _, labels = run_protocol_step(4, chan, _mask(t, lambda e: False), t)
    assert _labels(t, labels)[(0, 6)] is Classification.UNDECIDABLE


def test_run_protocol_step_missing_envelope_counts_clean():
    # an edge without an envelope reference raises no envelope alarm
    t = _topology()
    none = _mask(t, lambda e: False)
    flags, labels = run_protocol_step(1, none, none, t)
    assert not flags.any()
    assert all(v is Classification.NORMAL for v in labels)
