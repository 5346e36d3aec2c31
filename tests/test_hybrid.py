"""Flag protocol: local detection, trusted relays, classification."""

from __future__ import annotations

import itertools

import pytest

from maswatch.detectors import EdgeVerdict
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


def _verdict(edge, attacked, detector="kl", k=5):
    return EdgeVerdict(
        edge=edge,
        step=k,
        detector=detector,
        statistic=10.0 if attacked else 0.0,
        decision="attacked" if attacked else "secure",
    )


def test_local_detect():
    clean = _verdict((5, 2), False)
    alarm = _verdict((5, 2), True)
    env_ok = (_verdict((5, 2), False, "envelope1"), _verdict((5, 2), False, "envelope2"))
    env_bad = (_verdict((5, 2), False, "envelope1"), _verdict((5, 2), True, "envelope2"))
    assert local_detect(clean, env_ok) == FlagPair(0, 0)
    assert local_detect(clean, env_bad) == FlagPair(0, 1)
    # a channel alarm hides whatever the residual would have said
    assert local_detect(alarm, env_bad) == FlagPair(1, 2)
    assert local_detect(alarm, env_ok) == FlagPair(1, 2)
    assert local_detect(clean, None) == FlagPair(0, 0)


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
    board = FlagBoard.initial(_topology())
    assert board.step == 0
    assert len(board.flags) == len(PLATOON_EDGES)
    assert board.get(2, 5) == INITIAL_FLAG
    # unknown pairs also read as uninitialized
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
    chan = {e: _verdict(e, e == (5, 2)) for e in t.edges}
    env = {e: (_verdict(e, False, "envelope1"), _verdict(e, False, "envelope2")) for e in t.edges}
    board, labels = run_protocol_step(7, chan, env, t)
    assert board.flags[(2, 5)] == FlagPair(1, 2)
    assert labels[(5, 2)] is Classification.CHANNEL_ONLY
    assert labels[(1, 2)] is Classification.NORMAL
    assert set(labels) == set(t.edges)


def test_run_protocol_step_hybrid():
    t = _topology()
    chan = {e: _verdict(e, e == (5, 2)) for e in t.edges}
    env = {
        e: (
            _verdict(e, False, "envelope1"),
            _verdict(e, e[0] == 5 and e != (5, 2), "envelope2"),
        )
        for e in t.edges
    }
    board, labels = run_protocol_step(5, chan, env, t)
    # relays 1, 3, 4 all see agent 5's residual break the envelope
    assert board.flags[(1, 5)] == FlagPair(0, 1)
    assert labels[(5, 2)] is Classification.HYBRID
    assert labels[(5, 1)] is Classification.BYZANTINE_ONLY


def test_run_protocol_step_undecidable_without_relay():
    t = _topology()
    chan = {e: _verdict(e, e == (0, 6)) for e in t.edges}
    env = {e: (_verdict(e, False, "envelope1"), _verdict(e, False, "envelope2")) for e in t.edges}
    _, labels = run_protocol_step(4, chan, env, t)
    assert labels[(0, 6)] is Classification.UNDECIDABLE


def test_run_protocol_step_missing_envelope_counts_clean():
    t = _topology()
    chan = {e: _verdict(e, False) for e in t.edges}
    _, labels = run_protocol_step(1, chan, {}, t)
    assert all(v is Classification.NORMAL for v in labels.values())
