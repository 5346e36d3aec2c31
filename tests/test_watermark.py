"""Watermark material generation and the apply/remove round trip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maswatch.watermark import (
    STREAM_BYZANTINE,
    STREAM_NOISE,
    STREAM_WATERMARK,
    MessageSet,
    WatermarkDraw,
    WatermarkParams,
    apply_watermark,
    edge_stream,
    remove_watermark,
    stream_keys,
    watermark_blocks,
)

PARAMS = WatermarkParams(
    lambda1=2.0, lambda2=5.0,
    sigma2_m1=7.2, sigma2_m2=4.3,
    sigma2_f1=2.0, sigma2_f2=3.5,
)


def test_params_validation():
    with pytest.raises(ValueError, match="lambda_r"):
        WatermarkParams(0.0, 5.0, 7.2, 4.3, 2.0, 3.5)
    with pytest.raises(ValueError, match="sigma2_f2"):
        WatermarkParams(2.0, 5.0, 7.2, 4.3, 2.0, -1.0)


def _stream(master_seed, trial, edge, tag):
    return edge_stream(stream_keys(master_seed, [trial], [edge], tag)[0, 0])


def _blocks(master_seed, trial, edge, steps, n=3):
    """(m1, m2, f1, f2) of one edge's watermark stream, each (steps, n)."""
    z = _stream(master_seed, trial, edge, STREAM_WATERMARK).standard_normal((steps, 4, 1, n))
    return tuple(b[:, 0] for b in watermark_blocks(z, PARAMS))


def test_edge_stream_is_keyed_by_every_argument():
    base = _stream(1, 0, (5, 2), STREAM_WATERMARK).standard_normal(4)
    same = _stream(1, 0, (5, 2), STREAM_WATERMARK).standard_normal(4)
    assert np.array_equal(base, same)
    for other in (
        _stream(2, 0, (5, 2), STREAM_WATERMARK),
        _stream(1, 1, (5, 2), STREAM_WATERMARK),
        _stream(1, 0, (2, 5), STREAM_WATERMARK),
        _stream(1, 0, (5, 2), STREAM_NOISE),
    ):
        assert not np.array_equal(base, other.standard_normal(4))


# Master seeds of one, two and three 32-bit words; the loader accepts any
# nonnegative integer, and SeedSequence splits it into words.
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**70]), st.integers(0, 2**80))
_KEY_WORD = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(
    master_seed=_SEEDS,
    trials=st.lists(_KEY_WORD, min_size=1, max_size=3),
    edges=st.lists(st.tuples(_KEY_WORD, _KEY_WORD), min_size=1, max_size=3),
    tag=st.one_of(st.sampled_from([STREAM_NOISE, STREAM_WATERMARK, STREAM_BYZANTINE]), _KEY_WORD),
)
def test_stream_keys_equal_seed_sequence_state(master_seed, trials, edges, tag):
    keys = stream_keys(master_seed, trials, edges, tag)
    assert keys.shape == (len(trials), len(edges), 4) and keys.dtype == np.uint64
    for t, trial in enumerate(trials):
        for e, (j, i) in enumerate(edges):
            seq = np.random.SeedSequence([master_seed, trial, j, i, tag])
            assert np.array_equal(keys[t, e], seq.generate_state(4, np.uint64))
    (j, i), trial = edges[-1], trials[-1]
    want = np.random.default_rng(np.random.SeedSequence([master_seed, trial, j, i, tag]))
    assert np.array_equal(edge_stream(keys[-1, -1]).standard_normal(5), want.standard_normal(5))


@pytest.mark.parametrize("trial, edge, tag", [(-1, (0, 1), 0), (2**32, (0, 1), 0), (0, (0, 2**32), 0), (0, (0, 1), -1)])
def test_stream_keys_reject_entries_beyond_one_word(trial, edge, tag):
    with pytest.raises(ValueError, match="32-bit word"):
        stream_keys(7, [trial], [edge], tag)


def _draw(edge, k, master_seed, steps=None):
    """Step-k material of one edge in trial 0: row k-1 of its watermark blocks."""
    blocks = _blocks(master_seed, 0, edge, k if steps is None else steps)
    return WatermarkDraw(*(b[k - 1] for b in blocks))


def test_draw_is_deterministic_and_horizon_stable():
    d1 = _draw((5, 2), 3, master_seed=7)
    d2 = _draw((5, 2), 3, master_seed=7)
    assert np.array_equal(d1.m1, d2.m1) and np.array_equal(d1.f2, d2.f2)
    # the step-k draw must not depend on how far the block was generated
    d10 = _draw((5, 2), 3, master_seed=7, steps=10)
    assert np.array_equal(d1.m1, d10.m1)
    assert np.array_equal(d1.m2, d10.m2)
    assert np.array_equal(d1.f1, d10.f1)
    assert np.array_equal(d1.f2, d10.f2)


def test_removal_multipliers_exceed_lambda():
    m1, m2, _, _ = _blocks(3, 0, (0, 1), 1000)
    assert m1.min() > PARAMS.lambda1
    assert m2.min() > PARAMS.lambda2


def test_watermark_blocks_transform_in_place():
    z = np.random.default_rng(4).standard_normal((5, 4, 2, 3))
    raw = z.copy()
    m1, m2, f1, f2 = watermark_blocks(z, PARAMS)
    assert all(np.shares_memory(b, z) for b in (m1, m2, f1, f2))
    assert np.array_equal(m1, PARAMS.lambda1 + (np.sqrt(PARAMS.sigma2_m1) * raw[:, 0]) ** 2)
    assert np.array_equal(m2, PARAMS.lambda2 + (np.sqrt(PARAMS.sigma2_m2) * raw[:, 1]) ** 2)
    assert np.array_equal(f1, np.sqrt(PARAMS.sigma2_f1) * raw[:, 2])
    assert np.array_equal(f2, np.sqrt(PARAMS.sigma2_f2) * raw[:, 3])


def test_apply_remove_hand_numbers():
    draw = WatermarkDraw(
        m1=np.array([3.0]), m2=np.array([4.0]),
        f1=np.array([1.0]), f2=np.array([-2.0]),
    )
    ms = apply_watermark(np.array([2.0]), draw)
    assert ms.y1[0] == pytest.approx(2.0 / 3.0 + 1.0)
    assert ms.y2[0] == pytest.approx(2.0 / 4.0 - 2.0)
    y1, y2 = remove_watermark(ms, draw)
    assert y1[0] == pytest.approx(2.0)
    assert y2[0] == pytest.approx(2.0)


def test_roundtrip_bulk():
    """10^4 random messages recover to 1e-9 through both masks."""
    m1, m2, f1, f2 = _blocks(99, 0, (1, 2), 10_000)
    plains = np.random.default_rng(5).uniform(-200.0, 1200.0, size=(10_000, 3))
    y1 = plains / m1 + f1
    y2 = plains / m2 + f2
    back1 = m1 * (y1 - f1)
    back2 = m2 * (y2 - f2)
    assert np.max(np.abs(back1 - plains)) < 1e-9
    assert np.max(np.abs(back2 - plains)) < 1e-9


def test_roundtrip_through_dataclasses():
    rng = np.random.default_rng(17)
    blocks = _blocks(31, 3, (4, 2), 100)
    for k in range(1, 101):
        draw = WatermarkDraw(*(b[k - 1] for b in blocks))
        plain = rng.uniform(-50.0, 50.0, size=3)
        y1, y2 = remove_watermark(apply_watermark(plain, draw), draw)
        assert np.max(np.abs(y1 - plain)) < 1e-9
        assert np.max(np.abs(y2 - plain)) < 1e-9


def test_copies_differ_on_the_wire():
    draw = _draw((0, 1), 1, master_seed=7)
    ms = apply_watermark(np.array([5.0, 5.0, 5.0]), draw)
    assert not np.allclose(ms.y1, ms.y2)
    assert isinstance(ms, MessageSet)
