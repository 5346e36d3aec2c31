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
    with pytest.raises(ValueError, match=r"^lambda1 must lie in \(0, inf\), got 0\.0$"):
        WatermarkParams(0.0, 5.0, 7.2, 4.3, 2.0, 3.5)
    with pytest.raises(ValueError, match=r"^sigma2_f2 must lie in \(0, inf\), got -1\.0$"):
        WatermarkParams(2.0, 5.0, 7.2, 4.3, 2.0, -1.0)


def _stream(master_seed, trial, edge, tag):
    return edge_stream(stream_keys(master_seed, [trial], [edge], tag)[0, 0])


def _blocks(master_seed, trial, edge, steps, n=3):
    """(m, f) of one edge's watermark stream, each (steps, 2, n), copy r in column r-1."""
    z = _stream(master_seed, trial, edge, STREAM_WATERMARK).standard_normal((steps, 4, n))
    return watermark_blocks(z, PARAMS)


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
    """Step-k material (m, f) of one edge in trial 0, each (2, n): row k-1
    of its watermark blocks."""
    return tuple(b[k - 1] for b in _blocks(master_seed, 0, edge, k if steps is None else steps))


def test_draw_is_deterministic_and_horizon_stable():
    m, f = _draw((5, 2), 3, master_seed=7)
    assert m.shape == f.shape == (2, 3)
    again = _draw((5, 2), 3, master_seed=7)
    # the step-k draw must not depend on how far the block was generated
    longer = _draw((5, 2), 3, master_seed=7, steps=10)
    for other in (again, longer):
        assert np.array_equal(m, other[0]) and np.array_equal(f, other[1])


def test_removal_multipliers_exceed_lambda():
    m, _ = _blocks(3, 0, (0, 1), 1000)
    assert m[:, 0].min() > PARAMS.lambda1
    assert m[:, 1].min() > PARAMS.lambda2


def test_watermark_blocks_transform_in_place():
    z = np.random.default_rng(4).standard_normal((5, 2, 4, 3))
    raw = z.copy()
    m, f = watermark_blocks(z, PARAMS)
    assert m.shape == f.shape == (5, 2, 2, 3)
    assert np.shares_memory(m, z) and np.shares_memory(f, z)
    assert np.array_equal(m[..., 0, :], PARAMS.lambda1 + (np.sqrt(PARAMS.sigma2_m1) * raw[..., 0, :]) ** 2)
    assert np.array_equal(m[..., 1, :], PARAMS.lambda2 + (np.sqrt(PARAMS.sigma2_m2) * raw[..., 1, :]) ** 2)
    assert np.array_equal(f[..., 0, :], np.sqrt(PARAMS.sigma2_f1) * raw[..., 2, :])
    assert np.array_equal(f[..., 1, :], np.sqrt(PARAMS.sigma2_f2) * raw[..., 3, :])


def test_apply_remove_hand_numbers():
    m, f = np.array([[3.0], [4.0]]), np.array([[1.0], [-2.0]])
    y = apply_watermark(np.array([2.0]), m, f)
    assert y.shape == (2, 1)
    assert y[0, 0] == pytest.approx(2.0 / 3.0 + 1.0)
    assert y[1, 0] == pytest.approx(2.0 / 4.0 - 2.0)
    assert remove_watermark(y, m, f) == pytest.approx(np.full((2, 1), 2.0))


def test_roundtrip_bulk():
    """10^4 random messages recover to 1e-9 through both masks."""
    m, f = _blocks(99, 0, (1, 2), 10_000)
    plains = np.random.default_rng(5).uniform(-200.0, 1200.0, size=(10_000, 1, 3))
    back = m * ((plains / m + f) - f)
    assert np.max(np.abs(back - plains)) < 1e-9


def test_roundtrip_through_the_functions():
    rng = np.random.default_rng(17)
    blocks = _blocks(31, 3, (4, 2), 100)
    for k in range(1, 101):
        m, f = (b[k - 1] for b in blocks)
        plain = rng.uniform(-50.0, 50.0, size=3)
        y = apply_watermark(plain, m, f)
        assert y.shape == (2, 3)
        assert np.max(np.abs(remove_watermark(y, m, f) - plain)) < 1e-9


def test_copies_differ_on_the_wire():
    y = apply_watermark(np.array([5.0, 5.0, 5.0]), *_draw((0, 1), 1, master_seed=7))
    assert y.shape == (2, 3)
    assert not np.allclose(y[0], y[1])
