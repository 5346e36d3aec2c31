"""KL channel detector and residual envelope detector.

The closed-form Gaussian KL is cross-checked against numerical
integration of the defining integral; the envelope pieces are checked
against hand-evaluated values of tau(k) and the norm-splitting factor.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maswatch.detectors import (
    VAR_FLOOR,
    EnvelopeConfig,
    KlDetectorConfig,
    edge_residual,
    envelope,
    envelope_factor,
    envelope_verdict,
    estimate_kl,
    gaussian_kl,
    kl_verdict,
)
from maswatch.dynamics import StateBounds
from maswatch.engine import simulate
from maswatch.harness import platoon_preset

from _reference import recovered_copies


def kl_by_quadrature(mu_a, var_a, mu_b, var_b) -> float:
    sa, sb = math.sqrt(var_a), math.sqrt(var_b)

    def integrand(x):
        log_pa = -0.5 * ((x - mu_a) / sa) ** 2 - math.log(sa * math.sqrt(2 * math.pi))
        log_pb = -0.5 * ((x - mu_b) / sb) ** 2 - math.log(sb * math.sqrt(2 * math.pi))
        return math.exp(log_pa) * (log_pa - log_pb)

    lo = min(mu_a, mu_b) - 12 * max(sa, sb)
    hi = max(mu_a, mu_b) + 12 * max(sa, sb)
    val, _ = quad(integrand, lo, hi, limit=200)
    return val


# --- gaussian_kl ------------------------------------------------------------


def test_gaussian_kl_zero_for_identical():
    assert gaussian_kl(1.0, 2.0, 1.0, 2.0) == 0.0


def test_gaussian_kl_hand_value():
    # N(0,1) against N(0,4): 0.5 ln 4 + 1/8 - 1/2
    expect = 0.5 * math.log(4.0) + 1.0 / 8.0 - 0.5
    assert gaussian_kl(0.0, 1.0, 0.0, 4.0) == pytest.approx(expect)


def test_gaussian_kl_is_asymmetric():
    assert gaussian_kl(0.0, 1.0, 0.0, 4.0) != gaussian_kl(0.0, 4.0, 0.0, 1.0)


def test_gaussian_kl_sums_components():
    total = gaussian_kl([0.0, 1.0], [1.0, 2.0], [0.5, 1.0], [1.0, 3.0])
    parts = gaussian_kl(0.0, 1.0, 0.5, 1.0) + gaussian_kl(1.0, 2.0, 1.0, 3.0)
    assert total == pytest.approx(parts)


def test_gaussian_kl_validation():
    with pytest.raises(ValueError, match="share one shape"):
        gaussian_kl([0.0, 1.0], [1.0, 1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        gaussian_kl(0.0, 0.0, 0.0, 1.0)


def test_gaussian_kl_matches_quadrature():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        mu_a, mu_b = rng.uniform(-3, 3, size=2)
        var_a, var_b = rng.uniform(0.3, 4.0, size=2)
        closed = gaussian_kl(mu_a, var_a, mu_b, var_b)
        worst = max(worst, abs(closed - kl_by_quadrature(mu_a, var_a, mu_b, var_b)))
    assert worst < 1e-3


# --- estimate_kl ------------------------------------------------------------


def test_estimate_kl_zero_on_identical_sets():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 3))
    assert estimate_kl(a, a.copy()) == 0.0


def test_estimate_kl_grows_with_mean_shift():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(200, 1))
    shifts = [0.5, 1.0, 2.0]
    vals = [estimate_kl(a, a + s) for s in shifts]
    assert vals[0] < vals[1] < vals[2]


def test_estimate_kl_blocks_match_per_pair_calls():
    """One call on (T, K, E, n) slabs equals the per-(step, edge) calls
    bit for bit, each of which gives a Python float."""
    s = replace(platoon_preset("hybrid"), trials=40, horizon=12)
    copies = recovered_copies(simulate(s))
    y1, y2 = copies[:, :, 0], copies[:, :, 1]
    K, E = s.horizon, s.topology.n_edges
    pairs = [[estimate_kl(y1[:, k, e], y2[:, k, e]) for e in range(E)] for k in range(K)]
    assert all(type(v) is float for row in pairs for v in row)
    block = estimate_kl(y1, y2)
    assert block.shape == (K, E)
    assert np.array_equal(block, np.array(pairs))
    assert kl_verdict(block, s.kl).any()  # the channel attack shows


def _kl_by_np_moments(a, b):
    """estimate_kl with its moments taken by np.mean and np.var."""
    mu_a, mu_b = np.mean(a, axis=0), np.mean(b, axis=0)
    return gaussian_kl(mu_a, np.maximum(np.var(a, axis=0), VAR_FLOOR), mu_b, np.maximum(np.var(b, axis=0), VAR_FLOOR))


def test_estimate_kl_moments_match_np_mean_and_var():
    """Bit for bit on strided per-(step, edge) views of the slabs, on
    whole and step-strided slabs, and on a noiseless clean pair, whose
    copies are equal and constant over the trials, so the variance floor
    decides and the KL is exactly 0."""
    s = replace(platoon_preset("hybrid"), trials=40, horizon=12)
    noiseless = replace(platoon_preset(), trials=40, horizon=12)
    noiseless = replace(noiseless, controller=replace(noiseless.controller, noise_var=0.0))
    sims = [recovered_copies(simulate(s)), recovered_copies(simulate(noiseless))]
    for copies in sims:
        y1, y2 = copies[:, :, 0], copies[:, :, 1]
        pairs = [(y1[:, k, e], y2[:, k, e]) for k in range(12) for e in range(s.topology.n_edges)]
        for a, b in pairs + [(y1, y2), (y1[:, ::3], y2[:, ::3])]:
            assert np.array_equal(estimate_kl(a, b), _kl_by_np_moments(a, b))
    assert np.all(estimate_kl(sims[1][:, :, 0], sims[1][:, :, 1]) == 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(2, 60),
    st.sampled_from([(), (1, 1), (3, 2), (2, 5)]),
    st.integers(1, 4),
    st.sampled_from(["noise", "identical", "constant_columns", "large_mean"]),
    st.sampled_from(["slab", "fortran", "reversed"]),
    st.integers(0, 2**32 - 1),
)
def test_estimate_kl_is_gaussian_kl_of_floored_moments(trials, between, n, case, layout, seed):
    """The one-pass statistic equals the per-set composition bit for bit,
    on (T, n) pairs and (T, K, E, n) blocks: both sets strided views of
    one slab like ystar's, Fortran-ordered copies, or views with the
    trials reversed. The cases are independent sets, equal copies,
    components constant over the trials (where the variance floor
    decides) and means near +-1e8."""
    rng = np.random.default_rng(seed)
    slab = rng.normal(size=(trials, *between, 2, n))
    if case == "identical":
        slab[..., 1, :] = slab[..., 0, :]
    elif case == "constant_columns":
        slab[..., 0] = rng.normal()
    elif case == "large_mean":
        slab = rng.choice([-1e8, 1e8]) + 0.05 * slab
    a, b = slab[..., 0, :], slab[..., 1, :]
    if layout == "fortran":
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    elif layout == "reversed":
        a, b = a[::-1], b[::-1]
    got = estimate_kl(a, b)
    assert np.array_equal(got, _kl_by_np_moments(a, b))
    assert type(got) is float if not between else got.shape == between
    if case == "identical":
        assert np.all(got == 0.0)


def test_estimate_kl_validation():
    with pytest.raises(ValueError, match="matching shapes"):
        estimate_kl(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError, match="two samples"):
        estimate_kl(np.zeros((1, 2)), np.zeros((1, 2)))


def test_kl_config_validation():
    with pytest.raises(ValueError):
        KlDetectorConfig(theta=0.0)
    with pytest.raises(ValueError):
        KlDetectorConfig(theta=4.61, min_samples=1)


def test_kl_verdict_boundary_stays_secure():
    cfg = KlDetectorConfig(theta=4.61)
    assert not kl_verdict(4.61, cfg)
    assert kl_verdict(4.6100001, cfg)
    mask = kl_verdict(np.array([[0.0, 4.61], [4.6100001, 50.0]]), cfg)
    assert mask.dtype == bool
    assert mask.tolist() == [[False, False], [True, True]]


def test_envelope_hand_values():
    cfg = EnvelopeConfig()
    assert envelope(1, cfg) == pytest.approx(100.0 * math.exp(-1.0))
    assert envelope(4, cfg) == pytest.approx(100.0 * math.exp(-(4.0 ** 0.84)))
    vals = [envelope(k, cfg) for k in range(1, 61)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        envelope(0, cfg)


def test_envelope_config_validation():
    with pytest.raises(ValueError):
        EnvelopeConfig(M_r=0.0)
    with pytest.raises(ValueError):
        EnvelopeConfig(phi=1.0)
    with pytest.raises(ValueError):
        EnvelopeConfig(lambda_min=0.0)


def test_edge_residual():
    y = np.array([[1.0, 0.0], [0.0, 2.0]])
    x = np.zeros((2, 2))
    assert edge_residual(y, x) == pytest.approx(1.5)
    # (T, K, E, n) blocks reduce to (K, E), each entry its own (T, n) residual
    rng = np.random.default_rng(6)
    yb, xb = rng.normal(size=(2, 5, 4, 3, 2))
    block = edge_residual(yb, xb)
    assert block.shape == (4, 3)
    assert block[2, 1] == edge_residual(yb[:, 2, 1], xb[:, 2, 1])
    with pytest.raises(ValueError, match="matching shapes"):
        edge_residual(np.zeros((2, 2)), np.zeros((3, 2)))


def test_envelope_factor():
    b = StateBounds(-200.0, 1230.0)
    ratio = (200.0 ** 2 + 1230.0 ** 2) / 1230.0 ** 2
    assert envelope_factor(b) == pytest.approx(math.sqrt(ratio))
    with pytest.raises(ValueError, match="eps2"):
        envelope_factor(StateBounds(-1.0, 0.0))


def test_envelope_verdict_math():
    cfg = EnvelopeConfig()
    b = StateBounds(-200.0, 1230.0)
    factor = envelope_factor(b)
    d_ref = 30.0
    threshold = factor * d_ref * (envelope(5, cfg) + cfg.delta)
    assert envelope_verdict(0.5 * threshold, d_ref, 5, cfg, b) == pytest.approx(0.5)
    assert envelope_verdict(2.0 * threshold, d_ref, 5, cfg, b) > 1.0
    # boundary ratio 1 is still secure
    assert envelope_verdict(threshold, d_ref, 5, cfg, b) == 1.0
    # arrays broadcast, the steps along the last axis, each with its own tau(k)
    steps = np.arange(1, 6)
    d_k = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 9.0, 9.0, 9.0]])
    d_refs = np.array([[2.0], [3.0]])
    ratios = envelope_verdict(d_k, d_refs, steps, cfg, b)
    assert ratios.shape == (2, 5)
    for r in range(2):
        for c, k in enumerate(steps):
            assert ratios[r, c] == envelope_verdict(d_k[r, c], d_refs[r, 0], int(k), cfg, b)


def test_envelope_verdict_worked_example():
    # tau(1) = 1 when M_r = e, so the threshold is sqrt(2) * 10 * 7
    cfg = EnvelopeConfig(M_r=math.e, delta=6.0)
    b = StateBounds(-5.0, 5.0)
    threshold = math.sqrt(2.0) * 10.0 * 7.0
    assert threshold == pytest.approx(98.99, abs=0.01)
    assert envelope_verdict(99.0, 10.0, 1, cfg, b) > 1.0
    assert envelope_verdict(98.0, 10.0, 1, cfg, b) <= 1.0


def test_envelope_verdict_degenerate_reference():
    cfg = EnvelopeConfig()
    b = StateBounds(-1.0, 1.0)
    assert envelope_verdict(0.0, 0.0, 3, cfg, b) == 0.0
    assert math.isinf(envelope_verdict(1.0, 0.0, 3, cfg, b))
    with np.errstate(all="raise"):
        ratios = envelope_verdict(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), 3, cfg, b)
    assert ratios[0] == 0.0 and math.isinf(ratios[1]) and 0.0 < ratios[2] < 1.0
    with pytest.raises(ValueError, match="nonnegative"):
        envelope_verdict(-1.0, 1.0, 3, cfg, b)


# --- lemma 1 ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=6),
    st.data(),
)
def test_lemma1_bound_holds(gamma, data):
    omega = data.draw(
        st.lists(
            st.floats(min_value=0.5, max_value=8.0),
            min_size=len(gamma),
            max_size=len(gamma),
        )
    )
    # ||gamma|| + ||omega|| <= sqrt((rho1^2 + rho2^2) / rho1^2) * ||gamma + omega||
    g, o = np.array(gamma), np.array(omega)
    factor = math.sqrt((0.5**2 + 8.0**2) / 0.5**2)
    assert np.linalg.norm(g) + np.linalg.norm(o) <= factor * np.linalg.norm(g + o) * (1.0 + 1e-12)


def test_lemma1_bound_tight_at_equal_components():
    # equality direction: gamma = omega = rho * ones makes lhs/rhs largest
    g = o = np.full(4, 1.0)
    assert np.linalg.norm(g) + np.linalg.norm(o) <= math.sqrt((1.0 + 1.0) / 1.0) * np.linalg.norm(g + o)
