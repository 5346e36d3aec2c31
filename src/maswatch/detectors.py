"""Channel and Byzantine detectors.

Two detectors run per edge, on different signals:

KL channel detector. After watermark removal the two copies of a
message set are identical on a clean channel, so the KL divergence
between their empirical distributions is 0. Channel tampering
enters the two copies through two independent watermark secrets and
decoheres them; the detector fits per-component Gaussians to samples
pooled across Monte Carlo trials at a fixed step and flags the edge
when

    D(ystar_1 || ystar_2) > theta.

Residual envelope detector. Byzantine corruption survives the
watermark round-trip untouched, so it is invisible to the KL test.
It is caught by the residual d(k), the trial-averaged distance
between the recovered neighbor state and the receiver's own state,
which in a healthy network contracts along the envelope

    tau(k) = M_r * exp(-lambda_min * k^(1 - phi)).

The step test compares d(k) against the last trusted residual scaled
by tau(k) + delta and by a norm-splitting factor derived from the
componentwise state range: for vectors with components in
[rho_1, rho_2], rho_1 > 0,

    ||G|| + ||O|| <= sqrt((rho_1^2 + rho_2^2) / rho_1^2) * ||G + O||

which bounds how much a one-step residual can legitimately grow.

Both verdicts work on whole arrays: kl_verdict turns a (E, K) block of
KL values into the alarm mask, envelope_verdict turns residuals and
their references into the ratio of residual to threshold, elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .dynamics import StateBounds

# Variance floor applied by estimate_kl, so that a degenerate sample
# set (a zero-noise run, where every trial is the same) yields a KL
# instead of a division error: 0 for identical copies.
VAR_FLOOR = 1e-30


@dataclass(frozen=True)
class KlDetectorConfig:
    theta: float
    min_samples: int = 30

    def __post_init__(self):
        object.__setattr__(self, "theta", real(self.theta, "theta", 0))
        object.__setattr__(self, "min_samples", integer(self.min_samples, "min_samples", 2))


@dataclass(frozen=True)
class EnvelopeConfig:
    M_r: float = 100.0
    phi: float = 0.16
    lambda_min: float = 1.0
    delta: float = 6.0

    def __post_init__(self):
        object.__setattr__(self, "M_r", real(self.M_r, "M_r", 0))
        object.__setattr__(self, "phi", real(self.phi, "phi", 0, 1))
        object.__setattr__(self, "lambda_min", real(self.lambda_min, "lambda_min", 0))
        object.__setattr__(self, "delta", real(self.delta, "delta", 0, closed=True))


def gaussian_kl(mu_a, var_a, mu_b, var_b) -> float | np.ndarray:
    """KL divergence between diagonal Gaussians, summed over components.

        sum_l [ log(s_b/s_a) + (s_a^2 + (m_a - m_b)^2) / (2 s_b^2) - 1/2 ]

    Components run along the last axis; the leading axes are kept, and a
    single Gaussian pair gives a Python float. Zero or negative variances
    are rejected.
    """
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=float))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=float))
    var_a = np.atleast_1d(np.asarray(var_a, dtype=float))
    var_b = np.atleast_1d(np.asarray(var_b, dtype=float))
    if mu_a.shape != mu_b.shape or var_a.shape != var_b.shape or mu_a.shape != var_a.shape:
        raise ValueError("mean and variance arrays must share one shape")
    if np.any(var_a <= 0) or np.any(var_b <= 0):
        raise ValueError("variances must be positive")
    return _kl_sum(mu_a, var_a, mu_b, var_b)


def _kl_sum(mu_a, var_a, mu_b, var_b) -> float | np.ndarray:
    """gaussian_kl's formula on checked arrays."""
    terms = 0.5 * _log(var_b / var_a) + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b) - 0.5
    kl = np.add.reduce(terms, axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def _log(x: np.ndarray) -> np.ndarray:
    """np.log through math.log, one element at a time: numpy's own may
    differ from libm in the last bit. 0 gives -inf and a negative or
    nan input nan, as np.log gives them, where math.log would raise."""
    logs = [math.log(v) if v > 0 else (-math.inf if v == 0 else math.nan) for v in x.ravel().tolist()]
    return np.array(logs, dtype=float).reshape(x.shape)


def estimate_kl(samples_a: np.ndarray, samples_b: np.ndarray) -> float | np.ndarray:
    """Empirical KL between two sample blocks of shape (T, ..., n).

    Blocks run over trials first and state components last, like
    edge_residual's. Fits a Gaussian to each component by its moments
    over the T samples and sums the per-component divergences, so the
    result has the shape of the axes in between: a Python float for a
    (T, n) pair, a (K, E) array for (T, K, E, n) slabs. Sample variances
    are floored at VAR_FLOOR, so equal sets report a KL of exactly 0,
    even when every sample is the same. The statistic needs no detector
    config: kl_verdict applies theta.

    One pass takes the moments of both sets, stacked on a new leading
    axis, by the operations np.mean and np.var run, in their order. The
    stack keeps each set's memory layout and so its reduction order
    (numpy sums a (T, 1) set or a trial-contiguous one pairwise, and a
    C-ordered wider one row by row), so the result is gaussian_kl of
    each set's floored moments bit for bit, without its checks: a
    floored variance is always positive.
    """
    a = np.atleast_2d(np.asarray(samples_a, dtype=float))
    b = np.atleast_2d(np.asarray(samples_b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("sample sets must have matching shapes")
    if a.shape[0] < 2:
        raise ValueError("need at least two samples per set")
    x = np.stack((a, b))
    mu = np.add.reduce(x, axis=1) / a.shape[0]
    x -= mu[:, None]
    x *= x
    var = np.add.reduce(x, axis=1) / a.shape[0]
    (mu_a, mu_b), (var_a, var_b) = mu, np.maximum(var, VAR_FLOOR)
    return _kl_sum(mu_a, var_a, mu_b, var_b)


def kl_verdict(kl, cfg: KlDetectorConfig) -> np.ndarray:
    """Alarm mask kl > theta, elementwise; boundary values stay secure."""
    return np.asarray(kl) > cfg.theta


def envelope(k: int, cfg: EnvelopeConfig) -> float:
    """Decay envelope tau(k) = M_r * exp(-lambda_min * k^(1-phi))."""
    if k < 1:
        raise ValueError("the envelope is defined for steps k >= 1")
    return cfg.M_r * math.exp(-cfg.lambda_min * float(k) ** (1.0 - cfg.phi))


def edge_residual(y_samples: np.ndarray, x_samples: np.ndarray) -> np.ndarray:
    """Trial-averaged residual mean ||y - x||.

    Blocks are (T, ..., n): trials first, state components last. The
    result has the shape of the axes in between, a scalar for (T, n).
    """
    y = np.atleast_2d(np.asarray(y_samples, dtype=float))
    x = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if y.shape != x.shape:
        raise ValueError("y and x sample blocks must have matching shapes")
    return np.linalg.norm(y - x, axis=-1).mean(axis=0)


def envelope_factor(bounds: StateBounds) -> float:
    """Norm-splitting factor sqrt((eps1^2 + eps2^2) / eps2^2) applied to
    the envelope threshold; StateBounds rules out eps2 = 0."""
    return math.sqrt((bounds.eps1 ** 2 + bounds.eps2 ** 2) / bounds.eps2 ** 2)


def envelope_verdict(d_k, d_ref, k, cfg: EnvelopeConfig, bounds: StateBounds) -> np.ndarray:
    """Ratio of residual to threshold, elementwise over broadcast arrays.

    d_ref is the residual the detector still trusts and k the step of
    d_k (an array of steps broadcasts like d_k's last axis). The
    threshold is

        factor * d_ref * (tau(k) + delta)

    and the edge is attacked exactly when the ratio exceeds 1 (boundary
    values stay secure). A zero threshold gives 0 for a zero residual
    and inf otherwise.
    """
    d_k = np.asarray(d_k, dtype=float)
    d_ref = np.asarray(d_ref, dtype=float)
    if np.any(d_k < 0) or np.any(d_ref < 0):
        raise ValueError("residuals are nonnegative")
    steps = np.asarray(k)
    # envelope per step, not np.exp / **: numpy's vectorised ones may differ from libm in the last bit.
    tau = np.array([envelope(int(step), cfg) for step in steps.ravel()]).reshape(steps.shape)
    threshold = envelope_factor(bounds) * d_ref * (tau + cfg.delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d_k == 0.0, 0.0, d_k / threshold)
