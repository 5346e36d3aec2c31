"""Channel and Byzantine detectors.

Two detectors run per edge, on different signals:

KL channel detector. After watermark removal the two copies of a
message set are identical on a clean channel, so the KL divergence
between their empirical distributions sits at zero. Channel tampering
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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import StateBounds

# Additive smoothing and bin count for the histogram estimator.
HIST_BINS = 64
HIST_SMOOTHING = 1e-6
# Variance floors applied by estimate_kl so that degenerate sample sets
# (identical copies, zero-noise runs) yield a KL near 0 instead of a
# division error. The floor is relative to the means, because on a
# zero-noise run the watermark round trip leaves the two copies about
# 1e-13 apart, which an absolute floor alone turns into a KL of order
# 1e3; VAR_FLOOR keeps it positive when both means are zero.
VAR_FLOOR = 1e-30
VAR_FLOOR_REL = 1e-9


class KlEstimator(enum.Enum):
    GAUSSIAN_FIT = "gaussian_fit"
    HISTOGRAM = "histogram"


class FactorMode(enum.Enum):
    """Which side of the norm-splitting inequality scales the envelope."""

    ALGORITHM2 = "algorithm2"
    PROPOSITION3 = "proposition3"


@dataclass(frozen=True)
class KlDetectorConfig:
    theta: float = 4.61
    estimator: KlEstimator = KlEstimator.GAUSSIAN_FIT
    min_samples: int = 30

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")


@dataclass(frozen=True)
class EnvelopeConfig:
    M_r: float = 100.0
    phi: float = 0.16
    lambda_min: float = 1.0
    delta: float = 6.0
    factor_mode: FactorMode = FactorMode.ALGORITHM2

    def __post_init__(self):
        if self.M_r <= 0 or self.delta < 0:
            raise ValueError("M_r must be positive and delta nonnegative")
        if not 0 < self.phi < 1:
            raise ValueError("phi must lie in (0, 1)")
        if self.lambda_min <= 0:
            raise ValueError("lambda_min must be positive")


@dataclass(frozen=True)
class EdgeVerdict:
    """One detector decision about one edge at one step.

    statistic is the KL value or the residual ratio; decision is
    "attacked" exactly when the statistic exceeds its threshold
    (boundary values stay secure).
    """

    edge: tuple[int, int]
    step: int
    detector: str
    statistic: float
    decision: str

    @property
    def attacked(self) -> bool:
        return self.decision == "attacked"


def gaussian_kl(mu_a, var_a, mu_b, var_b) -> float:
    """KL divergence between diagonal Gaussians, summed over components.

        sum_l [ log(s_b/s_a) + (s_a^2 + (m_a - m_b)^2) / (2 s_b^2) - 1/2 ]

    Zero or negative variances are rejected.
    """
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=float))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=float))
    var_a = np.atleast_1d(np.asarray(var_a, dtype=float))
    var_b = np.atleast_1d(np.asarray(var_b, dtype=float))
    if mu_a.shape != mu_b.shape or var_a.shape != var_b.shape or mu_a.shape != var_a.shape:
        raise ValueError("mean and variance arrays must share one shape")
    if np.any(var_a <= 0) or np.any(var_b <= 0):
        raise ValueError("variances must be positive")
    terms = 0.5 * np.log(var_b / var_a) + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b) - 0.5
    return float(terms.sum())


def _histogram_kl(a: np.ndarray, b: np.ndarray) -> float:
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        return 0.0
    pa, _ = np.histogram(a, bins=HIST_BINS, range=(lo, hi))
    pb, _ = np.histogram(b, bins=HIST_BINS, range=(lo, hi))
    p = pa + HIST_SMOOTHING
    q = pb + HIST_SMOOTHING
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def estimate_kl(samples_a: np.ndarray, samples_b: np.ndarray, cfg: KlDetectorConfig) -> float:
    """Empirical KL between two sample sets of shape (samples, n).

    gaussian_fit matches per-component moments; histogram discretizes
    both sets over a shared 64-bin support with additive smoothing.
    Components are summed. Sample variances are floored at
    (VAR_FLOOR_REL * max(|mu_a|, |mu_b|))^2, and at least VAR_FLOOR, so
    that sets equal up to round-off report a KL near zero.
    """
    a = np.atleast_2d(np.asarray(samples_a, dtype=float))
    b = np.atleast_2d(np.asarray(samples_b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("sample sets must have matching shapes")
    if a.shape[0] < 2:
        raise ValueError("need at least two samples per set")
    if cfg.estimator is KlEstimator.HISTOGRAM:
        return float(sum(_histogram_kl(a[:, l], b[:, l]) for l in range(a.shape[1])))
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    floor = np.maximum((VAR_FLOOR_REL * np.maximum(np.abs(mu_a), np.abs(mu_b))) ** 2, VAR_FLOOR)
    var_a = np.maximum(a.var(axis=0), floor)
    var_b = np.maximum(b.var(axis=0), floor)
    return gaussian_kl(mu_a, var_a, mu_b, var_b)


def kl_verdict(kl: float, cfg: KlDetectorConfig, edge: tuple[int, int], k: int) -> EdgeVerdict:
    decision = "attacked" if kl > cfg.theta else "secure"
    return EdgeVerdict(edge=edge, step=k, detector="kl", statistic=float(kl), decision=decision)


def envelope(k: int, cfg: EnvelopeConfig) -> float:
    """Decay envelope tau(k) = M_r * exp(-lambda_min * k^(1-phi))."""
    if k < 1:
        raise ValueError("the envelope is defined for steps k >= 1")
    return cfg.M_r * math.exp(-cfg.lambda_min * float(k) ** (1.0 - cfg.phi))


def edge_residual(y_samples: np.ndarray, x_samples: np.ndarray) -> float:
    """Trial-averaged residual mean ||y - x|| for one edge and step."""
    y = np.atleast_2d(np.asarray(y_samples, dtype=float))
    x = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if y.shape != x.shape:
        raise ValueError("y and x sample blocks must have matching shapes")
    return float(np.linalg.norm(y - x, axis=1).mean())


def envelope_factor(bounds: StateBounds, mode: FactorMode) -> float:
    """Norm-splitting factor applied to the envelope threshold."""
    if bounds.eps2 == 0:
        raise ValueError("eps2 = 0 leaves the residual growth factor undefined")
    ratio = (bounds.eps1 ** 2 + bounds.eps2 ** 2) / bounds.eps2 ** 2
    if mode is FactorMode.ALGORITHM2:
        return math.sqrt(ratio)
    return math.sqrt(1.0 / ratio)


def envelope_verdict(
    d_k: float,
    d_ref: float,
    k: int,
    cfg: EnvelopeConfig,
    bounds: StateBounds,
    edge: tuple[int, int],
    msg_index: int = 1,
) -> EdgeVerdict:
    """Envelope decision for one copy of one edge at step k.

    d_ref is the last residual the detector still trusts (the previous
    step on a healthy edge). The edge is secure while

        d_k <= factor * d_ref * (tau(k) + delta)

    and the reported statistic is the ratio of the two sides.
    """
    if d_k < 0 or d_ref < 0:
        raise ValueError("residuals are nonnegative")
    threshold = envelope_factor(bounds, cfg.factor_mode) * d_ref * (envelope(k, cfg) + cfg.delta)
    if threshold == 0.0:
        ratio = 0.0 if d_k == 0.0 else math.inf
    else:
        ratio = d_k / threshold
    decision = "attacked" if ratio > 1.0 else "secure"
    return EdgeVerdict(
        edge=edge,
        step=k,
        detector=f"envelope{msg_index}",
        statistic=float(ratio),
        decision=decision,
    )


def lemma1_bound(gamma: np.ndarray, omega: np.ndarray, rho1: float, rho2: float) -> bool:
    """Verify the norm-splitting inequality on one vector pair.

    Both vectors must have every component in [rho1, rho2] with
    rho1 > 0; out-of-range inputs are rejected. Returns whether

        ||gamma|| + ||omega|| <= sqrt((rho1^2 + rho2^2) / rho1^2) * ||gamma + omega||

    holds (it always should; the return value exists for test suites).
    """
    if rho1 <= 0:
        raise ValueError("rho1 must be positive")
    if rho2 < rho1:
        raise ValueError("need rho1 <= rho2")
    g = np.asarray(gamma, dtype=float)
    o = np.asarray(omega, dtype=float)
    if g.shape != o.shape:
        raise ValueError("vectors must share a shape")
    for v in (g, o):
        if np.any(v < rho1) or np.any(v > rho2):
            raise ValueError("components must lie in [rho1, rho2]")
    lhs = np.linalg.norm(g) + np.linalg.norm(o)
    rhs = math.sqrt((rho1 ** 2 + rho2 ** 2) / rho1 ** 2) * np.linalg.norm(g + o)
    return bool(lhs <= rhs * (1.0 + 1e-12))
