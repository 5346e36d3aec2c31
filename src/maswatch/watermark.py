"""Dual multiplicative-additive watermarking of transmitted states.

Each directed edge carries two copies of the same plaintext vector per
step, each masked with its own one-time diagonal multiplier and
additive offset. For copy r in {1, 2} the sender applies

    ybar_r = m_r^(-1) * ytilde + F_r        (componentwise)

and the receiver undoes it with

    ystar_r = m_r * (ybar_r - F_r)

where the stored diagonal is m_r = lambda_r + M_r^2 with
M_r ~ N(0, sigma_Mr^2) drawn fresh per component and step, and
F_r ~ N(0, sigma_Fr^2). Round-trip is exact on a clean channel. A
channel attack ybar -> Xi * ybar + Lam leaks through removal as

    ystar_r = Xi ytilde + m_r * ((Xi - 1) F_r + Lam)

so any multiplicative or additive tampering picks up the secret m_r
and F_r, and the two copies decohere. Both ends derive the draws from
a shared seed, counter-style, per (edge, step, trial), so no watermark
material ever travels on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream tags for per-edge generators; the simulation engine derives
# its pregenerated blocks from the same (seed, trial, j, i, tag) tuple.
STREAM_NOISE = 0
STREAM_WATERMARK = 1
STREAM_BYZANTINE = 2


@dataclass(frozen=True)
class WatermarkParams:
    """Secret distribution parameters shared by sender and receiver."""

    lambda1: float
    lambda2: float
    sigma2_m1: float
    sigma2_m2: float
    sigma2_f1: float
    sigma2_f2: float

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda_r must be positive; zero would make removal singular")
        for name in ("sigma2_m1", "sigma2_m2", "sigma2_f1", "sigma2_f2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class WatermarkDraw:
    """One step's watermark material for one edge.

    m1, m2 are the diagonal removal multipliers (lambda_r + M_r^2, so
    every entry exceeds lambda_r); f1, f2 the additive offsets.
    """

    m1: np.ndarray
    m2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    @property
    def n(self) -> int:
        return self.m1.shape[0]


@dataclass(frozen=True)
class MessageSet:
    """The watermarked pair as it travels on one edge."""

    y1: np.ndarray
    y2: np.ndarray


def edge_stream(master_seed: int, trial: int, edge: tuple[int, int], tag: int) -> np.random.Generator:
    """Independent generator for one (trial, edge) stream."""
    j, i = edge
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial, j, i, tag]))


def watermark_blocks(
    rng: np.random.Generator, steps: int, n: int, params: WatermarkParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Watermark material for steps 1..steps as (steps, n) arrays.

    Row k-1 of each array is the step-k draw, and it does not depend
    on how many steps are drawn, so sender and receiver reconstruct
    the same material from the edge's stream without transmitting it.
    """
    z = rng.standard_normal((steps, 4 * n))
    m1 = params.lambda1 + (np.sqrt(params.sigma2_m1) * z[:, 0:n]) ** 2
    m2 = params.lambda2 + (np.sqrt(params.sigma2_m2) * z[:, n : 2 * n]) ** 2
    f1 = np.sqrt(params.sigma2_f1) * z[:, 2 * n : 3 * n]
    f2 = np.sqrt(params.sigma2_f2) * z[:, 3 * n : 4 * n]
    return m1, m2, f1, f2


def identity_draw(n: int) -> WatermarkDraw:
    """Pass-through material (m = 1, F = 0): the identity-watermark path.

    Deliberately violates the m > lambda_r invariant of real draws;
    apply/remove become the identity.
    """
    one = np.ones(n)
    zero = np.zeros(n)
    return WatermarkDraw(m1=one, m2=one, f1=zero, f2=zero)


def apply_watermark(plain: np.ndarray, draw: WatermarkDraw) -> MessageSet:
    """Mask one plaintext vector into its two transmitted copies."""
    plain = np.asarray(plain, dtype=float)
    y1 = plain / draw.m1 + draw.f1
    y2 = plain / draw.m2 + draw.f2
    return MessageSet(y1=y1, y2=y2)


def remove_watermark(ms: MessageSet, draw: WatermarkDraw) -> tuple[np.ndarray, np.ndarray]:
    """Undo both masks; exact round-trip when the channel was clean."""
    y1 = draw.m1 * (np.asarray(ms.y1, dtype=float) - draw.f1)
    y2 = draw.m2 * (np.asarray(ms.y2, dtype=float) - draw.f2)
    return y1, y2
