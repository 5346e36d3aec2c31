"""Dual multiplicative-additive watermarking of transmitted states.

Each directed edge carries two copies of the same plaintext vector per
step, each masked with its own one-time diagonal multiplier and
additive offset. For copy r in {1, 2} the sender applies

    ybar_r = m_r^(-1) * ytilde + F_r        (componentwise)

and the receiver undoes it with

    ystar_r = m_r * (ybar_r - F_r)

where the stored diagonal is m_r = lambda_r + M_r^2 with
M_r ~ N(0, sigma_Mr^2) drawn fresh per component and step, and
F_r ~ N(0, sigma_Fr^2). On a clean channel removal returns the
plaintext, so both recovered copies are the plaintext itself and carry
the consensus residual an unwatermarked message would; the step kernel
runs the round trip only on tampered messages. A channel attack
ybar -> Xi * ybar + Lam leaks through removal as

    ystar_r = Xi ytilde + m_r * ((Xi - 1) F_r + Lam)

so any multiplicative or additive tampering picks up the secret m_r
and F_r, and the two copies decohere. Both ends derive the draws from
a shared seed, counter-style, per (edge, step, trial), so no watermark
material ever travels on the wire.

Stream key path: stream_keys hashes (master_seed, trial, j, i, tag) for
a whole chunk of trials and edges at once, bit for bit as numpy's
SeedSequence would, and edge_stream wraps one row of those words in
Generator(PCG64). Each stream therefore draws exactly the numbers of
default_rng(SeedSequence([master_seed, trial, j, i, tag])); only the
per-stream hashing cost is gone. A watermark stream's step-k draw is
row k-1 of standard_normal((K, 4, n)), components m1, m2, f1, f2 in
that order, and watermark_blocks turns such draws in place into one
material pair (m, f), each with the copy r along its axis -2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from ._checks import real

# Stream tags for per-edge generators; the simulation engine derives
# its pregenerated blocks from the same (seed, trial, j, i, tag) tuple.
STREAM_NOISE = 0
STREAM_WATERMARK = 1
STREAM_BYZANTINE = 2


@dataclass(frozen=True)
class WatermarkParams:
    """Secret distribution parameters shared by sender and receiver,
    each a positive real; a zero lambda_r would make removal singular."""

    lambda1: float
    lambda2: float
    sigma2_m1: float
    sigma2_m2: float
    sigma2_f1: float
    sigma2_f2: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, real(getattr(self, f.name), f.name, 0))


# SeedSequence's hash constants (numpy.random.bit_generator); stream_keys
# must reproduce its pool mixing and generate_state word for word.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = np.uint32(16)


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int, split as
    SeedSequence splits each entropy entry (0 is one word)."""
    if value < 0:
        raise ValueError("stream key entries must be nonnegative")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return v ^ (v >> _SHIFT)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's multiplicative hash step; the constant advances on
    every call, whatever the data, so it is a plain int shared by all lanes."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)

    return step


def stream_keys(master_seed: int, trial_ids, edges, tag: int) -> np.ndarray:
    """PCG64 seed words of every (trial, edge) stream, shape (T, E, 4) uint64.

    Row [t, e] equals
    SeedSequence([master_seed, trial_ids[t], j, i, tag]).generate_state(4, uint64)
    for edges[e] = (j, i): the hash runs once over uint32 lanes, one
    lane per (trial, edge), instead of once per stream. master_seed may
    span several 32-bit words; trial, j, i and tag must each fit in one.
    """
    trials = np.asarray(trial_ids, dtype=np.int64).reshape(-1)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for part in (trials, pairs, np.array([tag])):
        if part.size and (part.min() < 0 or part.max() > _MASK32):
            raise ValueError("trial, edge and tag key entries must fit in one 32-bit word")
    shape = (trials.size, pairs.shape[0])
    entropy = [np.uint32(w) for w in _words(int(master_seed))]
    entropy += [trials[:, None], pairs[None, :, 0], pairs[None, :, 1], np.uint32(tag)]
    entropy = [np.broadcast_to(np.asarray(w, dtype=np.uint32), shape) for w in entropy]

    # At least five entropy words, so the pool never needs padding.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words cycling over the
    # pool, paired little-endian into uint64.
    out = _hasher(_INIT_B, _MULT_B)
    half = [out(pool[d % _POOL]).astype(np.uint64) for d in range(8)]
    keys = np.empty(shape + (4,), dtype=np.uint64)
    for w in range(4):
        keys[..., w] = half[2 * w] | (half[2 * w + 1] << np.uint64(32))
    return keys


@functools.cache
def _stream_key_type() -> type:
    """The ISeedSequence that hands PCG64 the words stream_keys computed.

    Defined on first use: numpy imports numpy.random lazily, and
    importing it here would load it with maswatch even for commands that
    draw nothing.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamKey(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a stream key holds exactly the 4 uint64 words PCG64 asks for")
            return self.words

    return StreamKey


def edge_stream(key: np.ndarray) -> np.random.Generator:
    """Generator of one (trial, edge, tag) stream from its row of stream_keys.

    It draws the same numbers as
    default_rng(SeedSequence([master_seed, trial, j, i, tag])).
    """
    return np.random.Generator(np.random.PCG64(_stream_key_type()(np.ascontiguousarray(key, dtype=np.uint64))))


def watermark_blocks(z: np.ndarray, params: WatermarkParams) -> tuple[np.ndarray, np.ndarray]:
    """Turn standard-normal draws into watermark material, in place.

    z has shape (..., 4, n) with the components m1, m2, f1, f2 along
    axis -2: one stream's draw (K, 4, n), or a chunk's slab of such
    draws (T, E, Kb, 4, n). Returns the views m = z[..., :2, :] and
    f = z[..., 2:, :], whose axis -2 is the copy r, with
    m_r = lambda_r + (sigma_Mr z)^2 and F_r = sigma_Fr z.

    A stream's step-k draw is row k-1 of standard_normal((K, 4, n)),
    which does not depend on K, so sender and receiver reconstruct the
    same material from the edge's stream without transmitting it.
    """
    p, n = params, z.shape[-1]
    # Full (4, n) and (2, n) operands: a length-1 axis would cut numpy's inner loop to n.
    z *= np.repeat(np.sqrt([[p.sigma2_m1], [p.sigma2_m2], [p.sigma2_f1], [p.sigma2_f2]]), n, axis=1)
    m, f = z[..., :2, :], z[..., 2:, :]
    np.square(m, out=m)
    m += np.repeat([[p.lambda1], [p.lambda2]], n, axis=1)
    return m, f


def apply_watermark(plain: np.ndarray, m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Mask one plaintext vector into its two transmitted copies.

    m and f are one step's (2, n) material of one edge, the copy r in
    row r-1 as watermark_blocks lays it out; so is the returned pair.
    """
    return np.asarray(plain, dtype=float) / m + f


def remove_watermark(y: np.ndarray, m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Undo both masks of a (2, n) pair, the copy r in row r-1."""
    return m * (np.asarray(y, dtype=float) - f)
