"""numpy's SeedSequence hash and PCG64 seeding for many seeds in one pass, bit for bit.

The chains' Philox keys and the experiments' reference-cloud generators come from here.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameters

# numpy.random.SeedSequence's default pool size and hash constants.
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier and modulus.
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def int_words(n) -> list[int]:
    """numpy's little-endian uint32 words of a non-negative integer seed; 0 is one word."""
    n = int(n)
    return [(n >> shift) & MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def generate_state(words, n_words) -> np.ndarray:
    """SeedSequence pool mixing over ``words``, then ``generate_state(n_words, np.uint64)``.

    Each word is a Python int shared by every seed or a uint32 array; the arrays
    broadcast, and the uint64 words make a last axis.  ``len(words) >= POOL_SIZE``.
    """
    def hashmix(value, hash_const, mult):
        value = value ^ hash_const
        hash_const = (hash_const * mult) & MASK32
        value = (value * hash_const) & MASK32
        return value ^ (value >> 16), hash_const

    def mix(x, y):
        r = (((_MIX_MULT_L * x) & MASK32) - ((_MIX_MULT_R * y) & MASK32)) & MASK32
        return r ^ (r >> 16)

    hash_const = _INIT_A
    pool = []
    for word in words[:POOL_SIZE]:
        value, hash_const = hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                value, hash_const = hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = mix(pool[dst], value)
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            value, hash_const = hashmix(word, hash_const, _MULT_A)
            pool[dst] = mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for word in (pool * n_words)[:2 * n_words]:  # the pool, cycled
        value, hash_const = hashmix(word, hash_const, _MULT_B)
        state.append(np.asarray(value, dtype=np.uint64))
    # Little-endian pairs of uint32 words make the uint64 words.
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])],
                    axis=-1)


def pcg64_states(seed, *columns):
    """``(state, inc)`` of ``default_rng((seed, *values))`` for the values of the
    broadcast integer ``columns``, each below 2**32, as object arrays of Python ints.

    PCG64 seeds from ``generate_state(4, np.uint64)`` = (initstate, initseq),
    high word first: ``inc = 2 initseq + 1``, ``state = (inc + initstate) MULT + inc``.
    """
    if max(np.max(c, initial=0) for c in columns) > MASK32:
        raise InvalidParameters("a seed's values after the first must be below 2**32")
    words = int_words(seed) + [np.asarray(c, dtype=np.uint32) for c in columns]
    w = generate_state(words, 4).astype(object)
    initstate = (w[..., 0] << 64) | w[..., 1]
    inc = (((w[..., 2] << 64) | w[..., 3]) << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc
