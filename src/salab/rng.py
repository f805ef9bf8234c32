"""Seeded counter-based random streams.

One master seed drives every source of randomness (init, dropout, data
shuffling, corpus generation).  Streams are derived by hashing string
tags into a SeedSequence spawn key, so adding a new consumer never
perturbs existing streams.  `derive_rngs` keys a run of streams in one
pass; no other module knows Philox's state layout.
"""

from __future__ import annotations

import zlib
from itertools import permutations, product

import numpy as np

_POOL, _MASK = 4, 0xFFFFFFFF  # numpy's SeedSequence: its pool size and hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """A Philox generator for (seed, tags); same arguments, same stream."""
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    key = [zlib.crc32(str(t).encode("utf-8")) for t in tags]
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _philox_keys(seed: int, tag, n: int) -> np.ndarray:
    """The [n, 2] Philox keys of derive_rng(seed, tag, i), i < n: SeedSequence's mixing and
    generate_state(2, np.uint64) over uint32 words in uint64 arrays (ints where all i share one)."""
    if (seed := int(seed)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed >> s & _MASK for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words)) + [zlib.crc32(str(tag).encode("utf-8"))]
    words.append(np.fromiter((zlib.crc32(str(i).encode("utf-8")) for i in range(n)), np.uint64, n))
    h = _INIT_A  # the hash constants run through a fixed sequence, whatever the words

    def hashmix(v, mult=_MULT_A):
        nonlocal h
        v = (v ^ h) * (h := h * mult & _MASK) & _MASK
        return v ^ v >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:_POOL]]
    for src, dst in permutations(range(_POOL), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in product(words[_POOL:], range(_POOL)):
        pool[dst] = mix(pool[dst], hashmix(w))
    h = _INIT_B
    state = [hashmix(v, _MULT_B) for v in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def derive_rngs(seed: int, tag, n: int):
    """derive_rng(seed, tag, i) for i < n, keyed in one pass: one Generator whose Philox is
    re-keyed for each i, counter 0 and buffer empty, so a stream ends when the next is yielded."""
    bits = np.random.Philox(0)
    fresh, rng = bits.state, np.random.Generator(bits)  # a fresh state: counter 0, no buffer
    for key in _philox_keys(seed, tag, n):  # uint64 rows: n lists of ints would add to peak memory
        fresh["state"]["key"] = key
        bits.state = fresh
        yield rng
