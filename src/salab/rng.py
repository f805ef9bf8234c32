"""Seeded counter-based random streams.

One master seed drives every source of randomness (init, dropout, data
shuffling, corpus generation).  Streams are derived by hashing string
tags into a SeedSequence spawn key, so adding a new consumer never
perturbs existing streams.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """A Philox generator for (seed, tags); same arguments, same stream."""
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    key = [zlib.crc32(str(t).encode("utf-8")) for t in tags]
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))
