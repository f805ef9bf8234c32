"""Seeded counter-based random streams.

One master seed drives every source of randomness (init, dropout, data
shuffling, corpus generation).  Streams are derived by hashing string
tags into a SeedSequence spawn key, so adding a new consumer never
perturbs existing streams.  `derive_rng` is the definition of a stream.
`stream_words` returns the raw Philox words of a run of streams, keyed
in one pass, and `StreamDecoder` turns them into the draws numpy's
`Generator.random()` and `Generator.integers(lo, hi)` would make, for
many streams at once.  No other module knows Philox's state layout or
numpy's decoding rules.
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


def _philox_keys(seed: int, tag, start: int, stop: int) -> np.ndarray:
    """The [n, 2] Philox keys of derive_rng(seed, tag, i), start <= i < stop: SeedSequence's
    mixing and generate_state(2, np.uint64) over uint32 words in uint64 arrays (ints where all i
    share one, and throughout for a single stream)."""
    if (seed := int(seed)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed >> s & _MASK for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words)) + [zlib.crc32(str(tag).encode("utf-8"))]
    ids = [zlib.crc32(str(i).encode("utf-8")) for i in range(start, stop)]
    words.append(ids[0] if len(ids) == 1 else np.array(ids, np.uint64))  # one stream: all ints
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
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32], np.uint64).T.reshape(-1, 2)


def stream_words(seed: int, tag, start: int, stop: int, m: int) -> np.ndarray:
    """The first m raw 64-bit words of derive_rng(seed, tag, i) for start <= i < stop, as one
    [stop - start, m] uint64 array: one Philox re-keyed per stream, counter 0."""
    keys = _philox_keys(seed, tag, start, stop).tolist()  # ints: the state setter reads them fastest
    bits = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), m), np.uint64)
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bits.state = state
        row[:] = bits.random_raw(m)
    return out


def _doubles(words):
    """Generator.random()'s doubles from raw words: their top 53 bits."""
    return (words >> 11) * (1.0 / 2**53)


class StreamDecoder:
    """Generator.random() and Generator.integers(lo, hi) of derive_rng(seed, tag, i), for
    start <= i < stop, decoded from the streams' raw words in lockstep.

    numpy's rules (Philox4x64 words; Lemire 2019, "Fast Random Integer Generation in an
    Interval"): a double is a word's top 53 bits.  An integer over r <= 2**32 values takes a
    32-bit half-word, the high half buffered by the last draw that took a fresh word's low half,
    else a fresh word's low half; a double leaves that buffer alone.  The half-word x gives
    (x * r) >> 32 unless the low product (x * r) mod 2**32 < 2**32 mod r, which draws again.  A
    range of one value draws nothing.  Each method takes `rows`, distinct indices of streams, and
    a stream keeps its position, its buffered half and whether it has one.  The words start at
    m per stream; a stream that runs past them fetches every stream's words again, longer.
    """

    def __init__(self, seed: int, tag, start: int, stop: int, m: int):
        self._fetch = lambda m: stream_words(seed, tag, start, stop, m)
        self.words = self._fetch(m)
        n = stop - start
        self.pos = np.zeros(n, np.intp)
        self.half = np.zeros(n, np.uint64)
        self.has_half = np.zeros(n, bool)

    def advance(self, rows, counts):
        """Move streams rows past their next counts words; their positions before the move."""
        before = self.pos[rows]
        after = before + counts
        if len(rows) and (need := int(after.max())) > (m := self.words.shape[1]):
            self.words = self._fetch(max(2 * m, need))  # the same words, and more of them
        self.pos[rows] = after
        return before

    def doubles(self, rows, starts, counts):
        """random(counts[j]) of stream rows[j] from its words at starts[j], run after run."""
        first = rows * self.words.shape[1] + starts - np.cumsum(counts) + counts
        flat = np.repeat(first, counts) + np.arange(counts.sum())
        return _doubles(self.words.ravel()[flat])

    def random(self, rows):
        """One random() per stream in rows."""
        at = self.advance(rows, 1)
        return _doubles(self.words[rows, at])

    def integers(self, lo, hi, rows):
        """One integers(lo, hi) per stream in rows; lo and hi are scalars or one per row."""
        out, r = (np.zeros(len(rows), np.int64) + v for v in (lo, np.subtract(hi, lo)))
        draw = np.flatnonzero(r > 1)
        r = r[draw].astype(np.uint64)
        if len(r) and r.max() > 2**32:
            raise ValueError(f"integers over {r.max()} values: numpy draws those 64 bits at a time")
        low_cut = (2**32 - r) % r  # 2**32 mod r
        m = self._half_words(rows[draw]) * r
        while len(again := np.flatnonzero((m & _MASK) < low_cut)):
            m[again] = self._half_words(rows[draw[again]]) * r[again]
        out[draw] += (m >> 32).astype(np.int64)
        return out

    def _half_words(self, rows):
        """One 32-bit draw per stream in rows: the buffered high half, else a fresh word's low half."""
        has = self.has_half[rows]
        out = self.half[rows]
        fresh = rows[~has]
        at = self.advance(fresh, 1)
        words = self.words[fresh, at]
        out[~has] = words & _MASK
        self.half[fresh] = words >> 32
        self.has_half[rows] = ~has
        return out
