"""Random streams: derive_rngs against numpy's SeedSequence and derive_rng."""

import zlib

import numpy as np
import pytest

from salab.rng import derive_rng, derive_rngs

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**30]


def draws(rng):
    """Three integers(3) draws, an odd number of 32-bit words, then float64 and float32 uniforms."""
    return [rng.integers(3) for _ in range(3)], rng.random(5), rng.random(4, dtype=np.float32)


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_each_stream_has_the_seed_sequence_key_and_the_draws_of_derive_rng(seed, n):
    tag = "corpus"
    i = -1
    for i, rng in enumerate(derive_rngs(seed, tag, n)):
        spawn_key = (zlib.crc32(tag.encode()), zlib.crc32(str(i).encode()))
        key = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(2, np.uint64)
        np.testing.assert_array_equal(rng.bit_generator.state["state"]["key"], key)
        for got, want in zip(draws(rng), draws(derive_rng(seed, tag, i))):
            np.testing.assert_array_equal(got, want)
    assert i == n - 1


def test_a_stream_ending_on_a_buffered_half_word_leaves_nothing_to_the_next():
    streams = derive_rngs(7, "corpus", 2)
    first = next(streams)
    first.integers(3)  # one 32-bit word: the other half of its 64-bit draw stays buffered
    assert first.bit_generator.state["has_uint32"] == 1
    second, ref = next(streams), derive_rng(7, "corpus", 1)
    assert [second.integers(3) for _ in range(8)] == [ref.integers(3) for _ in range(8)]


@pytest.mark.parametrize("n", [0, 3])
def test_a_negative_seed_raises_as_derive_rng_does(n):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        derive_rng(-1, "corpus", 0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        list(derive_rngs(-1, "corpus", n))
