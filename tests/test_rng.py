"""Random streams: stream_words and StreamDecoder against numpy's SeedSequence and derive_rng."""

import zlib

import numpy as np
import pytest

from salab.rng import StreamDecoder, derive_rng, stream_words

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**30]


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_each_stream_has_the_seed_sequence_key_and_the_draws_of_derive_rng(seed, n):
    tag, m = "corpus", 5  # five words: a Philox block of four and one more
    words = stream_words(seed, tag, 0, n, m)
    assert words.shape == (n, m) and words.dtype == np.uint64
    for i in range(n):
        spawn_key = (zlib.crc32(tag.encode()), zlib.crc32(str(i).encode()))
        key = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(2, np.uint64)
        np.testing.assert_array_equal(words[i], np.random.Philox(key=key).random_raw(m))
        np.testing.assert_array_equal(words[i], derive_rng(seed, tag, i).bit_generator.random_raw(m))


@pytest.mark.parametrize("start, stop", [(0, 3), (5, 9), (998, 1001)])
def test_a_run_of_streams_is_the_same_rows_of_any_run_holding_it(start, stop):
    np.testing.assert_array_equal(stream_words(7, "corpus", start, stop, 6),
                                  stream_words(7, "corpus", 0, 1001, 6)[start:stop])


def test_a_stream_ending_on_a_buffered_half_word_leaves_nothing_to_the_next():
    rng = StreamDecoder(7, "corpus", 0, 2, 4)
    rng.integers(0, 3, np.array([0]))  # one 32-bit word: the other half of its 64-bit draw stays buffered
    assert rng.has_half.tolist() == [True, False]
    ref = derive_rng(7, "corpus", 1)
    assert [rng.integers(0, 3, np.array([1]))[0] for _ in range(8)] == [ref.integers(3) for _ in range(8)]


@pytest.mark.parametrize("n", [0, 3])
def test_a_negative_seed_raises_as_derive_rng_does(n):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        derive_rng(-1, "corpus", 0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        stream_words(-1, "corpus", 0, n, 4)


SPANS = [1, 2, 3, 7, 2**31 + 1, 2**32]  # 2**31 + 1 rejects about half its draws; 2**32 never


def draw_script(seed, steps):
    """A random interleaving of random() and integers(lo, lo + span) calls."""
    pick = np.random.default_rng(seed)
    return [("random", 0, 0) if pick.random() < 0.4 else
            ("integers", int(pick.integers(-5, 5)), int(SPANS[pick.integers(len(SPANS))]))
            for _ in range(steps)]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5], ids=str)
def test_the_decoder_makes_the_draws_of_derive_rng_in_any_order(seed):
    """Four streams run four scripts in lockstep, each on its own subset of the calls, and
    every draw equals derive_rng's; a few words at first, so streams also refetch."""
    n, steps = 4, 200
    scripts = [draw_script(1000 * seed % 2**32 + i, steps) for i in range(n)]
    rng = StreamDecoder(seed, "corpus", 0, n, 3)
    got = [[] for _ in range(n)]
    for step in range(steps):
        calls = {}
        for i, call in enumerate(scripts[i][step] for i in range(n)):
            calls.setdefault(call[0], []).append((i, *call[1:]))
        for kind, group in calls.items():
            rows = np.array([i for i, *_ in group])
            if kind == "random":
                out = rng.random(rows)
            else:
                lo, span = (np.array(v) for v in zip(*[g[1:] for g in group]))
                out = rng.integers(lo, lo + span, rows)
            for i, v in zip(rows, out.tolist()):
                got[i].append(v)
    for i, script in enumerate(scripts):
        ref = derive_rng(seed, "corpus", i)
        want = [ref.random() if kind == "random" else int(ref.integers(lo, lo + span))
                for kind, lo, span in script]
        assert got[i] == want


def test_a_buffered_half_word_outlives_a_double():
    """integers, random, integers: the second integers takes the high half the first one
    buffered, after the double took the next word."""
    ref = derive_rng(0, "corpus", 0)
    want = [int(ref.integers(2**32)), ref.random(), int(ref.integers(2**32))]
    word = stream_words(0, "corpus", 0, 1, 2)[0]
    assert want == [int(word[0] & 0xFFFFFFFF), int(word[1] >> 11) / 2**53, int(word[0] >> 32)]
    rng, row = StreamDecoder(0, "corpus", 0, 1, 2), np.array([0])
    assert [rng.integers(0, 2**32, row)[0], rng.random(row)[0], rng.integers(0, 2**32, row)[0]] == want


def test_runs_of_doubles_are_random_of_their_counts():
    rng, rows = StreamDecoder(3, "corpus", 0, 3, 4), np.array([2, 0, 1])
    counts = np.array([5, 0, 9])
    u = rng.doubles(rows, rng.advance(rows, counts), counts)
    want = [derive_rng(3, "corpus", i).random(k) for i, k in zip(rows, counts)]
    np.testing.assert_array_equal(u, np.concatenate(want))


def test_a_range_of_2_to_the_32_values_or_more_is_refused():
    rng = StreamDecoder(0, "corpus", 0, 1, 2)
    assert rng.integers(0, 2**32, np.array([0])).dtype == np.int64
    with pytest.raises(ValueError, match="64 bits"):
        rng.integers(0, 2**32 + 1, np.array([0]))
