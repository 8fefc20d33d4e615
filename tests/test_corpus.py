import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growformer import corpus
from growformer.corpus import (
    PATTERN_PERIOD,
    VOCAB,
    gen_corpus,
    markov_table,
    phrase_bank,
)
from growformer.errors import ValidationError
from growformer.rng import RngState, StreamTag, derive_seed, seeded_ints, seeded_uniform

from oracles import markov_stationary_unigram_entropy, unigram_entropy

# sha256 of gen_corpus("mixed", 0, 100_000, stream=2), recorded from the
# per-token searchsorted sampler, re-recorded when indexed streams came to
# derive in two levels
MIXED_100K_SHA256 = "d1c4aeeff8e0c73fe87d19287c10d9f75ed775c3bdee1432254483bf3a5f4337"


def searchsorted_markov_stream(seed, length, stream):
    """Reference: the per-token np.searchsorted loop the bisect sampler replaced."""
    table = markov_table(seed).reshape(VOCAB * VOCAB, VOCAB)
    cum = np.cumsum(table, axis=1)
    rng = RngState(derive_seed(seed, StreamTag.MARKOV, stream))
    out = np.empty(length, dtype=np.int64)
    start = seeded_ints(rng, 2, VOCAB)
    out[0] = start[0]
    if length > 1:
        out[1] = start[1]
    u = seeded_uniform(rng, 1, max(length - 2, 1)).ravel()
    for i in range(2, length):
        ctx = int(out[i - 2]) * VOCAB + int(out[i - 1])
        out[i] = int(np.searchsorted(cum[ctx], u[i - 2], side="right"))
    return out


class TestDeterminism:
    @pytest.mark.parametrize("generator", ["repeat-pattern", "markov-k2", "mixed"])
    def test_same_seed_same_stream(self, generator):
        a = gen_corpus(generator, 5, 2000)
        b = gen_corpus(generator, 5, 2000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = gen_corpus("markov-k2", 5, 2000, stream=0)
        b = gen_corpus("markov-k2", 5, 2000, stream=1)
        assert not np.array_equal(a, b)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError, match="unknown generator"):
            gen_corpus("fancy", 1, 100)


class TestRepeatPattern:
    def test_periodicity(self):
        stream = gen_corpus("repeat-pattern", 9, 500)
        assert np.array_equal(stream[: 500 - PATTERN_PERIOD], stream[PATTERN_PERIOD:])

    def test_range(self):
        stream = gen_corpus("repeat-pattern", 9, 500)
        assert stream.min() >= 0 and stream.max() < VOCAB


class TestMarkov:
    def test_rows_are_distributions(self):
        table = markov_table(3)
        assert table.shape == (VOCAB, VOCAB, VOCAB)
        assert np.abs(table.sum(axis=2) - 1.0).max() < 1e-12
        assert table.min() >= 0

    def test_unigram_entropy_matches_stationary_oracle(self):
        seed = 11
        stream = gen_corpus("markov-k2", seed, 200_000)
        empirical = unigram_entropy(stream)
        stationary = markov_stationary_unigram_entropy(seed)
        assert abs(empirical - stationary) / stationary < 0.05

    def test_transitions_respect_supports(self):
        seed = 4
        table = markov_table(seed)
        stream = gen_corpus("markov-k2", seed, 5000)
        for i in range(2, 200):
            p = table[stream[i - 2], stream[i - 1], stream[i]]
            assert p > 0


class TestSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["markov-k2", "mixed"]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 10_000),
        st.integers(1, 5000),
    )
    def test_bisect_matches_searchsorted_loop(self, generator, seed, stream, length):
        got = gen_corpus(generator, seed, length, stream=stream)
        with patch.object(corpus, "_markov_stream", searchsorted_markov_stream):
            want = gen_corpus(generator, seed, length, stream=stream)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    def test_mixed_stream_digest_pinned(self):
        stream = gen_corpus("mixed", 0, 100_000, stream=2)
        assert hashlib.sha256(stream.tobytes()).hexdigest() == MIXED_100K_SHA256

    def test_uniform_above_a_short_row_end_stays_in_vocab(self, monkeypatch):
        # rows of the cumulative table can end a few ulps below 1; the
        # largest uniform below 1 must still map to a token below VOCAB
        monkeypatch.setattr(
            corpus, "seeded_uniform", lambda state, rows, cols: np.full((rows, cols), 1 - 2**-53)
        )
        assert gen_corpus("markov-k2", 0, 2000).max() < VOCAB


class TestMixed:
    def test_phrase_blocks_come_from_bank(self):
        seed = 7
        bank = phrase_bank(seed)
        stream = gen_corpus("mixed", seed, 64 * 10)
        for b in range(1, 10, 2):  # odd blocks are phrases
            block = stream[b * 64 : (b + 1) * 64]
            assert any(np.array_equal(block, phrase) for phrase in bank)

    def test_even_blocks_match_markov_stream(self):
        seed = 7
        stream = gen_corpus("mixed", seed, 64 * 6)
        markov = gen_corpus("markov-k2", seed, 64 * 6)
        for b in range(0, 6, 2):
            assert np.array_equal(stream[b * 64 : (b + 1) * 64], markov[b * 64 : (b + 1) * 64])
