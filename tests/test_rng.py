import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growformer import rng
from growformer.errors import ValidationError
from growformer.rng import (
    RngState,
    StreamTag,
    derive_seed,
    seeded_gaussian,
    seeded_ints,
    seeded_uniform,
    subsample,
)


def test_same_seed_same_matrix():
    a = seeded_gaussian(RngState(42), 5, 7)
    b = seeded_gaussian(RngState(42), 5, 7)
    assert np.array_equal(a, b)


def test_position_advances_and_replays():
    s = RngState(42)
    first = seeded_gaussian(s, 3, 3)
    assert s.position == 18
    second = seeded_gaussian(s, 3, 3)
    assert not np.array_equal(first, second)
    # seeking back to the recorded position replays the second block
    replay = seeded_gaussian(RngState(42, position=18), 3, 3)
    assert np.array_equal(second, replay)


def test_zero_std_gives_constant():
    m = seeded_gaussian(RngState(1), 4, 4, mean=2.5, std=0.0)
    assert np.array_equal(m, np.full((4, 4), 2.5))


def test_negative_std_rejected():
    with pytest.raises(ValidationError):
        seeded_gaussian(RngState(1), 2, 2, std=-1.0)


def test_sample_moments():
    z = seeded_gaussian(RngState(2024), 1, 100_000).ravel()
    assert 0.99 <= z.std() <= 1.01
    assert abs(z.mean()) < 0.02


def test_uniform_range_and_mean():
    u = seeded_uniform(RngState(5), 1, 50_000).ravel()
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_ints_in_range():
    x = seeded_ints(RngState(9), 10_000, 64)
    assert x.min() >= 0 and x.max() < 64
    assert len(np.unique(x)) == 64


def test_counter_runs_to_its_last_slot_and_refuses_past_it():
    state = RngState(1, 2**64 - 1)
    assert seeded_ints(state, 1, 10).shape == (1,)
    assert state.position == 2**64
    with pytest.raises(ValidationError, match="rng stream exhausted"):
        seeded_ints(RngState(1, 2**64 - 1), 2, 10)


def test_derive_seed_decorrelates():
    # tags one apart, as the markov table and the markov tokens of stream 0
    a = seeded_gaussian(RngState(derive_seed(1, StreamTag.MARKOV_TABLE)), 2, 2)
    b = seeded_gaussian(RngState(derive_seed(1, StreamTag.MARKOV)), 2, 2)
    assert not np.array_equal(a, b)


def test_stream_tags_are_pairwise_distinct():
    # an enum member equal to another is an alias of it: two streams in one
    values = [tag.value for tag in StreamTag.__members__.values()]
    assert len(set(values)) == len(values)


def test_subsample_deterministic_and_without_replacement():
    values = np.arange(1000.0)
    a = subsample(RngState(3), values, 100)
    b = subsample(RngState(3), values, 100)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 100


def test_subsample_passthrough_when_small():
    values = np.arange(10.0)
    assert subsample(RngState(3), values, 100) is values


def reference_subsample(state, values, limit):
    """Oracle: the per-element partial Fisher-Yates that the memoised
    index prefix replaced."""
    n = values.shape[0]
    if n <= limit:
        return values
    u = rng._raw_uniforms(state, limit)
    idx = np.arange(n)
    out = np.empty(limit, dtype=values.dtype)
    for i in range(limit):
        j = i + int(u[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
        out[i] = values[idx[i]]
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4000),
    st.integers(1, 4000),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**40),
)
def test_subsample_matches_loop(n, limit, seed, position):
    values = np.random.default_rng(seed % 2**32).normal(size=n)
    ref_state = RngState(seed, position)
    expected = reference_subsample(ref_state, values, limit)
    state = RngState(seed, position)
    got = subsample(state, values, limit)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert state.position == ref_state.position == position + (limit if n > limit else 0)
    again = RngState(seed, position)
    assert np.array_equal(subsample(again, values, limit), expected)  # memoised prefix
    assert again.position == state.position


def test_mutating_a_sample_leaves_the_next_draw_alone():
    values = np.arange(5000.0)
    first = subsample(RngState(8), values, 300)
    expected = first.copy()
    first[:] = -1.0
    assert np.array_equal(subsample(RngState(8), values, 300), expected)
    assert np.array_equal(values, np.arange(5000.0))


def test_subsample_pinned_digest():
    # recorded with the per-element loop, before the prefix was memoised
    out = subsample(RngState(3), np.arange(150_000.0), 100_000)
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "ddeecfdc6eb911b6402169d3eb1ae35123d8836c1eb441ab8918ce0dbf59fdb9"
    )


def test_all_ones_word_stays_below_one(monkeypatch):
    # the top 53 bits of an all-ones word, plus half an ulp, round to 1.0
    monkeypatch.setattr(rng, "_mix64", lambda x: np.full_like(x, np.uint64(2**64 - 1)))
    rng._fisher_yates_prefix.cache_clear()
    try:
        assert (seeded_uniform(RngState(0), 2, 3) < 1.0).all()
        picked = subsample(RngState(0), np.arange(10), 3)
        assert picked.min() >= 0 and picked.max() < 10
    finally:
        rng._fisher_yates_prefix.cache_clear()
