"""Synthetic token streams for desk-scale training runs.

Three deterministic generators over a 64-symbol vocabulary:

* ``repeat-pattern`` - a seeded period-16 pattern tiled to length.
* ``markov-k2``      - an order-2 Markov chain mixing a last-token and a
  second-to-last-token kernel: the bigram skeleton is easy to pick up,
  the pair-conditioned remainder is not.
* ``mixed``          - alternating 64-token blocks of markov text and
  phrases drawn from a fixed seeded bank. A phrase is longer than any
  in-window repetition, so predicting its continuation requires weights
  that store it: phrase mass converts model capacity into loss almost
  directly, which is what the growth experiments measure.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import ValidationError
from .rng import RngState, StreamTag, derive_seed, seeded_ints, seeded_uniform

VOCAB = 64
PATTERN_PERIOD = 16
_CONTEXT_SUPPORT = 4

GENERATORS = ("repeat-pattern", "markov-k2", "mixed")


def _pattern(seed: int) -> np.ndarray:
    rng = RngState(derive_seed(seed, StreamTag.PATTERN))
    return seeded_ints(rng, PATTERN_PERIOD, VOCAB)


def _repeat_stream(seed: int, length: int) -> np.ndarray:
    pattern = _pattern(seed)
    reps = length // PATTERN_PERIOD + 1
    return np.tile(pattern, reps)[:length]


def _sparse_kernel(rng: RngState) -> np.ndarray:
    """One 4-sparse 64x64 stochastic matrix."""
    support = seeded_ints(rng, VOCAB * _CONTEXT_SUPPORT, VOCAB).reshape(VOCAB, _CONTEXT_SUPPORT)
    weights = seeded_uniform(rng, VOCAB, _CONTEXT_SUPPORT) + 0.1
    kernel = np.zeros((VOCAB, VOCAB))
    rows = np.repeat(np.arange(VOCAB), _CONTEXT_SUPPORT)
    np.add.at(kernel, (rows, support.ravel()), weights.ravel())
    return kernel / kernel.sum(axis=1, keepdims=True)


def markov_table(seed: int) -> np.ndarray:
    """Transition tensor T[prev2, prev1, next]; rows sum to 1.

    The chain mixes a last-token kernel with a second-to-last-token
    kernel, so a model can first learn the dominant bigram structure and
    then needs genuine pair context (more capacity) to go further.
    """
    rng = RngState(derive_seed(seed, StreamTag.MARKOV_TABLE))
    k1 = _sparse_kernel(rng)  # next | prev1
    k2 = _sparse_kernel(rng)  # next | prev2
    table = 0.7 * k1[None, :, :] + 0.3 * k2[:, None, :]
    return table


def _markov_stream(seed: int, length: int, stream: int) -> np.ndarray:
    """Inverse-CDF sampling from the transition rows: token i is the
    number of entries of its context's cumulative row that are <= u_i.

    That count is ``bisect.bisect_right`` over the row's slice of the
    flattened cumulative table. A cumulative sum of non-negative weights
    never decreases and floats compare exactly, so it is the same index
    as ``np.searchsorted(row, u_i, side="right")``, one Python-level
    bisection instead of one numpy call per token. The table, the
    uniforms and the output are read and written through memoryviews,
    whose items are Python floats and ints.

    A row's float sum can end a few ulps below 1, and a uniform above its
    end would count all ``VOCAB`` entries, one past the last token. Each
    row's last entry is therefore set to 1.0, which every uniform in
    (0, 1) lies below; no draw under the old end changes its token.
    """
    table = markov_table(seed).reshape(VOCAB * VOCAB, VOCAB)
    cum = np.cumsum(table, axis=1)
    cum[:, -1] = 1.0
    rng = RngState(derive_seed(seed, StreamTag.MARKOV, stream))
    out = np.empty(length, dtype=np.int64)
    start = seeded_ints(rng, 2, VOCAB)
    out[0] = start[0]
    if length > 1:
        out[1] = start[1]
    u = memoryview(seeded_uniform(rng, 1, max(length - 2, 1)).ravel())
    flat = memoryview(cum.ravel())
    tokens = memoryview(out)
    for i in range(2, length):
        lo = (tokens[i - 2] * VOCAB + tokens[i - 1]) * VOCAB
        tokens[i] = bisect_right(flat, u[i - 2], lo, lo + VOCAB) - lo
    return out


_PHRASE_BANK = 32
_PHRASE_LEN = 64


def phrase_bank(seed: int) -> np.ndarray:
    """The fixed bank of 64-token phrases behind the mixed generator."""
    rng = RngState(derive_seed(seed, StreamTag.PHRASE_BANK))
    return seeded_ints(rng, _PHRASE_BANK * _PHRASE_LEN, VOCAB).reshape(_PHRASE_BANK, _PHRASE_LEN)


def _mixed_stream(seed: int, length: int, stream: int) -> np.ndarray:
    bank = phrase_bank(seed)
    n_blocks = length // _PHRASE_LEN + 2
    mar = _markov_stream(seed, length, stream)
    picks = seeded_ints(RngState(derive_seed(seed, StreamTag.PHRASE_PICKS, stream)), n_blocks, _PHRASE_BANK)
    out = np.empty(length, dtype=np.int64)
    for b in range(n_blocks):
        start = b * _PHRASE_LEN
        if start >= length:
            break
        stop = min(start + _PHRASE_LEN, length)
        if b % 2 == 0:
            out[start:stop] = mar[start:stop]
        else:
            out[start:stop] = bank[int(picks[b])][: stop - start]
    return out


def gen_corpus(generator: str, seed: int, length: int, stream: int = 0) -> np.ndarray:
    """Deterministic token stream of the requested length.

    ``seed`` fixes the generator's structure (the pattern, the transition
    table, the phrase bank); ``stream`` selects disjoint sample streams
    from it, so held-out and continued-training data share the language
    of the training data without overlapping it.
    """
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    if generator == "repeat-pattern":
        return _repeat_stream(seed, length)
    if generator == "markov-k2":
        return _markov_stream(seed, length, stream)
    if generator == "mixed":
        return _mixed_stream(seed, length, stream)
    raise ValidationError(f"unknown generator {generator!r}; known: {GENERATORS}")
