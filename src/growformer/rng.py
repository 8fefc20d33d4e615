"""Counter-based deterministic random numbers.

A draw is a pure function of (seed, counter position), so a checkpoint
that records the position can replay the exact stream on any platform.
The generator is a splitmix64 finalizer applied to the counter; Gaussians
use Box-Muller with two counter slots per value. A stream has 2**64
counter slots; a draw past the last one is refused, not wrapped.

This module is the one home of the stream tags (``StreamTag``). Markov
tokens and phrase picks add the corpus stream s to their tag, so markov
stream 16443 draws the pattern tag, 24798 the phrase-bank tag, and s the
picks of stream s - 24799. No bound refuses them, as the benchmark's
corpus streams (8*seed + 2v in ``train``, 2*seed elsewhere) would meet
it: 24798 is the ``train`` stream of seed 3099. A new tag derivation
would change every corpus byte.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_BELOW_ONE = np.nextafter(1.0, 0.0)
ALGORITHM = "splitmix64-boxmuller"

HELDOUT_STREAM = 7919  # corpus sample stream of the held-out windows; no training run draws it
CONTINUED_OFFSET = 2  # continued training draws the base's corpus stream plus this


class StreamTag(enum.IntEnum):
    INIT_DRAWS = 1  # model.init_params, under the init seed
    ORDER = 0x0D0E  # training data order, under the run seed
    INIT = 0x1217  # the init seed, under the run seed
    MARKOV_TABLE = 0x3A3B  # the markov transition table, under the corpus seed
    MARKOV = 0x3A3C  # plus the sample stream: markov tokens
    GROWTH_FILL = 0x6702  # new-block fill, under the growth plan seed
    PATTERN = 0x7A77  # the repeat generator's pattern
    PHRASE_BANK = 0x9B1A  # the mixed generator's phrase bank
    PHRASE_PICKS = 0x9B1B  # plus the sample stream: the mixed generator's phrase picks


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


@dataclass
class RngState:
    seed: int
    position: int = 0

    def to_dict(self) -> dict:
        return {
            "algorithm": ALGORITHM,
            "seed": int(self.seed),
            "position": int(self.position),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RngState":
        """Read ``to_dict`` output: ``seed`` and ``position`` are non-negative
        ints, and ``algorithm`` is the one this module implements."""
        for name in ("seed", "position"):
            check_int("rng", name, d[name], minimum=0)
        algorithm = d.get("algorithm", ALGORITHM)
        if algorithm != ALGORITHM:
            raise ValidationError(
                f"rng config: algorithm must be {ALGORITHM!r}, got {algorithm!r}"
            )
        return cls(seed=d["seed"], position=d["position"])


def derive_seed(seed: int, tag: int) -> int:
    """A decorrelated child seed for an independent stream."""
    base = ((seed ^ (tag * 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & _U64_MASK
    return int(_mix64(np.array([base], dtype=np.uint64))[0])


def _raw_uniforms(state: RngState, n: int) -> np.ndarray:
    # Wrapping would replay the stream from counter 0, so refuse instead.
    if state.position + n > _U64_MASK + 1:
        raise ValidationError(
            f"rng stream exhausted: position {state.position} + {n} draws "
            "passes the 2**64 counter limit"
        )
    counters = np.arange(state.position, state.position + n, dtype=np.uint64)
    words = _mix64((counters + np.uint64(1)) * _GOLDEN + np.uint64(state.seed & _U64_MASK))
    state.position += n
    # top 53 bits, offset by half an ulp so log() stays finite. The
    # all-ones word rounds up to exactly 1.0 (2^53 - 1 + 0.5 is not a
    # float64), so clamp: every draw lies in (0, 1).
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)
    return np.minimum(u, _BELOW_ONE, out=u)


def seeded_uniform(state: RngState, rows: int, cols: int) -> np.ndarray:
    """Uniform (0,1) matrix, advancing the stream by rows*cols slots."""
    return _raw_uniforms(state, rows * cols).reshape(rows, cols)


def seeded_gaussian(
    state: RngState, rows: int, cols: int, mean: float = 0.0, std: float = 1.0
) -> np.ndarray:
    """Gaussian matrix, advancing the stream by 2*rows*cols slots."""
    if std < 0:
        raise ValidationError(f"std must be >= 0, got {std}")
    n = rows * cols
    u = _raw_uniforms(state, 2 * n)
    z = np.sqrt(-2.0 * np.log(u[:n])) * np.cos(2.0 * np.pi * u[n:])
    return (mean + std * z).reshape(rows, cols)


def seeded_ints(state: RngState, n: int, high: int) -> np.ndarray:
    """n integers uniform on [0, high)."""
    if high <= 0:
        raise ValidationError(f"high must be positive, got {high}")
    u = _raw_uniforms(state, n)
    return np.minimum((u * high).astype(np.int64), high - 1)


def subsample(state: RngState, values: np.ndarray, limit: int) -> np.ndarray:
    """Draw ``limit`` entries without replacement (partial Fisher-Yates).

    Returns ``values`` unchanged, and leaves ``state`` where it was, when
    it is already small enough. Otherwise the drawn index prefix is a pure
    function of ``(seed, position, n, limit)``, independent of the values,
    and is memoised on those four ints; the stream advances by ``limit``
    and the result is a fresh array, ``values[prefix]``.
    """
    n = values.shape[0]
    if n <= limit:
        return values
    prefix = _fisher_yates_prefix(state.seed, state.position, n, limit)
    state.position += limit
    return values[prefix]


@functools.lru_cache(maxsize=8)
def _fisher_yates_prefix(seed: int, position: int, n: int, limit: int) -> np.ndarray:
    """Read-only first ``limit`` entries of a seeded shuffle of range(n):
    step i swaps slot i with slot i + int(u_i * (n - i))."""
    u = _raw_uniforms(RngState(seed, position), limit)
    steps = np.arange(limit)
    targets = steps + (u * (n - steps)).astype(np.int64)
    idx = np.arange(n)
    # memoryview items are Python ints, several times cheaper than numpy scalars
    slots = memoryview(idx)
    for i, j in enumerate(memoryview(targets)):
        slots[i], slots[j] = slots[j], slots[i]
    prefix = idx[:limit].copy()
    prefix.flags.writeable = False
    return prefix
