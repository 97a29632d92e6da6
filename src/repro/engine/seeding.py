"""Seeded NumPy generators built many keys at a time.

Every failure stream of :mod:`repro.engine.traces` is keyed by a short
list of non-negative integers and must equal ``np.random.default_rng(key)``
draw for draw.  Building one such generator costs ~27 us, most of it in
:class:`numpy.random.SeedSequence`: its entropy hashing runs word by
word in Python-called code.  A Figure 8 campaign round needs ~1,500 of
them, so that construction was two thirds of trace generation.

:func:`generators` builds the same generators for many keys at once.
It mirrors ``SeedSequence(key).generate_state(4, np.uint64)`` -- the
state ``PCG64`` asks its seed sequence for -- with uint32 array
arithmetic over all keys (:func:`seed_states`), then hands each row to
``PCG64`` through :class:`_StateWords`, a seed sequence that returns a
precomputed state.  The hash constants do not depend on the data, so
one pass of the documented SeedSequence algorithm (NumPy's
``bit_generator.pyx``: ``hashmix``, ``mix`` and a 4-word pool) serves
every key; the result is bit-identical to ``default_rng(key)``.

Keys of up to four 32-bit words share a pass after zero-padding:
SeedSequence hashes an absent pool word exactly as a zero word, so
``[5, 3]`` and ``[5, 3, 0, 0]`` seed the same stream.  Longer keys mix
their extra words into the pool one by one and are grouped by length.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
#: SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: uint32 words PCG64 reads from its seed sequence (4 x uint64)
_STATE_WORDS = 8


def _key_words(key: Sequence[int]) -> List[int]:
    """``key`` as SeedSequence's entropy words: each integer split into
    32-bit words, least significant first (``0`` is one zero word)."""
    words: List[int] = []
    for value in key:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _entropy_groups(
    keys: Sequence[Sequence[int]],
) -> List[Tuple[List[int], np.ndarray]]:
    """Keys grouped by padded entropy width: ``(rows, entropy)`` pairs,
    ``entropy`` a ``(len(rows), width)`` uint32 array of those keys."""
    # width -> (rows, their zero-padded words laid end to end)
    by_width: Dict[int, Tuple[List[int], List[int]]] = {}
    for row, key in enumerate(keys):
        words = _key_words(key)
        width = max(len(words), _POOL_SIZE)
        rows, flat = by_width.setdefault(width, ([], []))
        rows.append(row)
        flat += words
        flat += [0] * (width - len(words))
    return [
        (rows, np.array(flat, dtype=np.uint32).reshape(len(rows), width))
        for width, (rows, flat) in by_width.items()
    ]


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of a
    ``(rows, width >= 4)`` uint32 entropy array, as ``(rows, 4)``."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value *= np.uint32(const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    pool = [hashmix(entropy[:, index]) for index in range(_POOL_SIZE)]
    # mix every pool word into every other, so late words reach early ones
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    # entropy beyond the pool is mixed into every pool word
    for source in range(_POOL_SIZE, entropy.shape[1]):
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(entropy[:, source]))
    state = np.empty((entropy.shape[0], _STATE_WORDS), dtype=np.uint32)
    const = _INIT_B
    for index in range(_STATE_WORDS):
        value = pool[index % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value *= np.uint32(const)
        value ^= value >> _XSHIFT
        state[:, index] = value
    # word pairs read as little-endian uint64, as SeedSequence does
    return np.ascontiguousarray(
        state.astype("<u4").view("<u8"), dtype=np.uint64)


def seed_states(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """Row ``i`` equals ``SeedSequence(keys[i]).generate_state(4,
    np.uint64)``; all keys are hashed together."""
    states = np.empty((len(keys), _STATE_WORDS // 2), dtype=np.uint64)
    if not len(keys):
        return states
    for rows, entropy in _entropy_groups(keys):
        states[rows] = _pool_states(entropy)
    return states


class _StateWords(ISeedSequence):
    """A seed sequence whose PCG64 state is already computed."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _STATE_WORDS // 2 or dtype is not np.uint64:
            raise ValueError("holds PCG64's four uint64 state words only")
        return self._words


def generators(keys: Sequence[Sequence[int]]) -> List[np.random.Generator]:
    """``[np.random.default_rng(key) for key in keys]``, bit-identical,
    with the seeding of all keys done in one array pass."""
    # each row is a C-contiguous view: PCG64 reads its data pointer
    return [np.random.Generator(np.random.PCG64(_StateWords(words)))
            for words in seed_states(keys)]
