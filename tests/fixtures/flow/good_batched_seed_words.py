# expect: clean
"""Generators built from precomputed seed-sequence words, one per
derived key: the shape of the batched trace-stream seeding."""
import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _StateWords(ISeedSequence):
    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def generators(keys):
    states = [np.random.SeedSequence(key).generate_state(4, np.uint64)
              for key in keys]
    return [np.random.Generator(np.random.PCG64(_StateWords(words)))
            for words in states]


def streams(seed, nodes, width):
    rngs = generators([(seed, node) for node in range(nodes)])
    return [rng.standard_exponential(width) for rng in rngs]
