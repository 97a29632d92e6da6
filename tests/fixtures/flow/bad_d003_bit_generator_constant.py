# expect: D003
"""Bit generator seeded from a constant while a real seed is in scope."""
import numpy as np


def jitters(seed, count):
    rng = np.random.Generator(np.random.PCG64(1234))
    return [float(rng.random()) + seed for _ in range(count)]
