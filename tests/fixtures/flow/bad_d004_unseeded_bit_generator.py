# expect: D004
"""Module-global generator over an unseeded PCG64, drawn elsewhere."""
import numpy as np

_SHARED = np.random.Generator(np.random.PCG64())


def noise(value):
    return value + _SHARED.normal()
