"""The engine's blocks copied into one array of all 2^n weights, for the tests.

The package only streams whole spaces, block by block or into a weight
histogram; the tests compare every string's weight against the scalar
counters, so they copy the blocks of ``pattern_blocks([x], n)``, the stack
of one x, into one array here.
"""
import numpy as np

from delseq.exhaustive import pattern_blocks


def all_weights(x, n, max_bits=None):
    """omega_x(y) for every y of length n, as an int64 array indexed by y."""
    blocks = pattern_blocks([x], n, max_bits)
    weights = np.empty((1 << n // 2, 1 << (n - n // 2)), dtype=np.int64)
    for _, start, (block,) in blocks:
        weights[start : start + len(block)] = block
    return weights.reshape(-1)
