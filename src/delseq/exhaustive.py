"""Vectorized whole-space enumeration over all 2^n strings of length n.

These routines are the brute-force side of every dual-route check in the
package: they compute per-string quantities for the entire space (strings
are indexed by their value as an MSB-first binary number).

Embedding counts are computed meet-in-the-middle.  Writing y = y1 y2 with
|y1| = n // 2, every embedding of x splits at some i into an embedding of
x[:i] in y1 and one of x[i:] in y2, so

    omega_x(y1 y2) = sum_i omega_{x[:i]}(y1) * omega_{x[i:]}(y2)

and the whole weight vector is the matrix product of a prefix table
(2^(n//2) rows) with a suffix table (2^(n - n//2) columns).  Both tables are
float64, so the product runs in BLAS.  ``weight_blocks`` is the one engine:
it yields the product in blocks of whole prefix rows, about 2^16 strings
each.  ``all_weights`` is those blocks copied into one int64 array, for the
oracles only; every whole-space result the package reports, the posterior
dump included, takes the blocks one at a time and never holds 2^n weights.
The weight histogram counts a block with ``bincount`` from its least
positive weight when that block's weights span no more values than it has
strings, and sorts it otherwise, so its count table is never larger than
the block.

Every table entry, term and partial sum is a nonnegative integer no larger
than omega_x(y) <= C(n, m), and every such integer is exact in float64 while
C(n, m) < 2^53 (every m at every n <= 56); ``weight_blocks`` checks that
bound before allocating anything.  Callers convert to Python ints at the
boundary.

Full enumeration refuses to run above a size cap (default 22 bits) rather
than silently thrash; override with the ``max_bits`` argument or the
DELSEQ_MAX_BITS environment variable.
"""
from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from .core import binomial, check_bits

DEFAULT_MAX_BITS = 22
MAX_BITS_ENV = "DELSEQ_MAX_BITS"


class EnumerationCapExceeded(Exception):
    """Raised when an operation would enumerate more strings than allowed."""


def resolve_max_bits(max_bits: int | None = None) -> int:
    if max_bits is not None:
        return max_bits
    env = os.environ.get(MAX_BITS_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{MAX_BITS_ENV} must be an integer number of bits, got {env!r}"
            ) from None
    return DEFAULT_MAX_BITS


def check_enumerable(n: int, max_bits: int | None = None) -> None:
    cap = resolve_max_bits(max_bits)
    if n > cap:
        raise EnumerationCapExceeded(
            f"enumerating 2^{n} strings exceeds the cap of {cap} bits"
        )


def check_float64_exact(n: int, m: int) -> None:
    """Refuse (n, m) whose embedding counts could be inexact in float64.

    Every count, and every partial sum formed while computing one, is an
    integer at most C(n, m), so float64 is exact whenever C(n, m) < 2^53.
    """
    if binomial(n, m) >= 1 << 53:
        raise EnumerationCapExceeded(
            f"embedding counts up to C({n},{m}) = {binomial(n, m)} are not "
            f"exact in float64: exact enumeration needs C(n,m) < 2^53"
        )


def _prefix_counts(masks: np.ndarray, k: int) -> np.ndarray:
    """P[u, i] = omega_{x[:i]}(u) for every u of length k, i = 0..m.

    ``masks[b, i]`` is 1 where x[i] = b.  Appending bit b to u (row 2u + b)
    adds omega_{x[:i-1]}(u) to column i wherever x[i-1] = b.
    """
    m = masks.shape[1]
    p = np.zeros((1, m + 1))
    p[0, 0] = 1
    for _ in range(k):
        q = np.empty((len(p), 2, m + 1))
        q[:] = p[:, None]
        q[:, :, 1:] += p[:, None, :-1] * masks
        p = q.reshape(-1, m + 1)
    return p


def _suffix_counts(masks: np.ndarray, k: int) -> np.ndarray:
    """S[v, i] = omega_{x[i:]}(v) for every v of length k, i = 0..m.

    Prepending bit b to v (row b * 2^j + v) adds omega_{x[i+1:]}(v) to
    column i wherever x[i] = b.
    """
    m = masks.shape[1]
    s = np.zeros((1, m + 1))
    s[0, -1] = 1
    for _ in range(k):
        q = np.empty((2, len(s), m + 1))
        q[:] = s
        q[:, :, :-1] += s[:, 1:] * masks[:, None]
        s = q.reshape(-1, m + 1)
    return s


STRING_BLOCK = 1 << 16  # strings per block of the product


def weight_blocks(
    x: str, n: int, max_bits: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """The weights of every length-n y as float64 blocks of the product.

    Yields ``(start, block)`` in ascending order: ``block[i, j]`` is
    omega_x(y) for ``y = (start + i) * 2^(n - n//2) + j``, that is, block rows
    are the prefix rows ``start, start + 1, ...`` and its columns every
    suffix.  A block holds about STRING_BLOCK strings (whole prefix rows).
    Every argument is checked before anything is allocated, and both tables
    are built when the function is called: any failure comes before a block.
    """
    check_bits(x)
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    check_enumerable(n, max_bits)
    check_float64_exact(n, len(x))
    masks = np.array([[c == b for c in x] for b in "01"], dtype=np.float64)
    k = n // 2
    prefix = _prefix_counts(masks, k)
    suffix = _suffix_counts(masks, n - k).T
    rows = max(1, STRING_BLOCK // suffix.shape[1])
    return (
        (start, prefix[start : start + rows] @ suffix)
        for start in range(0, len(prefix), rows)
    )


def all_weights(x: str, n: int, max_bits: int | None = None) -> np.ndarray:
    """omega_x(y) for every y of length n, as an int64 array indexed by y.

    The blocks of ``weight_blocks``, cast exactly to int64 as they are
    copied in: a one-shot product would first fill a float temporary the
    size of the output.
    """
    blocks = weight_blocks(x, n, max_bits)
    k = n // 2
    weights = np.empty((1 << k, 1 << (n - k)), dtype=np.int64)
    for start, block in blocks:
        weights[start : start + len(block)] = block
    return weights.reshape(-1)


def _popcounts(k: int) -> np.ndarray:
    """h(u) for every u of length k: prepending a 1 adds one to the count."""
    h = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        h = np.concatenate([h, h + 1])
    return h


def hamming_weight_counts(select: np.ndarray, start: int, n: int) -> np.ndarray:
    """``counts[h]``: how many selected y have Hamming weight h, h = 0..n.

    ``select`` is shaped like a block of ``weight_blocks``: its row i holds
    the y of prefix row ``start + i``, one column per suffix, so the Hamming
    weight of an entry is that of its prefix plus that of its suffix.
    """
    k = n // 2
    ham = _popcounts(k)[start : start + len(select), None] + _popcounts(n - k)
    return np.bincount(ham[select], minlength=n + 1)


def canonical_ends_last(x: str, present: np.ndarray) -> np.ndarray:
    """``maximal[y]`` iff the canonical embedding of x in y ends at position n.

    ``present[y]`` says whether x embeds in y at all (the greedy left-to-right
    match completes).  The greedy match ends at position n exactly when x
    embeds in y but not in y[:-1].  For nonempty x, appending the symbol x
    does not end with leaves every count unchanged, so x embeds in y[:-1] iff
    it embeds in that extension of y[:-1].
    """
    if not x or len(present) == 1:  # empty x, or n = 0
        return np.zeros_like(present)
    in_prefix = present[1 - int(x[-1]) :: 2]
    return present & ~np.repeat(in_prefix, 2)
