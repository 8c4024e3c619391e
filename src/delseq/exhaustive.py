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
float64, so the product runs in BLAS.  ``pattern_blocks`` is the one engine,
over a list of patterns of one length: it yields the product in blocks of
about 2^16 strings.  Below that size one block stacks the whole spaces of
several patterns, one batched product of their stacked tables, so a pattern
sweep at small n costs one product per block, not one per pattern; from
2^16 strings on, a block is whole prefix rows of one pattern.  A single x
is the stack of one, ``pattern_blocks([x], n)``, whose blocks hold one
plane.  Every whole-space result the package reports, the posterior dump
included, takes the blocks one at a time or reduces them to a weight
histogram, and never holds 2^n weights; only the tests copy the blocks into
one 2^n array.

Every table entry, term and partial sum is a nonnegative integer no larger
than omega_x(y) <= C(n, m), and every such integer is exact in float64 while
C(n, m) < 2^53 (every m at every n <= 56); ``pattern_blocks`` checks that
bound before allocating anything.  Callers convert to Python ints at the
boundary.

``check_enumerable`` is the one check of work against a size cap (default 22
bits), for the engine, the pattern sweeps and the census, before any work
starts; override the cap with ``max_bits`` or DELSEQ_MAX_BITS.
"""
from __future__ import annotations

import os
from collections.abc import Iterator
from functools import cache

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


def check_enumerable(n: int, max_bits: int | None = None, count: int = 1) -> None:
    """Refuse count × 2^n strings above 2^cap, forming no power of two."""
    cap = resolve_max_bits(max_bits)
    if (count - 1).bit_length() + n > cap:
        # str() refuses ints past 4300 digits: a huge count is worded by its size
        size = count if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}"
        work = f"2^{n}" if count == 1 else f"{size} × 2^{n}"
        raise EnumerationCapExceeded(
            f"enumerating {work} strings exceeds the cap of {cap} bits"
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
    """P[j, u, i] = omega_{x_j[:i]}(u) for every u of length k, i = 0..m.

    ``masks[j, b, i]`` is 1 where x_j[i] = b, for a stack of patterns x_j of
    one length m.  Appending bit b to u (row 2u + b) adds omega_{x[:i-1]}(u)
    to column i wherever x[i-1] = b.
    """
    stack, _, m = masks.shape
    p = np.zeros((stack, 1, m + 1))
    p[:, 0, 0] = 1
    for _ in range(k):
        q = np.empty((stack, p.shape[1], 2, m + 1))
        q[:] = p[:, :, None]
        q[:, :, :, 1:] += p[:, :, None, :-1] * masks[:, None]
        p = q.reshape(stack, -1, m + 1)
    return p


def _suffix_counts(masks: np.ndarray, k: int) -> np.ndarray:
    """S[j, i, v] = omega_{x_j[i:]}(v) for i = 0..m and every v of length k.

    Built in the layout the product reads, C-contiguous with v last: prepending
    bit b to v (column b * 2^j + v) adds omega_{x[i+1:]}(v) to row i wherever
    x[i] = b.
    """
    stack, _, m = masks.shape
    s = np.zeros((stack, m + 1, 1))
    s[:, -1, 0] = 1
    by_position = masks.transpose(0, 2, 1)[:, :, :, None]
    for _ in range(k):
        q = np.empty((stack, m + 1, 2, s.shape[2]))
        q[:] = s[:, :, None]
        q[:, :-1] += s[:, 1:, None] * by_position
        s = q.reshape(stack, m + 1, -1)
    return s


STRING_BLOCK = 1 << 16  # strings per block of the product


def _tables(xs: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked prefix and suffix tables of xs, both C-contiguous."""
    masks = np.array([[[c == b for c in x] for b in "01"] for x in xs], np.float64)
    k = n // 2
    return _prefix_counts(masks, k), _suffix_counts(masks, n - k)


def patterns_per_block(n: int) -> int:
    """How many whole spaces of length n a block stacks; 1 once 2^n >= STRING_BLOCK."""
    return max(1, STRING_BLOCK // (1 << n))


def pattern_blocks(
    xs: list[str], n: int, max_bits: int | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The weights of every length-n y under each of xs, as float64 blocks.

    The patterns xs all have one length m.  Yields ``(first, start, block)``
    in ascending order: ``block[j, i, c]`` is omega_{xs[first + j]}(y) for
    ``y = (start + i) * 2^(n - n//2) + c``.  While 2^n < STRING_BLOCK, a block
    stacks the whole spaces (start = 0, every prefix row) of the next
    ``patterns_per_block(n)`` patterns, one batched product of their stacked
    tables.  Otherwise a block is one pattern's next prefix rows, about
    STRING_BLOCK strings, and each pattern's blocks follow its predecessor's.
    Either way no block holds more than STRING_BLOCK strings while 2^(n -
    n//2) <= STRING_BLOCK.  Every argument is checked before anything is
    allocated, and the first stack's tables are built when the function is
    called: any failure comes before a block.
    """
    xs = list(xs)
    for x in xs:
        check_bits(x)
    if len({len(x) for x in xs}) != 1:
        raise ValueError("a sweep needs one or more patterns, all of one length")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    check_enumerable(n, max_bits)
    check_float64_exact(n, len(xs[0]))
    stack = patterns_per_block(n)
    return _products(xs, n, stack, _tables(xs[:stack], n))


def _products(xs, n, stack, tables):
    """The blocks of ``pattern_blocks``, given the first stack's tables."""
    rows = max(1, STRING_BLOCK // (1 << (n - n // 2)))
    for first in range(0, len(xs), stack):
        if first:
            tables = _tables(xs[first : first + stack], n)
        prefix, suffix = tables
        for start in range(0, prefix.shape[1], rows):
            yield first, start, prefix[:, start : start + rows] @ suffix


@cache
def _popcounts(k: int) -> np.ndarray:
    """h(u) for every u of length k: prepending a 1 adds one to the count.

    Built once per k and shared, so read-only.
    """
    h = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        h = np.concatenate([h, h + 1])
    h.flags.writeable = False
    return h


def hamming_weight_counts(select: np.ndarray, start: int, n: int) -> np.ndarray:
    """``counts[h]``: how many selected y have Hamming weight h, h = 0..n.

    ``select`` is shaped like one plane of a ``pattern_blocks`` block: its
    row i holds the y of prefix row ``start + i``, one column per suffix, so
    the Hamming weight of an entry is that of its prefix plus that of its
    suffix.  One product with the one-hot matrix of the suffix weights counts
    each row's selected entries per suffix weight j; one weighted
    ``bincount`` at the row's prefix weight plus j adds them up.  Every
    partial sum is a count of block entries, an integer far below 2^53, so
    the float64 sums are exact.
    """
    k = n // 2
    suffix = _popcounts(n - k)
    per_row = select.astype(np.float64) @ (suffix[:, None] == np.arange(n - k + 1))
    at = _popcounts(k)[start : start + len(select), None] + np.arange(n - k + 1)
    counts = np.bincount(at.ravel(), per_row.ravel(), minlength=n + 1)
    return counts.astype(np.int64)


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
