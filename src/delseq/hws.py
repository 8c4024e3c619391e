"""Autocorrelation of patterns and asymptotic moments of the embedding count.

The autocorrelation coefficient counts the interleavings of two copies of x
that overlap in exactly one position; it drives the leading term of the
variance of the embedding count over a long random string and, empirically,
the entropy ordering of patterns of equal length.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import itemgetter

import numpy as np

from .core import _check_length, _check_nm, _check_pattern, binomial, complement
from .exhaustive import check_enumerable
from .superspace import SHANNON, pattern_weight_classes


@lru_cache(maxsize=64)
def interleaving_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """M[r][s] = C(r+s-2, r-1) * C(2m-r-s, m-r), 1-based indices.

    M[r][s] counts the interleavings of two copies of a length-m string
    whose r-th and s-th positions coincide.  It depends on m alone, so it is
    built once per m and shared (immutable) by every pattern of that length.
    """
    return tuple(
        tuple(
            binomial(r + s - 2, r - 1) * binomial(2 * m - r - s, m - r)
            for s in range(1, m + 1)
        )
        for r in range(1, m + 1)
    )


def kappa_squared(x: str) -> int:
    """Autocorrelation of x: interleaving_matrix(|x|) summed over x_r = x_s."""
    _check_pattern(x, len(x))
    return sum(
        v
        for xr, row in zip(x, interleaving_matrix(len(x)))
        for xs, v in zip(x, row)
        if xs == xr
    )


SWEEP_BLOCK = 1 << 16  # patterns per array product in pattern_sweep


def kappa_squared_block(m: int, lo: int, hi: int) -> list[int]:
    """kappa^2 of the patterns of length m with binary values lo..hi-1, in order.

    With v the bit vector of x, [x_r = x_s] = 1 - v_r - v_s + 2 v_r v_s, and
    M = interleaving_matrix(m) is symmetric, so kappa^2 = T - 2 v.(M 1)
    + 2 v^T M v with T the total of M.  The whole block is one array product.
    Every partial sum lies in [-T, 2T], so int64 is exact while 2T < 2^63
    (m <= 30); longer patterns use Python ints (object arrays).  Returns
    Python ints.
    """
    mat = interleaving_matrix(m)
    total = sum(map(sum, mat))
    dtype = np.int64 if 2 * total < 1 << 63 else object
    inter = np.array(mat, dtype=dtype)
    bits = np.arange(lo, hi, dtype=np.int64)[:, None] >> np.arange(m - 1, -1, -1)
    bits &= 1
    bits = bits.astype(dtype, copy=False)
    weighted = bits @ inter
    weighted *= bits
    quadratic = weighted.sum(axis=1)
    return (total - 2 * (bits @ inter.sum(axis=1)) + 2 * quadratic).tolist()


def kappa_max(m: int) -> int:
    """Maximal autocorrelation over length m: m * C(2m-1, m), by the constants."""
    _check_length(m)
    return m * binomial(2 * m - 1, m)


def omega_mean_asymptotic(n: int, m: int) -> float:
    """Leading term of the mean embedding count: n^m / (2^m m!)."""
    _check_nm(n, m)
    return n**m / (2**m * factorial(m))


def omega_variance_asymptotic(n: int, x: str) -> float:
    """Leading term of the embedding-count variance over random length-n strings.

    (2 kappa^2(x) - m C(2m-1, m)) * n^(2m-1) / (2^(2m) (2m-1)!).  The
    dominant covariance comes from pairs of embeddings sharing one position:
    an equal-symbol overlap contributes +1 and an opposite-symbol overlap -1,
    so the equal-overlap count kappa^2 enters through 2 kappa^2 minus the
    total overlap count.  The coefficient is a strictly increasing function
    of kappa^2, positive for every x (its minimum over length m is
    C(2m-2, m-1), at the alternating strings), and for constant x it reduces
    to kappa^2 itself.
    """
    _check_pattern(x, n)
    m = len(x)
    coefficient = 2 * kappa_squared(x) - kappa_max(m)
    return coefficient * n ** (2 * m - 1) / (2 ** (2 * m) * factorial(2 * m - 1))


def pattern_sweep(
    m: int, n: int | None = None, measures=(), max_bits: int | None = None
) -> list[tuple]:
    """(x, kappa^2(x), *entropies) for every x of length m, in binary order.

    kappa^2 comes SWEEP_BLOCK patterns at a time from ``kappa_squared_block``.
    With n, every measure is evaluated (a float, so str() prints its repr())
    from one weight histogram at length n per orbit of x under reverse and
    complement: omega_x(y) = omega_{rev x}(rev y) = omega_{comp x}(comp y),
    so the four strings of an orbit have the same histogram, and only the
    least of them is enumerated.  The least strings of every orbit go
    through one ``pattern_weight_classes`` call, so at small n one product
    and one ``bincount`` cover a whole stack of them.  Without n nothing is
    enumerated and the rows are (x, kappa^2(x)).  The 2^m patterns, and with
    n the ``orbit_count(m)`` × 2^n strings, meet the cap before any work.
    """
    _check_length(m, n)
    check_enumerable(m, max_bits)
    if n is not None:
        check_enumerable(n, max_bits, count=orbit_count(m))
    rows = []
    for lo in range(0, 1 << m, SWEEP_BLOCK):
        kappas = kappa_squared_block(m, lo, min(lo + SWEEP_BLOCK, 1 << m))
        rows += [(format(i, f"0{m}b"), kappa) for i, kappa in enumerate(kappas, lo)]
    if n is None:
        return rows
    least = [_orbit_least(x) for x, _ in rows]
    orbits = list(dict.fromkeys(least))
    histograms = pattern_weight_classes(orbits, n, max_bits=max_bits)
    entropies = {
        x: tuple(wc.entropy(ms) for ms in measures)
        for x, wc in zip(orbits, histograms)
    }
    return [row + entropies[x] for row, x in zip(rows, least)]


def orbit_count(m: int) -> int:
    """Orbits of length-m strings, m >= 1, under reverse and complement (Burnside):
    reversal fixes 2^ceil(m/2) strings, reverse complement 2^(m/2) at even m."""
    return ((1 << m) + (1 << (m + 1) // 2) + (m % 2 == 0) * (1 << m // 2)) // 4


def _orbit_least(x: str) -> str:
    """The least of x, its reverse, its complement and its reverse complement."""
    comp = complement(x)
    return min(x, x[::-1], comp, comp[::-1])


def sorted_by_kappa(rows: list[tuple]) -> list[tuple]:
    """Rows (x, kappa^2, ...) by descending autocorrelation, ties by x ascending.

    The rows must come in ascending x, as ``pattern_sweep`` emits them: the
    sort is a stable ``reverse=True`` sort on kappa^2 alone, which keeps tied
    rows in the order they came.
    """
    return sorted(rows, key=itemgetter(1), reverse=True)


def kappa_entropy_table(
    n: int, m: int, max_bits: int | None = None
) -> list[tuple[str, int, float]]:
    """(x, kappa^2(x), H_n(x)) for every x of length m, sorted by kappa^2.

    Descending autocorrelation, ties broken by x ascending.  At (n, m) =
    (8, 5) the entropy column is nondecreasing on Table 6.1's eight
    reference rows, but not over all 32 patterns (00100 against 01110).
    """
    return sorted_by_kappa(pattern_sweep(m, n, (SHANNON,), max_bits))
