"""Entropies of uncertainty sets: closed forms, censuses and estimates.

Every entropy here is ``WeightClasses.entropy`` of a weight histogram, in
bits: the whole-space engine's (``weight_classes``), a census of the masks of
x at d deletions, or the closed form of 0^m (``constant_classes``), whose
entropies are the minimal-entropy closed forms.  The measures themselves
are defined next to the histogram, in ``superspace``.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from .core import Rle, _check_nm, binomial, g_chain, rle_decode, rle_encode
from .exhaustive import check_enumerable
from .superspace import (
    SHANNON,
    Measure,
    WeightClasses,
    pattern_weight_classes,
    renyi,
    weight_classes,
)

_LN2 = math.log(2)


def min_shannon_closed(n: int, m: int) -> float:
    """Shannon entropy of the constant string's posterior: its minimum over x."""
    return constant_classes(n, m).entropy()


def min_renyi2_closed(n: int, m: int) -> float:
    """Second-order Renyi entropy of the constant string's posterior."""
    return constant_classes(n, m).entropy(renyi(2))


def min_minentropy_closed(n: int, m: int) -> int:
    """Min-entropy of the constant string's posterior: exactly n - m."""
    _check_nm(n, m)
    return n - m


def constant_classes(n: int, m: int) -> WeightClasses:
    """Weight histogram of the constant string 0^m over length n, closed form.

    Its entropies are the minima over all x of length m.  Grouping the
    supersequences of 0^m by their number j of ones leaves weight C(n-j, m),
    the choices of m of the n - j zeros, with multiplicity C(n, j), for
    j = 0..n - m, heaviest first.  At m = 0 every weight is 1: one class.
    Both binomials come from one running product each, exact integer steps
    C(n-j-1, m) = C(n-j, m) (n-j-m) / (n-j) and C(n, j+1) = C(n, j) (n-j) / (j+1).
    """
    _check_nm(n, m)
    if m == 0:
        return WeightClasses(m=0, deletions=n, classes=((1, 1 << n),))
    classes = []
    weight, mult = binomial(n, m), 1
    for j in range(n - m + 1):
        classes.append((weight, mult))
        weight = weight * (n - j - m) // (n - j)
        mult = mult * (n - j) // (j + 1)
    return WeightClasses(m=m, deletions=n - m, classes=tuple(classes))


def single_deletion_classes(x_rle: Rle) -> WeightClasses:
    """Weight census at n = m + 1.

    Lengthening run i gives one string of weight k_i + 1; every run split or
    end extension gives a singleton, and there are m - l + 2 of those.
    """
    if x_rle.block_count == 0:
        raise ValueError("x must be nonempty")
    counts = Counter(k + 1 for k in x_rle.runs)
    counts[1] += x_rle.length - x_rle.block_count + 2
    return _checked(x_rle.length, 1, counts)


def deletion_classes(
    x_rle: Rle, d: int, max_bits: int | None = None
) -> WeightClasses:
    """Weight census at n = m + d, by counting the masks.

    A mask of x in a length-(m + d) string y is the choice of the d positions
    of y that x skips and of the symbols there.  Each of the
    mu = 2^d C(m + d, d) masks builds one y, and each embedding of x in y is
    the complement of one mask, so y is built omega_x(y) times: counting the
    builds gives the weights, and counting the weights gives the classes.

    The weights sum to mu by construction; ``_checked`` checks that the
    builds reach all uncertainty_cardinality(m + d, m) supersequences.  The
    independent oracles, in the tests, are the engine's histogram and the
    distinct d-insertion strings weighed with ``count_embeddings_dp``.
    """
    if x_rle.block_count == 0:
        raise ValueError("x must be nonempty")
    if d < 1:
        raise ValueError(f"deletions must be >= 1, got {d}")
    m = x_rle.length
    check_enumerable(d, max_bits, count=binomial(m + d, d))
    counts = Counter(Counter(_builds(rle_decode(x_rle), d)).values())
    return _checked(m, d, counts)


def _builds(x: str, d: int) -> Iterator[str]:
    # y = b + a + x[t:]: a is y's last symbol that x skips, b a build of x[:t]
    if d == 0:
        yield x
        return
    for t in range(len(x) + 1):
        tail0, tail1 = "0" + x[t:], "1" + x[t:]
        for b in _builds(x[:t], d - 1):
            yield b + tail0
            yield b + tail1


def _checked(m: int, d: int, counts: Counter) -> WeightClasses:
    census = WeightClasses(m, d, tuple(sorted(counts.items(), reverse=True)))
    # the string-count and weight-sum identities are non-negotiable: a census
    # that misses or double-counts anything must never leave this module
    if not census.identities_hold():
        raise AssertionError(
            f"inconsistent deletion census for m={census.m}, "
            f"d={census.deletions}: {census.classes}"
        )
    return census


def delta1(k1: int, k2: int) -> float:
    """Scaled Shannon-entropy drop of merging two leading runs, one deletion.

    e(k1+1) + e(k2+1) - e(k1+k2+1) with e(t) = -t log2 t; strictly positive,
    and equal to 2n (H_n(x) - H_n(g(x))) at m = n - 1.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("run lengths must be >= 1")
    return _e(k1 + 1) + _e(k2 + 1) - _e(k1 + k2 + 1)


def _e(t: int) -> float:
    return -t * math.log2(t)


def g_chain_entropies(
    x: str, n: int, measure: Measure = SHANNON, max_bits: int | None = None
) -> list[float]:
    """Entropies along x, g(x), g(g(x)), ... down to the single-run string.

    The chain's strings all have the length of x: one engine sweep.
    """
    chain = [rle_decode(r) for r in g_chain(rle_encode(x))]
    return [
        wc.entropy(measure)
        for wc in pattern_weight_classes(chain, n, max_bits=max_bits)
    ]


class MomentEstimate(NamedTuple):
    estimate: float
    bound: float


def entropy_estimate_from_moments(wc: WeightClasses) -> MomentEstimate:
    """Estimate H_n(x) from the first three moments of the weight distribution.

    With Omega the weight of a supersequence drawn uniformly from the
    uncertainty set, H = log2 mu - E(Omega log2 Omega) / E(Omega); the
    expectation is expanded to third order around E(Omega).  The returned
    bound dominates the Taylor remainder via the fourth central moment and
    is normalized like the estimate, so |estimate - H| <= bound always.

    Each central moment sums the float (w - mean)**k once per string.  Every
    such float is a / d with d a power of two, so over the largest d, D, the
    class terms mult * a * (D // d) are exact integers; their total over D is
    rounded once (int true division is correctly rounded), which is the
    correctly rounded sum over the strings that ``fsum`` gives.
    """
    count = wc.string_count()
    mean = wc.mu / count

    def central(k: int) -> float:
        terms = [
            (mult, *((w - mean) ** k).as_integer_ratio()) for w, mult in wc.classes
        ]
        common = max(d for _, _, d in terms)
        return sum(mult * a * (common // d) for mult, a, d in terms) / common / count

    v, t3, t4 = central(2), central(3), central(4)
    inner = mean * math.log(mean) + v / (2 * mean) - t3 / (6 * mean**2)
    estimate = math.log2(wc.mu) - inner / (mean * _LN2)
    bound = 5 * t4 / (3 * mean**4 * _LN2)
    return MomentEstimate(estimate=estimate, bound=bound)


def posterior_shannon(x: str, n: int, max_bits: int | None = None) -> float:
    """Exact Shannon entropy H_n(x)."""
    return weight_classes(x, n, max_bits=max_bits).entropy()
