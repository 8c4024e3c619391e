"""Hamming-weight clusters, maximal initial embeddings and singleton counts.

Cluster c of the uncertainty set holds the supersequences with exactly c
ones more than x.  Its size depends only on (n, m, h(x), c) and is computed
three ways: a closed-form sum, a recurrence on the head of x, and a
brute-force census of the engine's support (in ``verify`` and the
``clusters`` command).  ``cluster_table(n, x)`` gives the first two, with the
maximal-initial count, for every cluster of one (n, x).
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    _check_length,
    _check_nm,
    _check_pattern,
    binomial,
    check_bits,
    run_lengths,
)


def canonical_embedding(x: str, y: str) -> tuple[int, ...] | None:
    """The lexicographically first mask of x in y, or None if there is none.

    Greedy left-to-right matching yields exactly the lexicographic minimum.
    """
    check_bits(x)
    check_bits(y)
    mask = []
    pos = 0
    for c in x:
        pos = y.find(c, pos) + 1
        if pos == 0:
            return None
        mask.append(pos)
    return tuple(mask)


def is_maximal_initial(x: str, y: str) -> bool:
    """True iff the canonical embedding of x ends on the last position of y."""
    mask = canonical_embedding(x, y)
    return mask is not None and len(mask) > 0 and mask[-1] == len(y)


def maximal_initials_total(n: int, m: int) -> int:
    """Number of supersequences whose canonical embedding is maximal: C(n-1, m-1)."""
    _check_length(m, n)
    return binomial(n - 1, m - 1)


def maximal_initials_cluster(n: int, m: int, hx: int, c: int) -> int:
    """Maximal-initial count within cluster c, for any x with h(x) = hx.

    Stars and bars twice: distribute the surplus zeros among the ones of x
    and the surplus ones among the zeros of x, holding the final position
    fixed.
    """
    _check_length(m, n)
    _check_cluster_args(n, m, hx, c)
    p = n - m - c
    return binomial(p + hx - 1, p) * binomial(c + (m - hx) - 1, c)


def cluster_size_closed(n: int, m: int, hx: int, c: int) -> int:
    """Size of cluster c for any x of length m with h(x) = hx.

    Sums over the position p of the hx-th one of y; the strings counted are
    those of weight hx + c whose hx-th one leaves room for the zeros of x.
    """
    _check_cluster_args(n, m, hx, c)
    if hx == 0:
        return binomial(n, c)
    z = n - m - c
    return sum(
        binomial(p - 1, hx - 1) * binomial(n - p, c)
        for p in range(hx, hx + z + 1)
    )


def cluster_table(n: int, x: str) -> list[tuple[int, int, int]]:
    """(closed-form size, recurrence size, maximal initials) of each cluster c.

    Row c is cluster c = 0..n-|x| of x.  The recurrence recurses on the
    first bit of y: matching a leading 0 of x consumes it without changing
    c; a leading surplus symbol consumes c only when x starts with 0 (the
    surplus bit is then a one).  The states (n, i, c) it visits are memoized
    for this call, so the clusters of one (n, x) share them.
    """
    _check_pattern(x, n)
    m, hx = len(x), x.count("1")
    memo: dict[tuple[int, int, int], int] = {}

    def size(n: int, i: int, c: int) -> int:
        if c < 0:
            return 0
        rest = m - i
        if c + rest > n:
            return 0
        if rest == 0:
            return binomial(n, c)
        key = (n, i, c)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if x[i] == "0":
            result = size(n - 1, i + 1, c) + size(n - 1, i, c - 1)
        else:
            result = size(n - 1, i + 1, c) + size(n - 1, i, c)
        memo[key] = result
        return result

    return [
        (
            cluster_size_closed(n, m, hx, c),
            size(n, 0, c),
            maximal_initials_cluster(n, m, hx, c),
        )
        for c in range(n - m + 1)
    ]


def _check_cluster_args(n: int, m: int, hx: int, c: int) -> None:
    _check_nm(n, m)
    if not 0 <= hx <= m:
        raise ValueError(f"need 0 <= h(x) <= m, got h(x)={hx} m={m}")
    if not 0 <= c <= n - m:
        raise ValueError(f"cluster index {c} outside [0, {n - m}]")


@dataclass(frozen=True)
class RhoProfile:
    """Insertion-slot counts of x: rho0 over its 0-runs, rho1 over its 1-runs."""

    rho0: int
    rho1: int

    @property
    def total(self) -> int:
        return self.rho0 + self.rho1


def rho(x: str) -> RhoProfile:
    """Count the weight-preserving insertion slots of x, per symbol.

    A run touching both ends of x contributes its length + 1; a run touching
    exactly one end its length; an interior run its length - 1.  So every
    run gives its length - 1, and each end of x one more to its symbol.
    """
    _check_pattern(x, len(x))
    first = int(x[0])
    slots = [0, 0]
    for i, length in enumerate(run_lengths(x)):
        slots[first ^ (i & 1)] += length - 1
    slots[first] += 1
    slots[int(x[-1])] += 1
    return RhoProfile(rho0=slots[0], rho1=slots[1])


def count_singletons(n: int, x: str) -> int:
    """Number of length-n supersequences embedding x exactly once.

    Closed form C(n-m + rho1 + rho0 - 1, n-m): every singleton arises from
    x by weight-preserving insertions into the available slots.
    """
    _check_pattern(x, n)
    m = len(x)
    r = rho(x)
    return binomial(n - m + r.total - 1, n - m)
