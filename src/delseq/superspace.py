"""The uncertainty set, its weight histogram, entropies and subsequence statistics.

For a received string x of length m, the uncertainty set contains every
length-n string y that can project onto x; the posterior over it weights
each y by its embedding count omega_x(y), normalized by
mu = C(n,m) * 2^(n-m).  Every entropy is a function of the histogram of
those weights (``WeightClasses``).  The one result with a row per y, the
CLI's posterior dump, renders the engine's blocks as they come.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_nm, binomial, check_bits
from .exhaustive import weight_blocks


def uncertainty_cardinality(n: int, m: int) -> int:
    """Number of length-n supersequences of any length-m string."""
    _check_nm(n, m)
    return sum(binomial(n, r) for r in range(m, n + 1))


def total_masks(n: int, m: int) -> int:
    """Total embedding count over the whole uncertainty set: C(n,m) * 2^(n-m)."""
    _check_nm(n, m)
    return binomial(n, m) << (n - m)


def masks_per_cluster(n: int, m: int, a: int) -> int:
    """Masks whose supersequence carries a extra ones: C(n,m) * C(n-m,a)."""
    _check_nm(n, m)
    if not 0 <= a <= n - m:
        raise ValueError(f"extra-ones count {a} outside [0, {n - m}]")
    return binomial(n, m) * binomial(n - m, a)


@dataclass(frozen=True)
class Measure:
    """An entropy measure: Shannon, Renyi of order alpha, min- or Hartley."""

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("shannon", "renyi", "min", "hartley"):
            raise ValueError(f"unknown entropy measure {self.kind!r}")
        if self.kind == "renyi":
            if self.alpha is None or self.alpha <= 0 or self.alpha == 1:
                raise ValueError("renyi needs alpha > 0, alpha != 1")
            if not math.isfinite(self.alpha):
                raise ValueError(f"renyi needs a finite alpha, got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha")

    def __str__(self) -> str:
        if self.kind == "renyi":
            return "renyi2" if self.alpha == 2 else f"renyi:{self.alpha:g}"
        return self.kind


SHANNON = Measure("shannon")
MIN_ENTROPY = Measure("min")
HARTLEY = Measure("hartley")


def renyi(alpha: float) -> Measure:
    return Measure("renyi", alpha)


def parse_measure(token: str) -> Measure:
    """Parse 'shannon', 'min', 'hartley', 'renyi2' or 'renyi:<alpha>'."""
    token = token.strip().lower()
    if token == "renyi2":
        return renyi(2.0)
    if token.startswith("renyi:"):
        return renyi(float(token.split(":", 1)[1]))
    return Measure(token)


@dataclass(frozen=True)
class WeightClasses:
    """The weight histogram of the uncertainty set of a length-m string.

    ``classes`` holds the (weight, multiplicity) pairs of every length-n
    supersequence, n = m + deletions, heaviest class first; ``mu`` is the
    exact normalizer, so a class's probability is weight/mu.  It is what
    every entropy and census result is computed from, whether it comes from
    the whole-space engine (``weight_classes``) or a deletion census.
    """

    m: int
    deletions: int
    classes: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.m + self.deletions

    @property
    def mu(self) -> int:
        return total_masks(self.n, self.m)

    def string_count(self) -> int:
        return sum(mult for _, mult in self.classes)

    def mask_count(self) -> int:
        return sum(w * mult for w, mult in self.classes)

    def identities_hold(self) -> bool:
        """The histogram covers every supersequence and every mask exactly once."""
        return (
            self.string_count() == uncertainty_cardinality(self.n, self.m)
            and self.mask_count() == self.mu
        )

    def entropy(self, measure: Measure = SHANNON) -> float:
        """Entropy in bits of the distribution {weight/mu}.

        Each class's term is converted to double precision once and the terms
        are accumulated with compensated summation, so the result does not
        depend on the order of the classes.
        """
        classes, mu = self.classes, self.mu
        if measure.kind == "hartley":
            return math.log2(self.string_count())
        if measure.kind == "min":
            return -math.log2(max(w for w, _ in classes) / mu)
        if measure.kind == "shannon":
            return -math.fsum(
                mult * (w / mu) * math.log2(w / mu) for w, mult in classes
            )
        alpha = measure.alpha
        power_sum = math.fsum(mult * (w / mu) ** alpha for w, mult in classes)
        return math.log2(power_sum) / (1.0 - alpha)


def weight_classes(
    x: str, n: int, max_bits: int | None = None
) -> WeightClasses:
    """The weight histogram of x over all length-n strings, from the engine.

    Each block of the engine is reduced on its own to (weight, count) pairs
    and the pairs are merged exactly in int64, so no array of 2^n weights is
    ever held.  Strings x does not embed in are outside the set and dropped
    first.  A block whose positive weights span a range no wider than the
    block itself is counted by ``bincount`` from its least weight; a wider
    block (x = 0^12 at n = 24 spans up to 41 times its block) is sorted
    instead, so the count table never outgrows the block.
    """
    check_bits(x)
    _check_nm(n, len(x))
    values, counts = [], []
    for _, block in weight_blocks(x, n, max_bits=max_bits):
        w = block[block > 0].astype(np.int64)
        if not len(w):
            continue
        lo = w.min()
        if w.max() - lo <= block.size:
            present = np.bincount(w - lo)
            (v,) = np.nonzero(present)
            values.append(v + lo)
            counts.append(present[v])
        else:
            v, c = np.unique(w, return_counts=True)
            values.append(v)
            counts.append(c)
    merged, inverse = np.unique(np.concatenate(values), return_inverse=True)
    totals = np.zeros(len(merged), dtype=np.int64)
    np.add.at(totals, inverse, np.concatenate(counts))
    return WeightClasses(
        m=len(x),
        deletions=n - len(x),
        classes=tuple(zip(merged[::-1].tolist(), totals[::-1].tolist())),
    )


def count_distinct_subsequences(y: str, m: int) -> int:
    """Number of distinct length-m strings embeddable in y."""
    check_bits(y)
    if not 0 <= m <= len(y):
        raise ValueError(f"need 0 <= m <= |y|, got m={m}, |y|={len(y)}")
    return distinct_subsequence_profile(y)[m]


def distinct_subsequence_profile(y: str) -> list[int]:
    """Counts of distinct subsequences of y of every length 0..|y|.

    Standard dedup DP: extending every subsequence with the new character
    would double-count exactly the extensions already produced at that
    character's previous occurrence.
    """
    check_bits(y)
    n = len(y)
    counts = [1] + [0] * n
    snapshot: dict[str, list[int]] = {}
    for c in y:
        prev = snapshot.get(c)
        new = counts.copy()
        for i in range(n, 0, -1):
            new[i] += counts[i - 1] - (prev[i - 1] if prev else 0)
        snapshot[c] = counts
        counts = new
    return counts


def expected_distinct_subsequences(n: int, t: int) -> float:
    """Mean number of distinct length-(n-t) subsequences of a random y.

    Closed form sum_{i=0..t} C(n-t-1+i, i) / 2^i for the binary alphabet.
    """
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t} n={n}")
    return math.fsum(binomial(n - t - 1 + i, i) * 0.5**i for i in range(t + 1))
