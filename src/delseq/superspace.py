"""The uncertainty set, its weight histogram, entropies and subsequence statistics.

For a received string x of length m, the uncertainty set contains every
length-n string y that can project onto x; the posterior over it weights
each y by its embedding count omega_x(y), normalized by
mu = C(n,m) * 2^(n-m).  Every entropy is a function of the histogram of
those weights (``WeightClasses``); ``pattern_weight_classes`` reduces the
engine's blocks to the histograms of a whole list of patterns of one length,
and ``weight_classes`` is its list of one.  The one result with a row per y,
the CLI's posterior dump, renders the engine's blocks as they come.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import _check_nm, binomial, check_bits
from .exhaustive import pattern_blocks, patterns_per_block


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

    ``pattern_weight_classes`` of the stack of one x.
    """
    (classes,) = pattern_weight_classes([x], n, max_bits)
    return classes


def pattern_weight_classes(
    xs: list[str], n: int, max_bits: int | None = None
) -> Iterator[WeightClasses]:
    """The weight histogram of each of xs (one length m) over length n, in order.

    Each block of the engine is reduced on its own to (weight, count) pairs
    per pattern, and a pattern's pairs from several blocks are merged
    exactly in int64, so no array of 2^n weights is ever held.  Strings x
    does not embed in (weight 0) are outside the set and dropped.

    - While 2^n < STRING_BLOCK a block stacks the whole spaces of several
      patterns, and one ``bincount`` counts it all, pattern j's weights
      offset by j (C(n, m) + 1).  As C(n, m) < 2^n for n >= 1, that count
      table is no larger than the block.
    - From 2^n = STRING_BLOCK on, a block is rows of one pattern.  When its
      positive weights span a range no wider than the block, ``bincount``
      counts them from their least; a wider block (x = 0^12 at n = 24 spans
      up to 41 times its block) is sorted instead, so the count table never
      outgrows the block.

    Every argument is checked when the function is called.
    """
    xs = list(xs)
    for x in xs:
        check_bits(x)
        _check_nm(n, len(x))
    blocks = pattern_blocks(xs, n, max_bits)
    return _histograms(blocks, len(xs[0]), n)


def _histograms(blocks, m: int, n: int) -> Iterator[WeightClasses]:
    """The ``WeightClasses`` of each pattern of ``blocks``, as its last block ends."""
    top = binomial(n, m)
    stacked = patterns_per_block(n) > 1
    pattern, parts = 0, []
    for first, _, block in blocks:
        for j, part in enumerate(_block_counts(block, top, stacked), start=first):
            if j != pattern:
                yield _merged(m, n, parts)
                pattern, parts = j, []
            parts.append(part)
    yield _merged(m, n, parts)


def _block_counts(
    block: np.ndarray, top: int, stacked: bool
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, counts) of each pattern of an engine block, ascending, weight > 0.

    ``top`` = C(n, m) bounds every weight; ``stacked`` says the block holds
    whole spaces, one per pattern.
    """
    if stacked:
        stack = len(block)
        w = block.reshape(stack, -1).astype(np.int64)
        w += np.arange(0, stack * (top + 1), top + 1)[:, None]
        table = np.bincount(w.ravel(), minlength=stack * (top + 1))
        table = table.reshape(stack, top + 1)[:, 1:]
        pattern, weight = np.nonzero(table)
        ends = np.searchsorted(pattern, np.arange(1, stack))
        counts = table[pattern, weight]
        return list(zip(np.split(weight + 1, ends), np.split(counts, ends)))
    w = block[block > 0].astype(np.int64)
    if not len(w):
        return [(w, w)]
    lo = w.min()
    if w.max() - lo <= block.size:
        present = np.bincount(w - lo)
        (v,) = np.nonzero(present)
        return [(v + lo, present[v])]
    return [np.unique(w, return_counts=True)]


def _merged(m: int, n: int, parts: list) -> WeightClasses:
    """The ``WeightClasses`` of one pattern's (weights, counts) parts."""
    if len(parts) == 1:
        ((values, totals),) = parts
    else:
        weights, counts = zip(*parts)
        values, inverse = np.unique(np.concatenate(weights), return_inverse=True)
        totals = np.zeros(len(values), dtype=np.int64)
        np.add.at(totals, inverse, np.concatenate(counts))
    return WeightClasses(
        m=m,
        deletions=n - m,
        classes=tuple(zip(values[::-1].tolist(), totals[::-1].tolist())),
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
