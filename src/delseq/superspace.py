"""The uncertainty set, its weight histogram, entropies and subsequence statistics.

For a received string x of length m, the uncertainty set contains every
length-n string y that can project onto x; the posterior over it weights
each y by its embedding count omega_x(y), normalized by
mu = C(n,m) * 2^(n-m).  Every entropy is a function of the histogram of
those weights (``WeightClasses``).  ``pattern_weight_classes`` gives the
histograms of a list of patterns of one length: it counts each engine block
into a table with a row per pattern, indexed by weight.  ``weight_classes``
is its list of one.  The one result with a row per y, the CLI's posterior
dump, renders the engine's blocks against the classes of ``weight_classes``.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import _check_nm, binomial, check_bits
from .exhaustive import pattern_blocks


def uncertainty_cardinality(n: int, m: int) -> int:
    """Number of length-n supersequences of any length-m string.

    The sum of C(n, r) over r = m..n, each term from the last by the exact
    step C(n, r+1) = C(n, r) (n-r) / (r+1).
    """
    _check_nm(n, m)
    total, term = 0, binomial(n, m)
    for r in range(m, n + 1):
        total += term
        term = term * (n - r) // (r + 1)
    return total


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
        depend on the order of the classes.  A single class (n = m) makes the
        negated or divided logs -0.0; adding 0.0 returns 0.0 there and leaves
        every other float as it is.

        The float range, outside which a measure raises ValueError: Hartley
        has none; the others need the heaviest weight/mu to be at least
        2^-1074, Shannon every weight/mu, and Shannon and Renyi need every
        multiplicity, and Renyi below order 1 its power sum, below 2^1024.
        """
        try:
            return self._entropy(measure)
        except (OverflowError, ValueError) as exc:  # float overflow, log2(0.0)
            raise ValueError(
                f"{measure} entropy at n={self.n}, m={self.m} is outside the float "
                "range: a multiplicity reaches 2^1024 or a probability 0.0"
            ) from exc

    def _entropy(self, measure: Measure) -> float:
        classes, mu = self.classes, self.mu
        if measure.kind == "hartley":
            return math.log2(self.string_count())
        if measure.kind == "min":
            return -math.log2(max(w for w, _ in classes) / mu) + 0.0
        if measure.kind == "shannon":
            return -math.fsum(
                mult * (w / mu) * math.log2(w / mu) for w, mult in classes
            ) + 0.0
        alpha = measure.alpha
        power_sum = math.fsum(mult * (w / mu) ** alpha for w, mult in classes)
        if power_sum < sys.float_info.min:
            # the sum underflowed to a subnormal or 0.0 and lost its digits: take
            # the terms relative to the heaviest class, whose term is 1
            top = max(w for w, _ in classes)
            relative = math.fsum(mult * (w / top) ** alpha for w, mult in classes)
            scale = alpha / (1.0 - alpha)  # finite for every finite alpha
            return scale * math.log2(top / mu) + math.log2(relative) / (1.0 - alpha)
        return math.log2(power_sum) / (1.0 - alpha) + 0.0


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

    The engine's blocks are counted into one int64 table per stack of
    patterns, a row of C(n, m) + 1 entries per pattern indexed by weight.
    Each plane of a block holds one pattern's weights and is counted with
    one ``bincount`` into that pattern's row; column 0 counts the strings x
    does not embed in, which are outside the set and never reported.  When
    the stack's last block is done, one ``nonzero`` of each row gives that
    pattern's classes.  No array of 2^n weights is ever held.

    - While 2^n < STRING_BLOCK a stack is the whole spaces of the patterns
      of one block; as C(n, m) < 2^n for n >= 1, its table is no larger
      than the block.
    - From 2^n = STRING_BLOCK on, a stack is one pattern, and its one row
      collects all of that pattern's blocks: 8 (C(n, m) + 1) bytes, at most
      5.6 MB under the default 22-bit cap, 321 MB at (n, m) = (28, 14) and
      1.24 GB at (30, 15).  One block's count is never longer than its row.

    Every argument is checked when the function is called.
    """
    xs = list(xs)
    if xs:  # m <= n before the cap; pattern_blocks checks the rest
        _check_nm(n, len(xs[0]))
    blocks = pattern_blocks(xs, n, max_bits)
    return _histograms(blocks, len(xs[0]), n)


def _histograms(blocks, m: int, n: int) -> Iterator[WeightClasses]:
    """The ``WeightClasses`` of each pattern of ``blocks``, one stack at a time.

    A stack's blocks share their ``first``; row j of its table counts
    pattern j's strings by weight, column w for weight w = 0..C(n, m).
    """
    width = binomial(n, m) + 1
    for _, stack in groupby(blocks, key=itemgetter(0)):
        table = None
        for _, _, block in stack:
            if table is None:
                table = np.zeros((len(block), width), dtype=np.int64)
            for row, plane in zip(table, block):
                counts = np.bincount(plane.astype(np.intp).ravel())
                row[: len(counts)] += counts
                del counts  # before the next block's: one count at a time
        for row in table:
            # column 0 counts the strings x does not embed in: outside the set
            weights = np.flatnonzero(row[1:])[::-1] + 1
            yield WeightClasses(
                m=m,
                deletions=n - m,
                classes=tuple(zip(weights.tolist(), row[weights].tolist())),
            )


def count_distinct_subsequences(y: str, m: int) -> int:
    """Number of distinct length-m strings embeddable in y."""
    _check_nm(len(y), m)
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
    _check_nm(n, t)
    return math.fsum(binomial(n - t - 1 + i, i) * 0.5**i for i in range(t + 1))
