"""The uncertainty set, its posterior distribution and subsequence statistics.

For a received string x of length m, the uncertainty set contains every
length-n string y that can project onto x; the posterior over it weights
each y by its embedding count omega_x(y), normalized by
mu = C(n,m) * 2^(n-m).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import binomial, check_bits
from .exhaustive import all_weights


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


def _check_nm(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n} m={m}")


@dataclass(frozen=True, eq=False)
class Posterior:
    """The weighted uncertainty set for x at supersequence length n.

    ``support`` holds, in ascending order, the MSB-first index of every
    length-n y with at least one embedding, and ``omega`` the int64 weight
    omega_x(y) of each; ``mu`` is the exact normalizer, so probabilities are
    weight/mu.  ``len(p)`` is the support size.  The (y, weight) pairs are
    built only when asked for, through ``entries`` or ``strings()``, and the
    digits of y in bulk through ``digits()``.
    """

    x: str
    n: int
    support: np.ndarray
    omega: np.ndarray
    mu: int

    def __post_init__(self) -> None:
        self.support.flags.writeable = False
        self.omega.flags.writeable = False

    def weights(self) -> list[int]:
        """The weights as Python ints, in support order."""
        return self.omega.tolist()

    def digits(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The bits of y, MSB first, as ASCII '0'/'1' bytes for support[start:stop].

        A uint8 array with one row of n bytes per y: the last n of the 64
        bits of each big-endian index.
        """
        octets = self.support[start:stop].astype(">u8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=1)[:, 64 - self.n :]
        return bits + np.uint8(ord("0"))

    def strings(self) -> list[str]:
        """The supersequences y as bit strings, in support order."""
        if self.n == 0:
            return [""] * len(self)
        return [y.decode() for y in self.digits().view(f"S{self.n}").ravel().tolist()]

    @property
    def entries(self) -> tuple[tuple[str, int], ...]:
        """(y, omega_x(y)) pairs sorted by y as a binary number."""
        return tuple(zip(self.strings(), self.weights()))

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class WeightClasses:
    """Multiset of (weight, multiplicity) pairs, heaviest class first."""

    classes: tuple[tuple[int, int], ...]

    def string_count(self) -> int:
        return sum(mult for _, mult in self.classes)

    def mask_count(self) -> int:
        return sum(w * mult for w, mult in self.classes)


def build_posterior(x: str, n: int, max_bits: int | None = None) -> Posterior:
    """Materialize the posterior for x over all length-n strings."""
    check_bits(x)
    _check_nm(n, len(x))
    weights = all_weights(x, n, max_bits=max_bits)
    (support,) = np.nonzero(weights)
    return Posterior(
        x=x, n=n, support=support, omega=weights[support], mu=total_masks(n, len(x))
    )


def weight_classes(p: Posterior) -> WeightClasses:
    """Histogram of the posterior's weights."""
    values, counts = np.unique(p.omega, return_counts=True)
    return WeightClasses(tuple(zip(values[::-1].tolist(), counts[::-1].tolist())))


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
    return fsum(binomial(n - t - 1 + i, i) * 0.5**i for i in range(t + 1))
