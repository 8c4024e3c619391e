"""Binary strings, run-length encodings and exact combinatorial arithmetic.

Bit strings are plain Python ``str`` objects over the characters ``'0'`` and
``'1'``, written most-significant-first.  Positions are 1-based everywhere a
position is exposed (masks, run boundaries), matching the usual convention
[n] = {1, ..., n}.  All counting is done with Python's arbitrary-precision
integers; nothing here ever overflows or rounds.

Every guard on a bit string or on the lengths m and n is written once,
here: ``check_bits``, ``_check_nm`` (0 <= m <= n), ``_check_length`` (a
pattern length 1 <= m, and m <= n when there is an n) and ``_check_pattern``
(a binary x with 1 <= |x| <= n).  The other modules call them and restate
none; only the censuses, which take a run-length encoding, refuse an empty
one themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def check_bits(s: str) -> str:
    """Validate that ``s`` consists only of '0'/'1' characters and return it."""
    if s.strip("01"):
        raise ValueError(f"not a binary string: {s!r}")
    return s


def _check_nm(n: int, m: int) -> None:
    """Refuse lengths outside 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n} m={m}")


def _check_length(m: int, n: int | None = None, name: str = "m") -> None:
    """Refuse a pattern length m unless 1 <= m, and m <= n when n is given."""
    if n is None:
        if m < 1:
            raise ValueError(f"need {name} >= 1, got {name}={m}")
    elif not 1 <= m <= n:
        raise ValueError(f"need 1 <= {name} <= n, got {name}={m} n={n}")


def _check_pattern(x: str, n: int) -> None:
    """Refuse x unless it is a binary string with 1 <= |x| <= n."""
    check_bits(x)
    _check_length(len(x), n, "|x|")


def hamming_weight(s: str) -> int:
    """Number of '1' symbols in ``s``."""
    check_bits(s)
    return s.count("1")


def complement(s: str) -> str:
    """Flip every bit of ``s``."""
    check_bits(s)
    return s.translate(_FLIP)


_FLIP = str.maketrans("01", "10")


def reverse(s: str) -> str:
    return check_bits(s)[::-1]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n.

    C(n, 0) = 1 for every n, including negative n (the empty product); this
    is what makes sums like the expected-distinct-subsequence formula close
    over their full index range.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Rle:
    """Run-length encoding (a1; b1, ..., bl) of a binary string.

    ``first`` is the symbol of the first run (None for the empty string) and
    ``runs`` the run lengths.  Adjacent runs alternate symbol, so ``first``
    determines every run's symbol.
    """

    first: int | None
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.first is None:
            if self.runs:
                raise ValueError("runs present but first symbol unset")
        else:
            if self.first not in (0, 1):
                raise ValueError(f"first symbol must be 0 or 1, got {self.first}")
            if not self.runs:
                raise ValueError("first symbol set but no runs")
            if any(b < 1 for b in self.runs):
                raise ValueError(f"run lengths must be positive: {self.runs}")

    @property
    def block_count(self) -> int:
        return len(self.runs)

    @property
    def length(self) -> int:
        return sum(self.runs)

    def symbol(self, i: int) -> int:
        """Symbol of the i-th run, 1-based."""
        assert self.first is not None
        return self.first ^ ((i - 1) & 1)


def run_lengths(s: str) -> list[int]:
    """The run lengths of ``s``, from one C-level scan.

    A space goes in at every change of symbol and ``split`` cuts there, so no
    Python loop visits the characters.  ``s`` must already have passed
    ``check_bits``; every length is then positive, and the empty string has
    no runs.
    """
    return list(map(len, s.replace("01", "0 1").replace("10", "1 0").split()))


def rle_encode(s: str) -> Rle:
    """Run-length encode ``s``; the empty string encodes to an empty Rle."""
    check_bits(s)
    if not s:
        return Rle(None, ())
    return Rle(int(s[0]), tuple(run_lengths(s)))


def rle_decode(r: Rle) -> str:
    """Expand ``r`` back into a bit string."""
    if r.first is None:
        return ""
    out = []
    sym = r.first
    for b in r.runs:
        out.append(("1" if sym else "0") * b)
        sym ^= 1
    return "".join(out)


def apply_g(r: Rle) -> Rle:
    """Merge the first two runs of ``r`` into one run of the second's symbol.

    The block count drops by exactly one: the merged run takes the symbol of
    the former second run, which is encoded by flipping ``first``.  A
    single-run encoding is a fixed point.
    """
    if r.block_count <= 1:
        return r
    assert r.first is not None
    merged = (r.runs[0] + r.runs[1],) + r.runs[2:]
    return Rle(r.first ^ 1, merged)


def g_chain(r: Rle) -> list[Rle]:
    """The orbit of ``r`` under repeated merging, ending at a single run."""
    chain = [r]
    while chain[-1].block_count > 1:
        chain.append(apply_g(chain[-1]))
    return chain
