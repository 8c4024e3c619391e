"""Counting and enumerating the embeddings of x in y by three methods.

An embedding (mask) of x in y is a strictly increasing tuple of 1-based
positions pi with y restricted to pi equal to x.  The three routes to the
embedding count omega_x(y) are kept deliberately independent so they can
cross-check each other:

* ``enumerate_masks``   -- brute-force enumeration (the oracle),
* ``count_embeddings_dp``   -- the classic distinct-occurrence DP,
* ``count_embeddings_runs`` -- the block-map sum over the run-length
  encodings, which groups masks by the run f(i) of y hosting the end of run
  i of x.

Every mask belongs to exactly one block map f, and the group of f has the
size prod_i factor(f(i-1), f(i), i), with factor C(s, k'_i) - C(s - k_f(i),
k'_i) for the s symbols of y's runs f(i-1)+1, f(i-1)+3, ..., f(i).  Since
each factor depends only on (f(i-1), f(i), i), ``count_embeddings_runs``
adds up these products as a path sum over the states (i, f(i)), with
O(l'·l^2) transitions for l' runs of x and l runs of y, instead of listing
the C(l' + u, u) maps.  As f(i) steps on, s - k_f(i) is the previous step's
s, so the path sum spells the factor inline as the difference of its last
two binomials; ``_run_factor`` is the same factor for the per-map oracle.
For a one-run x the factors over f(1) telescope to C(c, |x|), with c the
count of x's symbol in y, and the path sum is taken in that closed form.
The maps themselves, with their group sizes, remain available from
``embedding_counts_by_block_map``: that per-map decomposition is the path
sum's oracle and is checked against ``block_map_of_mask``.

``count_embeddings_dp`` runs the DP on all of x at once: lane i of one
Python int holds W(i, j), the count of x[:i] in y[:j], and each symbol of y
updates every lane with one shift, one mask and one add.  A lane is
64·(|y| // 64 + 1) bits wide, more than the |y| bits that W(i, j) <= C(j, i)
can fill, so no lane carries into the next.

Both counters do their x-side work once per distinct x, in bounded
``lru_cache``s keyed by x, since a batch of counts often repeats its pattern:
the DP caches x's two lane masks at 64-bit lanes (the width of every
|y| < 64; wider masks are built at the call, so no entry grows with |y|),
and the run counter caches x's run lengths and number of ones.  Each cache
entry is made by a function that runs ``check_bits`` on x, so an invalid x
is refused on every call and a cached x was checked once.  The two counters
share nothing else.

The run counter exits with 0 before reading y's runs when x has more ones
or more zeros than y, returns the closed form for a one-run x without
reading them, and exits with 0 after aligning them when x has more runs
than y has left.  Both run-based routes take y's run lengths as a plain
list from ``core.run_lengths``, one C-level scan, aligned by
``_align_runs``; only the per-map oracle wraps them in ``Rle`` objects,
for ``block_maps``.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

from .core import Rle, binomial, check_bits, run_lengths

Mask = tuple[int, ...]
BlockMap = tuple[int, ...]


def enumerate_masks(x: str, y: str) -> list[Mask]:
    """All masks of x in y, in lexicographic order.

    Returns the single empty mask for empty x and an empty list when x does
    not embed in y.  Each position is bounded by the right-most mask's, found
    in one right-to-left pass, so every branch of the search ends in a mask.
    """
    check_bits(x)
    check_bits(y)
    last: list[int] = []
    end = len(y)
    for c in reversed(x):
        end = y.rfind(c, 0, end)
        if end < 0:
            return []
        last.append(end + 1)
    last.reverse()
    out: list[Mask] = []
    prefix: list[int] = []

    def extend(i: int, start: int) -> None:
        if i == len(x):
            out.append(tuple(prefix))
            return
        for p in range(start, last[i] + 1):
            if y[p - 1] == x[i]:
                prefix.append(p)
                extend(i + 1, p + 1)
                prefix.pop()

    extend(0, 1)
    return out


LANE = 64  # bits per lane of the cached DP masks


def _lane_masks(x: str, width: int) -> tuple[int, int]:
    """The DP's two lane masks of x: lanes i = 1..m all ones where x_i = '0', resp. '1'.

    Lane i is bits i*width .. (i+1)*width - 1; lane 0, which holds W(0, j) = 1,
    is set in neither.  Checks x, so every mask comes from a valid pattern.
    """
    check_bits(x)
    lane = width // 8
    zero, full = bytes(lane), b"\xff" * lane
    return tuple(
        int.from_bytes(zero + b"".join(full if c == b else zero for c in x), "little")
        for b in "01"
    )


@lru_cache(maxsize=4096)
def _narrow_masks(x: str) -> tuple[int, int]:
    """``_lane_masks`` at LANE bits, the width of every |y| < LANE, cached by x."""
    return _lane_masks(x, LANE)


def count_embeddings_dp(x: str, y: str) -> int:
    """omega_x(y) via the recurrence W(i,j) = W(i,j-1) + [x_i = y_j] W(i-1,j-1).

    Lane i of the int w holds W(i, j), and symbol y_j updates every lane at
    once: ``w << width`` moves W(i-1, j-1) into lane i, and the mask of y_j
    keeps it where x_i = y_j.  W(i, j) <= C(j, i) <= 2^|y| < 2^width, so no
    lane carries into the next.  The m > n exit comes before the masks, so a
    cached entry holds at most 64 lanes of 64 bits.
    """
    check_bits(y)
    m, n = len(x), len(y)
    if m > n:
        check_bits(x)
        return 0
    width = LANE * (n // LANE + 1)
    zeros, ones = _narrow_masks(x) if width == LANE else _lane_masks(x, width)
    w = 1
    for c in y:
        w += (w << width) & (ones if c == "1" else zeros)
    return w >> (m * width)


def block_maps(x_rle: Rle, y_rle: Rle) -> list[BlockMap]:
    """All strictly increasing maps f from x's runs to y's runs with f(i) = i mod 2.

    Requires x and y to start with the same symbol (strip y's first run
    beforehand if they do not); the parity condition then makes f map each
    run of x onto a run of y of the same symbol.
    """
    lp = x_rle.block_count
    l = y_rle.block_count
    if lp and l and x_rle.first != y_rle.first:
        raise ValueError("x and y must start with the same symbol")
    if lp == 0:
        return [()]
    maps: list[BlockMap] = []
    f: list[int] = []

    def extend(i: int, lo: int) -> None:
        if i > lp:
            maps.append(tuple(f))
            return
        # remaining runs i..lp need images <= l with alternating parity
        for v in range(lo, l - (lp - i) + 1, 2):
            f.append(v)
            extend(i + 1, v + 1)
            f.pop()

    extend(1, 1)
    return maps


def sigma(lp: int, l: int) -> int:
    """Number of block maps: C(lp + u, u) with u = (l~ - lp) / 2."""
    lt = l if (l - lp) % 2 == 0 else l - 1
    u = (lt - lp) // 2
    if u < 0:
        return 0
    return binomial(lp + u, u)


@lru_cache(maxsize=4096)
def _x_runs(x: str) -> tuple[tuple[int, ...], int]:
    """The run lengths of x and its number of ones, after ``check_bits``, cached by x."""
    check_bits(x)
    return tuple(run_lengths(x)), x.count("1")


def _align_runs(x: str, y: str) -> list[int] | None:
    """The run lengths of y that can host non-empty x: y's first run stripped on a symbol mismatch.

    None when what is left of y is shorter than x.  Both strings must already
    have passed ``check_bits``; x's own run lengths come from ``_x_runs``.
    """
    if len(x) > len(y):
        return None
    ky = run_lengths(y)
    if x[0] != y[0]:
        if len(x) > len(y) - ky[0]:
            return None
        del ky[0]
    return ky


def _run_factor(s: int, need: int, last: int) -> int:
    """The factor of run i of x in the size of a block-map group.

    After deleting the opposite-symbol runs strictly between f(i-1) and f(i),
    the same-symbol runs {f(i-1)+1, f(i-1)+3, ..., f(i)} of y merge into one
    run of length s, whose final ``last`` symbols are run f(i).  The factor
    counts the ways to pick the ``need`` = k'_i symbols of run i there while
    keeping run f(i) non-empty in the mask: C(s, k'_i) - C(s - k_f(i), k'_i).
    Every argument is non-negative, so ``math.comb`` (0 when k'_i > s) is
    already the convention needed.  This is the factor of the per-map oracle
    ``_block_map_count``; ``count_embeddings_runs`` spells it inline.
    """
    return comb(s, need) - comb(s - last, need)


def _block_map_count(f: BlockMap, kx: list[int], ky: list[int]) -> int:
    """Size of the mask group for a single block map f."""
    total = 1
    prev = 0
    for i, fi in enumerate(f, start=1):
        s = sum(ky[j - 1] for j in range(prev + 1, fi + 1, 2))
        term = _run_factor(s, kx[i - 1], ky[fi - 1])
        if term == 0:
            return 0
        total *= term
        prev = fi
    return total


def embedding_counts_by_block_map(x: str, y: str) -> list[tuple[BlockMap, int]]:
    """The per-block-map decomposition of omega_x(y).

    When x and y start with different symbols the maps refer to y with its
    first run removed, which hosts no mask position in that case.
    """
    check_bits(x)
    check_bits(y)
    if not x:
        return [((), 1)]
    ky = _align_runs(x, y)
    if ky is None:
        return []
    kx = _x_runs(x)[0]
    first = int(x[0])
    rx, ry = Rle(first, kx), Rle(first, tuple(ky))
    return [(f, _block_map_count(f, kx, ky)) for f in block_maps(rx, ry)]


def count_embeddings_runs(x: str, y: str) -> int:
    """omega_x(y) as the sum of the per-block-map group sizes, as a path sum.

    ``paths[f]`` is the sum, over the partial block maps of runs 1..i of x
    that end at f(i) = f, of the product of their run factors.  A state
    ``prev`` extends to f(i) = prev+1, prev+3, ... up to l - (l' - i), the
    last run that leaves room for the remaining runs of x; the merged run
    grows by one same-symbol run of y at each step, from s - k_f(i) to s
    symbols, so the factor C(s, k'_i) - C(s - k_f(i), k'_i) of ``_run_factor``
    is the last binomial less the one before it.  Zero factors are skipped,
    and an empty row means no block map has a non-zero group.

    Two exits come first: x needs no more ones and no more zeros than y
    has, and, as f is strictly increasing, no more runs than y has left
    after alignment.  A one-run x of k'_1 = |x| symbols needs neither y's
    runs nor the path sum: its factors over f(1) telescope to C(c, |x|),
    with c the count of x's symbol in y.
    """
    check_bits(y)
    kx, ones = _x_runs(x)
    if not x:
        return 1
    y_ones = y.count("1")
    if ones > y_ones or len(x) - ones > len(y) - y_ones:
        return 0
    if len(kx) == 1:
        return comb(y_ones if ones else len(y) - y_ones, len(x))
    ky = _align_runs(x, y)
    if ky is None:
        return 0
    lp, l = len(kx), len(ky)
    if lp > l:
        return 0
    paths = {0: 1}
    for i, need in enumerate(kx, start=1):
        top = l - (lp - i)
        row: dict[int, int] = {}
        for prev, total in paths.items():
            s = low = 0
            for fi in range(prev + 1, top + 1, 2):
                s += ky[fi - 1]
                high = comb(s, need)
                term = high - low  # C(s, k'_i) - C(s - k_f(i), k'_i)
                low = high
                if term:
                    row[fi] = row.get(fi, 0) + total * term
        if not row:
            return 0
        paths = row
    return sum(paths.values())


def block_map_of_mask(mask: Mask, x_rle: Rle, y_rle: Rle) -> BlockMap:
    """The block map a given mask of x in y belongs to.

    f(i) is the run of y containing the mask position matching the last
    symbol of run i of x.  Assumes x and y start with the same symbol.
    """
    if x_rle.block_count and y_rle.block_count and x_rle.first != y_rle.first:
        raise ValueError("x and y must start with the same symbol")
    x_ends = list(accumulate(x_rle.runs))
    y_ends = list(accumulate(y_rle.runs))

    def run_of(pos: int) -> int:
        for j, end in enumerate(y_ends, start=1):
            if pos <= end:
                return j
        raise ValueError(f"position {pos} beyond y")

    return tuple(run_of(mask[e - 1]) for e in x_ends)
