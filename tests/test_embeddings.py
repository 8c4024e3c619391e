"""Three independent embedding counters and the block-map partition."""

import random
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delseq import (
    binomial,
    block_maps,
    complement,
    count_embeddings_dp,
    count_embeddings_runs,
    embedding_counts_by_block_map,
    enumerate_masks,
    reverse,
    rle_encode,
)
from delseq import embeddings
from delseq.embeddings import sigma
from delseq.verify import _strings as all_strings
from delseq.verify import suite_embeddings_partition, suite_embeddings_three_way

bit_pairs = st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="01", min_size=0, max_size=n),
        st.text(alphabet="01", min_size=n, max_size=n),
    )
)


def brute_count(x, y):
    """Oracle: count masks by scanning every |x|-subset of positions."""
    return sum(
        1
        for c in combinations(range(len(y)), len(x))
        if all(y[i] == b for i, b in zip(c, x))
    )


def test_enumerate_masks_table_rows():
    assert enumerate_masks("110", "11000") == [(1, 2, 3), (1, 2, 4), (1, 2, 5)]
    assert enumerate_masks("110", "01010") == [(2, 4, 5)]
    assert enumerate_masks("", "01010") == [()]


def test_enumerate_masks_lexicographic():
    masks = enumerate_masks("10", "10101")
    assert masks == sorted(masks)


def test_count_embeddings_dp_known_values():
    assert count_embeddings_dp("110", "11100") == 6
    assert count_embeddings_dp("101", "10101") == 4
    assert count_embeddings_dp("10", "1100") == 4
    assert enumerate_masks("10", "1100") == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert count_embeddings_dp("11", "1") == 0
    assert count_embeddings_dp("", "0110") == 1


def test_block_maps_counts():
    # two runs of x against four runs of y: three ways to place the gaps
    maps = block_maps(rle_encode("01"), rle_encode("0101"))
    assert len(maps) == 3
    assert maps == [(1, 2), (1, 4), (3, 4)]
    assert block_maps(rle_encode("010"), rle_encode("010")) == [(1, 2, 3)]
    assert block_maps(rle_encode("010"), rle_encode("01")) == []
    with pytest.raises(ValueError):
        block_maps(rle_encode("10"), rle_encode("01"))


@given(st.integers(1, 9), st.integers(1, 9))
def test_block_map_count_matches_sigma(lp, l):
    # alternating strings give one run per character
    rx = rle_encode("".join("01"[i % 2] for i in range(lp)))
    ry = rle_encode("".join("01"[i % 2] for i in range(l)))
    assert len(block_maps(rx, ry)) == sigma(lp, l)


def test_runs_worked_example():
    y = "0000111100001111"
    x = "0011"
    parts = embedding_counts_by_block_map(x, y)
    assert sorted(c for _, c in parts) == [36, 132, 132]
    assert count_embeddings_runs(x, y) == 300
    assert count_embeddings_dp(x, y) == 300


def test_runs_simple_case_equal_blocks():
    # equal block counts: product of per-block binomials
    assert count_embeddings_runs("01", "0011") == binomial(2, 1) * binomial(2, 1)
    assert count_embeddings_runs("110", "11000") == 3


def test_runs_mismatched_first_symbol():
    # y's leading run cannot host any mask position
    assert count_embeddings_runs("1", "01") == 1
    assert count_embeddings_runs("10", "0110") == 2
    assert count_embeddings_runs("0", "1") == 0


def test_three_way_agreement_exhaustive_small():
    result = suite_embeddings_three_way(7, random.Random(0))
    assert result.ok, result.failures[:3]


def test_runs_equals_block_map_decomposition_exhaustive():
    """The path sum adds up exactly the per-map group sizes it never lists."""
    for n in range(0, 8):
        for y in all_strings(n):
            for m in range(0, n + 1):
                for x in all_strings(m):
                    parts = embedding_counts_by_block_map(x, y)
                    assert count_embeddings_runs(x, y) == sum(c for _, c in parts)


@pytest.mark.parametrize(
    "x, y, parts, count",
    [
        ("", "", [((), 1)], 1),  # empty x embeds once, even in empty y
        ("", "0110", [((), 1)], 1),
        ("0110", "011", [], 0),  # m > n
        ("01", "", [], 0),
        ("10", "0110", [((1, 2), 2)], 2),  # maps refer to y without its "0"
        ("1", "0011", [((1,), 2)], 2),
        ("0", "111", [], 0),  # y is one run of the other symbol
        ("01", "1", [], 0),
    ],
)
def test_runs_edge_cases(x, y, parts, count):
    assert embedding_counts_by_block_map(x, y) == parts
    assert count_embeddings_runs(x, y) == count == count_embeddings_dp(x, y)


def _runs_string(rng, length, p):
    bit = rng.choice("01")
    for _ in range(length):
        yield bit
        if rng.random() < p:
            bit = "10"[int(bit)]


def test_runs_matches_dp_beyond_map_enumeration():
    """Pairs with up to 24 runs in x and 60 in y, where listing the maps is
    hopeless: x = (01)^12 in y = (01)^30 alone has C(42, 18) of them."""
    x, y = "01" * 12, "01" * 30
    # every run has length 1, so each map's group is a single mask
    assert sigma(24, 60) == binomial(42, 18)
    assert count_embeddings_runs(x, y) == count_embeddings_dp(x, y) == binomial(42, 18)
    rng = random.Random(20201)
    for _ in range(300):
        n = rng.randint(0, 60)
        m = rng.randint(0, min(n, 24))
        # few or many runs: switch symbol with a random probability
        p = rng.random()
        x, y = ("".join(_runs_string(rng, k, p)) for k in (m, n))
        assert count_embeddings_runs(x, y) == count_embeddings_dp(x, y)


@settings(max_examples=300)
@given(bit_pairs)
def test_three_way_agreement_random(pair):
    x, y = pair
    assert (
        len(enumerate_masks(x, y))
        == count_embeddings_dp(x, y)
        == count_embeddings_runs(x, y)
        == brute_count(x, y)
    )


@settings(max_examples=200)
@given(bit_pairs)
def test_complement_and_reversal_invariance(pair):
    x, y = pair
    w = count_embeddings_dp(x, y)
    assert w == count_embeddings_dp(complement(x), complement(y))
    assert w == count_embeddings_dp(reverse(x), reverse(y))


@settings(max_examples=200)
@given(bit_pairs)
def test_monotonicity_bound(pair):
    x, y = pair
    w = count_embeddings_dp(x, y)
    assert w <= binomial(len(y), len(x))
    # the bound is tight only for a constant pair, except at the degenerate
    # ends m = 0 and m = n where C(n, m) = 1 makes equality automatic
    if 0 < len(x) < len(y) and w == binomial(len(y), len(x)):
        assert set(y) == set(x) and len(set(x)) == 1


def test_block_map_partition_exhaustive():
    """Masks grouped by their block map form the partition the counter sums."""
    result = suite_embeddings_partition(7, random.Random(0))
    assert result.ok, result.failures[:3]


def test_mismatched_symbol_masks_shift():
    # masks of x in y are masks of x in y-without-first-run, shifted
    x, y = "10", "0110"
    k1 = rle_encode(y).runs[0]
    inner = enumerate_masks(x, y[k1:])
    assert enumerate_masks(x, y) == [
        tuple(p + k1 for p in mask) for mask in inner
    ]


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 200])
def test_dp_lanes_hold_binomials_at_lane_boundaries(n):
    """x = 0^m in y = 0^n puts C(j, i) in every lane, up to C(n, n/2) near 2^n."""
    y = "0" * n
    assert [count_embeddings_dp("0" * m, y) for m in range(n + 1)] == [
        comb(n, m) for m in range(n + 1)
    ]
    assert count_embeddings_dp("1" * (n // 2), "1" * n) == comb(n, n // 2)


@pytest.mark.parametrize("symbol", "01")
def test_runs_one_run_x_matches_dp_across_lane_widths(symbol):
    """x = symbol^k takes the closed form C(count of symbol in y, k); the DP
    checks it at every |y| up to 70, across its 64-bit lane switch."""
    rng = random.Random(f"one-run-{symbol}")
    for n in range(71):
        ys = {"".join(_runs_string(rng, n, p)) for p in (0.5, 0.1)}
        for y in ys | {symbol * n}:
            for k in range(1, n + 2):
                x = symbol * k
                assert count_embeddings_runs(x, y) == count_embeddings_dp(x, y), (x, y)


@pytest.mark.parametrize(
    "x, y",
    [
        ("000", "0101"),  # |x| <= |y|, but y has two zeros
        ("11111", "110011"),
        ("1" * 9, "10" * 7 + "1"),
        ("0", "1111"),
    ],
)
def test_runs_one_run_x_longer_than_its_symbol_count(x, y):
    assert count_embeddings_runs(x, y) == 0 == count_embeddings_dp(x, y)
    assert enumerate_masks(x, y) == []


@pytest.mark.parametrize(
    "x, y",
    [
        ("0101", "0011"),  # enough ones and zeros, four runs against two
        ("010", "0011"),
        ("101", "0110"),  # two runs of y left after its first run is stripped
        ("1010", "1110001"),
        ("01" * 6, "0" * 6 + "1" * 6 + "0" * 6),
    ],
)
def test_runs_x_with_more_runs_than_y(x, y):
    assert count_embeddings_runs(x, y) == 0 == count_embeddings_dp(x, y)
    assert enumerate_masks(x, y) == []


def test_enumerate_masks_returns_at_once_when_x_does_not_embed():
    # one more 1 than y holds: pruning on length alone took about 90 s on it
    start = time.perf_counter()
    assert enumerate_masks("1" * 41, "10" * 39 + "1") == []
    assert time.perf_counter() - start < 1.0


def test_enumerate_masks_match_dp_on_seeded_pairs():
    # x a random subsequence of y (embeds) or random bits (mostly not)
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(600):
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 14)))
        if rng.random() < 0.5:
            x = "".join(c for c in y if rng.random() < 0.6)
        else:
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, len(y) + 2)))
        masks = enumerate_masks(x, y)
        assert len(masks) == count_embeddings_dp(x, y), (x, y)
        assert masks == sorted(set(masks)), (x, y)
        for mask in masks:
            assert "".join(y[p - 1] for p in mask) == x
            assert all(a < b for a, b in zip(mask, mask[1:]))
        seen[bool(masks)] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_dp_matches_runs_on_long_random_pairs():
    rng = random.Random(1414)
    for _ in range(200):
        n = rng.randint(0, 200)
        m = rng.randint(0, n)
        x, y = ("".join(_runs_string(rng, k, rng.random() / 4)) for k in (m, n))
        assert count_embeddings_dp(x, y) == count_embeddings_runs(x, y)


@pytest.mark.parametrize(
    "x, y, count",
    [
        ("", "", 1),
        ("", "01" * 40, 1),
        ("0", "", 0),
        ("0" * 65, "0" * 64, 0),
        ("01" * 70, "01" * 69, 0),
        ("1" * 64, "1" * 64, 1),
    ],
)
def test_dp_edge_cases(x, y, count):
    assert count_embeddings_dp(x, y) == count == count_embeddings_runs(x, y)


@pytest.mark.parametrize("counter", [count_embeddings_dp, count_embeddings_runs])
@pytest.mark.parametrize("n", [5, 64, 100])
def test_counters_refuse_invalid_strings_every_call(counter, n):
    """The per-x caches keep no invalid x, and y is checked at every call."""
    good = "01" * (n // 2) + "0" * (n % 2)
    bad_x = ["012", "0a", "0" * n + "2"]  # the last is longer than y
    for x, y in [(x, good) for x in bad_x] + [("0", "01" * (n // 2) + "2")]:
        for _ in range(2):
            with pytest.raises(ValueError):
                counter(x, y)
    counter("01", good)  # "01" is now cached as a valid x
    for _ in range(2):
        with pytest.raises(ValueError):
            counter("01", good[:-1] + "x")


def test_dp_cache_keeps_only_narrow_lanes():
    embeddings._narrow_masks.cache_clear()
    x = "010"
    # one block map: one 0 from each outer run and one 1 from the middle one
    assert count_embeddings_dp(x, "0" * 2000 + "1" * 1000 + "0" * 2000) == 2000 * 1000 * 2000
    assert embeddings._narrow_masks.cache_info().currsize == 0
    assert count_embeddings_dp(x, "0110" * 4) == count_embeddings_runs(x, "0110" * 4)
    misses = embeddings._narrow_masks.cache_info().misses
    widest = max(mask.bit_length() for mask in embeddings._narrow_masks(x))
    assert embeddings._narrow_masks.cache_info().misses == misses
    assert widest <= 64 * (len(x) + 1)
