"""Uncertainty-set posteriors, weight histograms and distinct-subsequence statistics."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delseq import (
    EnumerationCapExceeded,
    binomial,
    constant_classes,
    count_distinct_subsequences,
    count_embeddings_dp,
    expected_distinct_subsequences,
    distinct_subsequence_profile,
    masks_per_cluster,
    total_masks,
    uncertainty_cardinality,
    weight_classes,
)
from delseq import exhaustive
from delseq.cli import main
from delseq.superspace import pattern_weight_classes
from delseq.verify import _strings as all_strings
from whole_space import all_weights


def test_uncertainty_cardinality():
    assert uncertainty_cardinality(5, 3) == 16
    assert uncertainty_cardinality(7, 7) == 1
    assert uncertainty_cardinality(6, 0) == 2**6
    with pytest.raises(ValueError):
        uncertainty_cardinality(3, 4)



def test_closed_forms_equal_their_per_term_sums():
    # the running products against one math.comb per term
    for n in range(121):
        for m in range(n + 1):
            terms = sum(math.comb(n, r) for r in range(m, n + 1))
            assert uncertainty_cardinality(n, m) == terms, (n, m)
            classes = tuple(
                (math.comb(n - j, m), math.comb(n, j)) for j in range(n - m + 1)
            )
            assert constant_classes(n, m).classes == (
                classes if m else ((1, 1 << n),)
            ), (n, m)
    # and at n = 10^4, where a comb per term is slow
    assert constant_classes(10**4, 6).identities_hold()


def test_total_masks():
    assert total_masks(5, 3) == 40
    assert total_masks(9, 9) == 1
    assert total_masks(4, 3) == 8
    with pytest.raises(ValueError):
        total_masks(2, 5)


def test_masks_per_cluster():
    assert masks_per_cluster(7, 5, 0) == 21
    assert masks_per_cluster(7, 5, 1) == 42
    assert sum(masks_per_cluster(7, 5, a) for a in range(3)) == total_masks(7, 5)
    with pytest.raises(ValueError):
        masks_per_cluster(7, 5, 3)


def test_posterior_weights_small():
    w = all_weights("0", 2)
    assert w.tolist() == [2, 1, 1, 0]  # y = 00, 01, 10, 11
    assert total_masks(2, 1) == 4 == sum(w.tolist())


def test_posterior_weights_table_values():
    w = all_weights("110", 5).tolist()
    assert sum(1 for v in w if v) == 16
    assert sum(w) == 40
    by_y = dict(zip(all_strings(5), w))
    assert by_y["11100"] == 6
    assert by_y["11110"] == 6
    # easy to drop in a hand census; the enumeration must keep it
    assert by_y["11010"] == 4


def test_posterior_weights_degenerate_and_cap():
    w = all_weights("0110", 4).tolist()
    assert w == [int(y == "0110") for y in all_strings(4)]
    assert all_weights("", 0).tolist() == [1]
    with pytest.raises(EnumerationCapExceeded):
        exhaustive.pattern_blocks(["1"], 30)
    blocks = exhaustive.pattern_blocks(["1"], 23, max_bits=23)
    assert sum(block.sum() for _, _, (block,) in blocks) == total_masks(23, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.text(alphabet="01", min_size=1, max_size=n))
))
def test_posterior_laws(args):
    n, x = args
    weights = all_weights(x, n).tolist()
    assert sum(1 for w in weights if w) == uncertainty_cardinality(n, len(x))
    assert sum(weights) == total_masks(n, len(x))
    assert all(count_embeddings_dp(x, y) == w for y, w in zip(all_strings(n), weights))


def test_weight_classes_examples():
    assert weight_classes("0", 2).classes == ((2, 1), (1, 2))
    assert weight_classes("10", 4).classes == (
        (4, 1),
        (3, 3),
        (2, 4),
        (1, 3),
    )


def test_weight_classes_constant_string():
    # the closed-form histogram of 0^m is the engine's, m = 0 included
    for n in range(13):
        for m in range(n + 1):
            assert constant_classes(n, m) == weight_classes("0" * m, n)
    assert all(
        constant_classes(n, m).identities_hold()
        for n in range(201)
        for m in {0, 1, 2, 6, n // 2, n - 1, n}
        if 0 <= m <= n
    )


def test_weight_classes_totals_constant_over_x():
    n = 7
    for m in (2, 3):
        for x in all_strings(m):
            wc = weight_classes(x, n)
            assert wc.string_count() == uncertainty_cardinality(n, m)
            assert wc.mask_count() == total_masks(n, m)
            assert wc.identities_hold()
            assert (wc.m, wc.deletions, wc.n, wc.mu) == (m, n - m, n, total_masks(n, m))


def test_weight_classes_match_embedding_counter():
    """The engine's histogram is the counting DP's, over every y, m <= 4, n <= 9."""
    for n in range(0, 10):
        ys = all_strings(n)
        for m in range(0, min(n, 4) + 1):
            for x in all_strings(m):
                counts = Counter(count_embeddings_dp(x, y) for y in ys)
                del counts[0]
                expected = tuple(sorted(counts.items(), reverse=True))
                assert weight_classes(x, n).classes == expected, (x, n)


def _seeded_cases():
    rng = np.random.default_rng(16)
    for n in range(17, 23):
        m = int(rng.integers(4, 12))
        yield "".join(rng.choice(["0", "1"], m)), n


@pytest.mark.parametrize(
    "x, n",
    # the first six keep the ids they were first recorded under
    [
        pytest.param("0110101001", 16, id="0110101001-16-branches0"),  # one block
        pytest.param("0110101001", 17, id="0110101001-17-branches1"),
        pytest.param("1001", 18, id="1001-18-branches2"),
        pytest.param("11111111", 19, id="11111111-19-branches3"),
        # a block's weights span more values than it has strings
        pytest.param("0" * 10, 20, id="0000000000-20-branches4"),
        pytest.param("01" * 5, 20, id="0101010101-20-branches5"),
        *_seeded_cases(),
    ],
)
def test_weight_classes_match_whole_space_sort(monkeypatch, x, n):
    """Block by block into one count table: the sort of all 2^n, at any block size."""
    w = all_weights(x, n)
    values, counts = np.unique(w[w > 0], return_counts=True)
    expected = tuple(zip(values[::-1].tolist(), counts[::-1].tolist()))
    assert weight_classes(x, n).classes == expected
    # a pattern's table then collects 64 to 2048 blocks
    monkeypatch.setattr(exhaustive, "STRING_BLOCK", 1 << 10)
    assert weight_classes(x, n).classes == expected


def test_weight_classes_memory_is_one_table(monkeypatch):
    # 2048 blocks of one pattern: the peak is its count table, not their parts
    monkeypatch.setattr(exhaustive, "STRING_BLOCK", 1 << 10)
    tracemalloc.start()
    try:
        wc = weight_classes("0110101001", 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wc.identities_hold()
    assert peak < 8 * (binomial(22, 10) + 1) + (2 << 20)


def test_wide_block_memory_is_two_rows(monkeypatch):
    # a constant x spreads one block's weights over most of its row: the peak
    # is the row and one block's count, which is never longer than the row
    monkeypatch.setattr(exhaustive, "STRING_BLOCK", 1 << 10)
    tracemalloc.start()
    try:
        wc = weight_classes("0" * 10, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wc.identities_hold()
    assert peak < 2 * 8 * (binomial(20, 10) + 1) + (1 << 20)


def test_stacked_classes_match_one_pattern_at_a_time(monkeypatch):
    # stacks of 2, 3 or 7 whole spaces per block: stacks split mid-sweep and
    # the last one is short; the reference reduces one prefix row at a time
    for m in range(1, 9):
        xs = all_strings(m)
        for n in (m, m + 1, m + 3):
            monkeypatch.setattr(exhaustive, "STRING_BLOCK", 1)
            expected = [weight_classes(x, n) for x in xs]
            for stack in (2, 3, 7):
                monkeypatch.setattr(exhaustive, "STRING_BLOCK", stack << n)
                got = list(pattern_weight_classes(xs, n))
                assert got == expected, (m, n, stack)


def test_weight_classes_guards_match_posterior(capsys):
    # not a bit string, m > n, n < 0, over the cap, C(67, 33) >= 2^53: the
    # posterior dump refuses each with the same message, before any output
    for x, n, *cap in (("2", 3), ("11", 1), ("1", -1), ("1", 30), ("0" * 33, 67, 67)):
        with pytest.raises((ValueError, EnumerationCapExceeded)) as info:
            weight_classes(x, n, *cap)
        code = 3 if info.type is EnumerationCapExceeded else 2
        argv = ["posterior", "--x", x, f"--n={n}"] + [f"--max-bits={b}" for b in cap]
        assert main(argv) == code, (x, n)
        assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_count_distinct_subsequences():
    assert count_distinct_subsequences("00", 1) == 1
    assert count_distinct_subsequences("01", 1) == 2
    assert count_distinct_subsequences("0011010001", 8) == 16
    assert distinct_subsequence_profile("0101")[0] == 1
    with pytest.raises(ValueError):
        count_distinct_subsequences("01", 3)


def test_expected_distinct_subsequences_values():
    assert expected_distinct_subsequences(2, 1) == pytest.approx(1.5)
    assert expected_distinct_subsequences(7, 0) == 1.0
    assert expected_distinct_subsequences(5, 5) == 1.0
    with pytest.raises(ValueError):
        expected_distinct_subsequences(3, 4)


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_expected_distinct_matches_brute_mean(n):
    for t in range(n + 1):
        m = n - t
        total = sum(count_distinct_subsequences(y, m) for y in all_strings(n))
        assert expected_distinct_subsequences(n, t) == pytest.approx(
            total / 2**n, abs=1e-9
        )
