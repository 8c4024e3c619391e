"""The vectorized whole-space engine against the scalar implementations."""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from delseq import (
    EnumerationCapExceeded,
    binomial,
    canonical_embedding,
    count_embeddings_dp,
    exhaustive,
)
from delseq.exhaustive import (
    STRING_BLOCK,
    _tables,
    canonical_ends_last,
    check_float64_exact,
    hamming_weight_counts,
    pattern_blocks,
    resolve_max_bits,
)
from delseq.verify import _strings as all_strings
from whole_space import all_weights


def _strings_in(blocks):
    """How many strings the blocks of one x hold, and their total weight."""
    sizes, totals = zip(*((block.size, block.sum()) for _, _, block in blocks))
    return sum(sizes), sum(totals)


def test_all_weights_matches_dp():
    for n in range(0, 9):
        ys = all_strings(n)
        for x in ("", "0", "10", "110", "0101"):
            if len(x) > n:
                continue
            w = all_weights(x, n)
            assert w.shape == (1 << n,)
            for i, y in enumerate(ys):
                assert int(w[i]) == count_embeddings_dp(x, y)


def test_all_weights_matches_dp_every_y_up_to_12():
    rng = random.Random(20200325)
    for n in range(0, 13):
        ys = all_strings(n)
        patterns = {"", "0" * n, "1" * n, "0" * (n + 1), "1" * (n + 3)}
        for m in range(1, n):
            patterns.add("".join(rng.choice("01") for _ in range(m)))
        for x in sorted(patterns):
            w = all_weights(x, n)
            assert w.dtype == np.int64 and w.shape == (1 << n,)
            assert w.tolist() == [count_embeddings_dp(x, y) for y in ys], (x, n)


def test_all_weights_matches_dp_sampled_17_to_22():
    # from n = 17 on the product runs in several blocks of STRING_BLOCK
    # strings: sample every block, and reach m = n // 2, where the counts and
    # the sums in the product are largest
    rng = random.Random(7919)
    for n in range(17, 23):
        for m in (1, rng.randint(2, 6), rng.randint(7, 11), n // 2):
            x = "".join(rng.choice("01") for _ in range(m))
            w = all_weights(x, n)
            assert w.dtype == np.int64 and w.shape == (1 << n,)
            assert int(w.sum()) == binomial(n, m) << (n - m)
            samples = rng.sample(range(1 << n), 150)
            for lo in range(0, 1 << n, STRING_BLOCK):
                samples += rng.sample(range(lo, lo + STRING_BLOCK), 3)
            for i in samples:
                assert int(w[i]) == count_embeddings_dp(x, format(i, f"0{n}b"))


def test_float64_exactness_guard():
    assert binomial(56, 28) < 2**53 <= binomial(57, 28)
    check_float64_exact(56, 28)
    check_float64_exact(57, 0)
    for n, m in ((57, 28), (67, 33)):
        with pytest.raises(EnumerationCapExceeded, match=r"2\^53"):
            check_float64_exact(n, m)
    tracemalloc.start()
    try:
        for n, m in ((57, 28), (67, 33)):
            with pytest.raises(
                EnumerationCapExceeded, match=rf"C\({n},{m}\).*float64.*2\^53"
            ):
                pattern_blocks(["0" * m], n, max_bits=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _table_peak(n, m, stack=1):
    """Bytes of the prefix table plus the suffix table's last doubling step."""
    return 8 * stack * (m + 1) * (2 ** (n // 2) + 3 * 2 ** (n - n // 2) // 2)


@pytest.mark.parametrize("xs,n", [(["0110"], 20), (["011"], 21), (["010"] * 10, 8)])
def test_tables_refused_above_physical_memory(monkeypatch, xs, n):
    # the reading is pinned: the real one is never compared with a real build
    peak = _table_peak(n, len(xs[0]), len(xs))
    monkeypatch.setattr(exhaustive, "physical_memory", lambda: peak - 1)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded, match=f"need {peak} bytes"):
            pattern_blocks(xs, n)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 1 << 20
    monkeypatch.setattr(exhaustive, "physical_memory", lambda: peak)
    assert _strings_in(pattern_blocks(xs, n)) == (
        len(xs) << n,
        len(xs) * binomial(n, len(xs[0])) << (n - len(xs[0])),
    )


def test_tables_unchecked_where_memory_is_unknown(monkeypatch):
    monkeypatch.setattr(exhaustive, "physical_memory", lambda: None)
    assert _strings_in(pattern_blocks(["01"], 6)) == (64, 15 << 4)


@pytest.mark.parametrize("x,n", [("0110", 28), ("01", 31)])
def test_table_peak_is_the_build_peak(x, n):
    # past numpy's fixed buffers the traced peak of a build is the stated peak
    tracemalloc.start()
    try:
        tables = _tables([x], n)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tables
    assert 0 <= allocated - _table_peak(n, len(x)) < 1 << 16


def test_pattern_blocks_rejects_negative_length():
    for x in ("0", ""):
        with pytest.raises(ValueError, match="n >= 0"):
            pattern_blocks([x], -1)


def test_pattern_blocks_checks_when_called():
    # a bad argument raises at the call, before any block is asked for
    for (x, *args), error in (
        (("012", 5), ValueError),
        (("0", -1), ValueError),
        (("1", 25), EnumerationCapExceeded),
        (("0" * 28, 57, 57), EnumerationCapExceeded),
    ):
        with pytest.raises(error):
            pattern_blocks([x], *args)


def test_hamming_weight_counts_of_each_string():
    # a one-row block selecting only y = u * 2^(n - k) + v counts h(y) once
    for n in range(0, 13):
        columns = 1 << (n - n // 2)
        for i, y in enumerate(all_strings(n)):
            select = np.zeros((1, columns), dtype=bool)
            select[0, i % columns] = True
            counts = hamming_weight_counts(select, i // columns, n)
            assert counts.tolist() == [int(h == y.count("1")) for h in range(n + 1)]


def test_hamming_weight_counts_match_per_weight_scan():
    # the engine's own blocks, summed: n = 17 and 18 span several of them
    rng = random.Random(5)
    for n in (0, 1, 5, 16, 17, 18):
        ham = np.array([y.count("1") for y in all_strings(n)])
        select = np.array([rng.random() < 0.7 for _ in range(1 << n)])
        rows = select.reshape(1 << (n // 2), -1)
        counts = sum(
            hamming_weight_counts(rows[start : start + len(block)], start, n)
            for _, start, (block,) in pattern_blocks(["1"], n, max_bits=n)
        )
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            int(np.count_nonzero(select & (ham == h))) for h in range(n + 1)
        ]


@pytest.mark.parametrize("n", [18, 19, 20])
def test_hamming_weight_counts_beyond_one_block(n):
    # 2^(n - 16) blocks of whole prefix rows: a sparse random selection
    # against y.count("1"), and the whole space, where every block's counts
    # reach their largest
    rng = np.random.default_rng(n)
    chosen = rng.choice(1 << n, 4000, replace=False)
    select = np.zeros(1 << n, dtype=bool)
    select[chosen] = True
    expected = Counter(format(y, f"0{n}b").count("1") for y in chosen.tolist())
    for rows, want in (
        (select.reshape(1 << (n // 2), -1), [expected[h] for h in range(n + 1)]),
        (np.ones((1 << (n // 2), 1 << (n - n // 2)), dtype=bool),
         [binomial(n, h) for h in range(n + 1)]),
    ):
        counts = sum(
            hamming_weight_counts(rows[start : start + len(block)], start, n)
            for _, start, (block,) in pattern_blocks(["1"], n, max_bits=n)
        )
        assert counts.dtype == np.int64
        assert counts.tolist() == want


@pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (6, 12), (7, 15), (5, 16), (4, 17)])
def test_pattern_blocks_stack_whole_spaces(m, n):
    # below STRING_BLOCK strings each block stacks the whole spaces of the
    # next STRING_BLOCK >> n patterns; from there on it is rows of one pattern
    xs = all_strings(m)
    stack = max(1, STRING_BLOCK >> n)
    columns = 1 << (n - n // 2)
    seen = {x: np.zeros(0) for x in xs}
    for first, start, block in pattern_blocks(xs, n):
        assert block.size <= STRING_BLOCK
        assert len(block) == (min(stack, len(xs) - first) if stack > 1 else 1)
        assert first % stack == 0
        for j, rows in enumerate(block):
            x = xs[first + j]
            assert len(seen[x]) == start * columns
            seen[x] = np.concatenate([seen[x], rows.ravel()])
    for x in xs:
        assert np.array_equal(seen[x], all_weights(x, n)), x


@pytest.mark.parametrize("m,n", [(0, 4), (3, 5), (5, 12), (7, 17)])
def test_product_tables_are_c_contiguous(m, n):
    # the block product reads both tables without a strided copy
    xs = all_strings(m)[:5]
    prefix, suffix = _tables(xs, n)
    assert prefix.flags.c_contiguous and suffix.flags.c_contiguous
    assert prefix.shape == (len(xs), 1 << (n // 2), m + 1)
    assert suffix.shape == (len(xs), m + 1, 1 << (n - n // 2))


def test_pattern_blocks_need_patterns_of_one_length():
    for xs in (["01", "011"], []):
        with pytest.raises(ValueError):
            pattern_blocks(xs, 5)


def test_canonical_ends_last_matches_canonical():
    for n in range(1, 9):
        ys = all_strings(n)
        for x in ("0", "11", "010", "1011"):
            if len(x) > n:
                continue
            present = all_weights(x, n) > 0
            maximal = canonical_ends_last(x, present)
            for i, y in enumerate(ys):
                mask = canonical_embedding(x, y)
                assert bool(present[i]) == (mask is not None)
                assert bool(maximal[i]) == (mask is not None and mask[-1] == n)


def test_cap_enforced():
    with pytest.raises(EnumerationCapExceeded):
        pattern_blocks(["1"], 25)
    assert _strings_in(pattern_blocks(["1"], 5, max_bits=5)) == (2**5, 5 * 2**4)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("DELSEQ_MAX_BITS", "3")
    with pytest.raises(EnumerationCapExceeded):
        pattern_blocks(["1"], 4)
    monkeypatch.setenv("DELSEQ_MAX_BITS", "4")
    assert _strings_in(pattern_blocks(["1"], 4))[0] == 16
    monkeypatch.setenv("DELSEQ_MAX_BITS", "2O")
    with pytest.raises(ValueError, match="DELSEQ_MAX_BITS.*'2O'"):
        resolve_max_bits()
    assert resolve_max_bits(5) == 5
