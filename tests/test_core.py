"""Run-length encoding, binomials, the length and pattern guards and run merging."""

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delseq import (
    Rle,
    apply_g,
    binomial,
    complement,
    g_chain,
    hamming_weight,
    reverse,
    rle_decode,
    rle_encode,
)
from delseq.clustering import (
    cluster_table,
    count_singletons,
    maximal_initials_cluster,
    maximal_initials_total,
    rho,
)
from delseq.core import _check_pattern, run_lengths
from delseq.hws import (
    kappa_max,
    kappa_squared,
    omega_variance_asymptotic,
    pattern_sweep,
)
from delseq.superspace import (
    count_distinct_subsequences,
    expected_distinct_subsequences,
)

bits = st.text(alphabet="01", max_size=16)


def test_rle_encode_known_values():
    assert rle_encode("0011010001") == Rle(0, (2, 2, 1, 1, 3, 1))
    assert rle_encode("") == Rle(None, ())
    assert rle_encode("11111") == Rle(1, (5,))


def test_rle_decode_known_values():
    assert rle_decode(Rle(0, (2, 2, 1, 1, 3, 1))) == "0011010001"
    assert rle_decode(Rle(1, (5,))) == "11111"
    assert rle_decode(Rle(0, (1, 1, 1))) == "010"
    assert rle_decode(Rle(None, ())) == ""


def test_rle_validation():
    with pytest.raises(ValueError):
        Rle(2, (1,))
    with pytest.raises(ValueError):
        Rle(0, (1, 0))
    with pytest.raises(ValueError):
        Rle(None, (1,))
    with pytest.raises(ValueError):
        Rle(0, ())
    with pytest.raises(ValueError):
        rle_encode("012")


@given(bits)
def test_rle_round_trip(s):
    assert rle_decode(rle_encode(s)) == s


@given(bits)
def test_rle_runs_alternate_and_cover(s):
    r = rle_encode(s)
    assert sum(r.runs) == len(s)
    assert all(b >= 1 for b in r.runs)
    # uniqueness of the encoding = no two adjacent runs share a symbol
    symbols = [r.symbol(i) for i in range(1, r.block_count + 1)]
    assert all(a != b for a, b in zip(symbols, symbols[1:]))


def test_rle_encode_exhaustive():
    # every s with |s| <= 12; groupby is an independent scan of the runs
    for n in range(13):
        for i in range(1 << n):
            s = format(i, f"0{n}b") if n else ""
            r = rle_encode(s)
            assert rle_decode(r) == s
            assert list(r.runs) == run_lengths(s)
            assert list(r.runs) == [len(list(g)) for _, g in itertools.groupby(s)]
            assert all(b >= 1 for b in r.runs)
            assert r.first == (int(s[0]) if s else None)
            symbols = [r.symbol(j) for j in range(1, r.block_count + 1)]
            assert all(a != b for a, b in zip(symbols, symbols[1:]))


@given(bits)
def test_complement_only_flips_first_symbol(s):
    r, rc = rle_encode(s), rle_encode(complement(s))
    assert r.runs == rc.runs
    if s:
        assert rc.first == r.first ^ 1


@pytest.mark.parametrize(
    "guarded",
    [
        _check_pattern,
        lambda x, n: count_singletons(n, x),
        lambda x, n: omega_variance_asymptotic(n, x),
        lambda x, n: cluster_table(n, x),
    ],
)
def test_pattern_guard(guarded):
    n = 4
    for x in ("1", "0110"):  # |x| = 1 and |x| = n
        guarded(x, n)
    for x in ("", "01101"):  # |x| = 0 and |x| = n + 1
        message = f"need 1 <= |x| <= n, got |x|={len(x)} n={n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guarded(x, n)
    with pytest.raises(ValueError, match="^not a binary string: '012'$"):
        guarded("012", n)


@pytest.mark.parametrize(
    "guarded",
    [
        lambda m, n: pattern_sweep(m, n),
        lambda m, n: maximal_initials_total(n, m),
        lambda m, n: maximal_initials_cluster(n, m, 0, 0),
    ],
)
def test_length_guard(guarded):
    n = 4
    for m in (1, n):
        guarded(m, n)
    for m in (0, n + 1):
        message = f"need 1 <= m <= n, got m={m} n={n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guarded(m, n)


@pytest.mark.parametrize("guarded", [kappa_max, pattern_sweep])
def test_length_guard_without_n(guarded):
    guarded(1)
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"^need m >= 1, got m={m}$"):
            guarded(m)


@pytest.mark.parametrize("guarded", [kappa_squared, rho])
def test_nonempty_pattern_guard(guarded):
    guarded("0")
    with pytest.raises(ValueError, match=r"^need 1 <= \|x\| <= n, got \|x\|=0 n=0$"):
        guarded("")
    with pytest.raises(ValueError, match="^not a binary string: '012'$"):
        guarded("012")


@pytest.mark.parametrize(
    "guarded",
    [
        lambda n, m: count_distinct_subsequences("01" * (n // 2), m),
        expected_distinct_subsequences,
    ],
)
def test_nm_guard(guarded):
    n = 4
    for m in (0, n):
        guarded(n, m)
    for m in (-1, n + 1):
        message = f"need 0 <= m <= n, got n={n} m={m}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guarded(n, m)


def test_hamming_weight():
    assert hamming_weight("110") == 2
    assert hamming_weight("00000") == 0
    assert hamming_weight("0011010001") == 4


def test_reverse_and_complement():
    assert reverse("110") == "011"
    assert complement("110") == "001"


def test_binomial_values():
    assert binomial(5, 3) == 10
    assert binomial(4, 7) == 0
    assert binomial(9, 5) == 126
    assert binomial(0, 0) == 1
    assert binomial(10, -1) == 0
    # empty-product convention, needed by sums whose upper index may go negative
    assert binomial(-1, 0) == 1


def test_binomial_matches_factorial_form():
    from math import factorial

    for n in range(0, 40):
        for k in range(0, n + 1):
            assert binomial(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


def test_binomial_conventions_and_pascal_rule():
    for n in range(-5, 61):
        for k in range(-3, 63):
            if k < 0:
                assert binomial(n, k) == 0
            elif k == 0:
                assert binomial(n, k) == 1
            elif n < k:
                assert binomial(n, k) == 0
            if n >= 1:
                # C(n-1, 0) = 1 for n - 1 < 0 breaks the rule at n <= 0, k = 1
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_apply_g_merges_first_two_runs():
    assert apply_g(rle_encode("1001110")) == rle_encode("0001110")
    assert apply_g(Rle(0, (7,))) == Rle(0, (7,))
    assert apply_g(rle_encode("101010")) == rle_encode("001010")


@given(bits.filter(lambda s: len(s) > 0))
def test_apply_g_properties(s):
    r = rle_encode(s)
    g = apply_g(r)
    assert g.length == r.length
    if r.block_count > 1:
        assert g.block_count == r.block_count - 1
    else:
        assert g == r


@given(bits.filter(lambda s: len(s) > 0))
def test_g_chain_reaches_constant_in_blockcount_steps(s):
    r = rle_encode(s)
    chain = g_chain(r)
    assert len(chain) == r.block_count
    assert chain[-1].block_count == 1
