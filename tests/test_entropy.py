"""Entropy measures, closed-form minima and the finite-deletion censuses."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delseq import (
    HARTLEY,
    MIN_ENTROPY,
    SHANNON,
    Measure,
    complement,
    constant_classes,
    count_embeddings_dp,
    deletion_classes,
    delta1,
    entropy_estimate_from_moments,
    g_chain_entropies,
    min_minentropy_closed,
    min_renyi2_closed,
    min_shannon_closed,
    posterior_shannon,
    renyi,
    reverse,
    rle_encode,
    single_deletion_classes,
    total_masks,
    uncertainty_cardinality,
    weight_classes,
    apply_g,
    Rle,
)
from delseq.superspace import parse_measure, pattern_weight_classes
from delseq.verify import _strings as all_strings
from delseq.verify import suite_gchain_deletions
from whole_space import all_weights

compositions = st.lists(st.integers(1, 5), min_size=1, max_size=6)


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure("renyi")
    with pytest.raises(ValueError):
        Measure("renyi", 1.0)
    with pytest.raises(ValueError):
        Measure("shannon", 2.0)
    with pytest.raises(ValueError):
        Measure("gibbs")
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            renyi(alpha)
    with pytest.raises(ValueError):
        renyi(-math.inf)
    for token in ("renyi:nan", "renyi:inf", "renyi:-inf"):
        with pytest.raises(ValueError):
            parse_measure(token)
    assert parse_measure("renyi2") == renyi(2.0)
    assert parse_measure("renyi:0.5") == renyi(0.5)
    assert str(renyi(0.5)) == "renyi:0.5"
    # a column name reads back as its order, also past :g's 6 digits
    for alpha in (0.5, 3, 1e308, 0.1234567, 0.1234568, 2.0000001):
        assert parse_measure(str(renyi(alpha))) == renyi(alpha)
    assert str(renyi(2.0000001)) == "renyi:2.0000001"


def test_entropy_known_values():
    assert weight_classes("0", 2).entropy() == pytest.approx(1.5)
    assert weight_classes("11111", 8).entropy() == pytest.approx(5.4649, abs=5e-4)


def test_entropy_point_distribution_is_zero():
    wc = weight_classes("0101", 4)
    for measure in (SHANNON, MIN_ENTROPY, HARTLEY, renyi(2), renyi(0.5)):
        assert wc.entropy(measure) == pytest.approx(0.0, abs=1e-12)


def test_hartley_is_log_cardinality():
    wc = weight_classes("110", 5)
    assert wc.entropy(HARTLEY) == pytest.approx(math.log2(16))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.text(alphabet="01", min_size=1, max_size=n))
    )
)
def test_measure_ordering(args):
    n, x = args
    wc = weight_classes(x, n)
    h = wc.entropy(SHANNON)
    r2 = wc.entropy(renyi(2))
    hmin = wc.entropy(MIN_ENTROPY)
    assert h >= r2 - 1e-12
    assert r2 >= hmin - 1e-12


@pytest.mark.parametrize("x,n", [("0110", 8), ("0110101001", 20)])
def test_renyi_of_large_order_is_finite(x, n):
    # at 0110101001, n = 20 the sum of (w/mu)^alpha is subnormal from alpha = 65
    # and 0.0 from 69; at 0110, n = 8 it is 0.0 from 200
    wc = weight_classes(x, n)
    hmin = wc.entropy(MIN_ENTROPY)
    orders = (60, 66, 67, 68, 100, 200, 1000)
    hs = [wc.entropy(renyi(a)) for a in orders]
    for a, h in zip(orders, hs):
        # an integer order's power sum is an exact integer
        power_sum = sum(mult * w**a for w, mult in wc.classes)
        exact = (math.log2(power_sum) - a * math.log2(wc.mu)) / (1 - a)
        assert h == pytest.approx(exact, abs=1e-9), a
    hs.append(wc.entropy(renyi(1e308)))
    assert all(math.isfinite(h) and h >= hmin - 1e-9 for h in hs)
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert hs[-1] == pytest.approx(hmin, abs=1e-9)


def test_entropy_symmetries_exhaustive():
    for n in range(1, 9):
        for m in range(1, n + 1):
            for x in all_strings(m):
                h = posterior_shannon(x, n)
                assert posterior_shannon(complement(x), n) == pytest.approx(h, abs=1e-9)
                assert posterior_shannon(reverse(x), n) == pytest.approx(h, abs=1e-9)


def test_min_shannon_closed():
    assert min_shannon_closed(2, 1) == pytest.approx(1.5)
    assert min_shannon_closed(6, 6) == 0.0
    # the floats of the hand-written sum that the histogram's entropy replaced
    assert min_shannon_closed(8, 5) == 5.464955585487935
    assert min_shannon_closed(20, 10) == 16.16804699309705
    assert min_shannon_closed(56, 28) == 45.37779115991538
    assert min_shannon_closed(1000, 6) == 999.9740184224361


def test_min_renyi2_closed():
    assert min_renyi2_closed(2, 1) == pytest.approx(-math.log2(3 / 8))
    assert min_renyi2_closed(7, 7) == 0.0
    direct = weight_classes("00000", 8).entropy(renyi(2))
    assert min_renyi2_closed(8, 5) == pytest.approx(direct, abs=1e-9)
    assert min_renyi2_closed(8, 5) == 4.698830465279435
    assert min_renyi2_closed(20, 10) == 14.546224932929928
    assert min_renyi2_closed(56, 28) == 40.77106346968176


def _log2(v: int) -> float:
    """log2 of a positive int of any size, from its bit length and top 60 bits."""
    shift = max(v.bit_length() - 60, 0)
    return shift + math.log2(v >> shift)


def test_min_renyi2_closed_past_power_sum_underflow():
    # from about n = 600 at m = 6 the power sum underflows to 0.0
    wc = constant_classes(1000, 6)
    exact = 2 * _log2(wc.mu) - _log2(sum(mult * w * w for w, mult in wc.classes))
    assert min_renyi2_closed(1000, 6) == pytest.approx(exact, abs=1e-9)
    assert math.isfinite(min_renyi2_closed(600, 6))


def test_entropy_float_range():
    # C(1029, 514) < 2^1024 < C(1030, 515): the multiplicities leave the doubles
    assert min_shannon_closed(1029, 6) == 1028.9747510135703
    assert min_renyi2_closed(1029, 6) == 1028.9497936028304
    for closed in (min_shannon_closed, min_renyi2_closed):
        with pytest.raises(ValueError, match="outside the float range"):
            closed(1030, 6)
    # from n = 1081 the probabilities underflow to 0.0 as well
    wc = constant_classes(2000, 6)
    for measure in (SHANNON, MIN_ENTROPY, renyi(2)):
        with pytest.raises(ValueError, match="outside the float range"):
            wc.entropy(measure)
    assert wc.entropy(HARTLEY) == math.log2(wc.string_count())


def test_min_minentropy_closed():
    assert min_minentropy_closed(8, 5) == 3
    assert min_minentropy_closed(4, 4) == 0
    assert min_minentropy_closed(12, 7) == 5
    direct = weight_classes("0000000", 12).entropy(MIN_ENTROPY)
    assert direct == pytest.approx(5.0, abs=1e-12)


def test_single_deletion_classes_examples():
    assert single_deletion_classes(rle_encode("10")).classes == ((2, 2), (1, 2))
    assert single_deletion_classes(rle_encode("00")).classes == ((3, 1), (1, 3))
    assert single_deletion_classes(rle_encode("110")).classes == (
        (3, 1),
        (2, 1),
        (1, 3),
    )
    with pytest.raises(ValueError):
        single_deletion_classes(Rle(None, ()))


def test_deletion_classes_examples():
    assert deletion_classes(rle_encode("10"), 2).classes == (
        (4, 1),
        (3, 3),
        (2, 4),
        (1, 3),
    )
    top = deletion_classes(rle_encode("11"), 2).classes[0]
    assert top == (6, 1)  # y = 1111 carries C(4,2) masks
    assert deletion_classes(rle_encode("1"), 3).classes[0] == (4, 1)  # y = 1111
    for d in (0, -1):
        with pytest.raises(ValueError):
            deletion_classes(rle_encode("1"), d)
    with pytest.raises(ValueError):
        deletion_classes(Rle(None, ()), 2)


def _check_census_against_engine(d):
    # the census against the engine for every x with m + d <= 11
    for m in range(1, 12 - d):
        xs = all_strings(m)
        for x, brute in zip(xs, pattern_weight_classes(xs, m + d)):
            census = deletion_classes(rle_encode(x), d)
            assert census.classes == brute.classes
            assert census.identities_hold()
            if d == 1:
                # the closed form against the census at one deletion
                assert single_deletion_classes(rle_encode(x)) == census


def test_single_deletion_classes_match_brute_force():
    _check_census_against_engine(1)


def test_double_deletion_classes_match_brute_force():
    _check_census_against_engine(2)


def test_deletion_classes_match_brute_force():
    _check_census_against_engine(3)


def test_deletion_classes_match_insertion_oracle():
    # beyond the posterior's reach: every distinct string d insertions away
    # from x, each weighed with the counting DP
    def insertions(s):
        return {s[:i] + c + s[i:] for i in range(len(s) + 1) for c in "01"}

    rng = random.Random(41)
    for d, lengths in ((2, range(13, 41)), (3, range(13, 25))):
        for m in lengths:
            x = "".join(rng.choice("01") for _ in range(m))
            supers = {x}
            for _ in range(d):
                supers = {y for s in supers for y in insertions(s)}
            counts = Counter(count_embeddings_dp(x, y) for y in supers)
            assert deletion_classes(rle_encode(x), d).classes == tuple(
                sorted(counts.items(), reverse=True)
            )


def test_alternating_census_at_two_deletions():
    for m in range(5, 41):
        assert deletion_classes(Rle(0, (1,) * m), 2).classes == (
            (m + 1, 1),
            (4, math.comb(m, 2)),
            (3, m),
            (2, 2 * m),
            (1, 3),
        )


@given(compositions)
def test_deletion_class_identities(runs):
    r = Rle(1, tuple(runs))
    m = r.length
    single = single_deletion_classes(r)
    double = deletion_classes(r, 2)
    assert single.string_count() == uncertainty_cardinality(m + 1, m)
    assert single.mask_count() == total_masks(m + 1, m)
    assert double.string_count() == uncertainty_cardinality(m + 2, m)
    assert double.mask_count() == total_masks(m + 2, m)


def test_delta1_values():
    assert delta1(1, 1) == pytest.approx(-2 - 2 + 3 * math.log2(3))
    assert delta1(2, 5) == pytest.approx(delta1(5, 2))
    with pytest.raises(ValueError):
        delta1(0, 1)


def test_delta1_equals_scaled_entropy_drop():
    """2n (H_n(x) - H_n(g(x))) recovers the merge penalty at one deletion."""
    rng = random.Random(11)
    for _ in range(30):
        runs = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        r = Rle(rng.randint(0, 1), tuple(runs))
        n = r.length + 1
        gap = single_deletion_classes(r).entropy() - single_deletion_classes(
            apply_g(r)
        ).entropy()
        assert 2 * n * gap == pytest.approx(delta1(runs[0], runs[1]), abs=1e-9)


def _centre_defect(x):
    """x with its centre symbol x[m // 2] doubled and its last symbol dropped."""
    c = len(x) // 2
    return x[: c + 1] + x[c:-1]


@pytest.mark.parametrize(
    "x, rival, n, census, alternating_wins",
    [
        ("0101010101", "0101100101", 24, False, True),
        ("0101010101", "0101100101", 25, False, False),
        ("01" * 11, _centre_defect("01" * 11), 26, True, True),
        ("01" * 11 + "0", _centre_defect("01" * 11 + "0"), 27, True, False),
    ],
)
def test_alternating_strings_do_not_always_maximize_shannon(
    x, rival, n, census, alternating_wins
):
    """The conjectured Shannon argmax breaks one step past where it holds:
    in the whole space at m = 10 from n = 25, and at 4 deletions from m = 23."""
    if census:
        ours, theirs = (deletion_classes(rle_encode(s), n - len(x)) for s in (x, rival))
    else:
        ours, theirs = (weight_classes(s, n, max_bits=25) for s in (x, rival))
    gap = ours.entropy() - theirs.entropy()
    # each class term is within a few roundings of exact and fsum rounds their
    # sum once, so each entropy is within about 6 * 2^-53 * (H + 1) < 1e-13
    # of exact at H < 30: a gap above 1e-9 has the sign of the exact gap
    assert (gap if alternating_wins else -gap) > 1e-9
    # the maximum side is no majorization: neither histogram majorizes the other
    assert not ours.majorizes(theirs) and not theirs.majorizes(ours)


def test_g_chain_entropies():
    values = g_chain_entropies("101010", 8)
    assert len(values) == 6
    assert all(a > b for a, b in zip(values, values[1:]))
    assert g_chain_entropies("0000", 6) == [posterior_shannon("0000", 6)]
    two = g_chain_entropies("10", 3)
    assert two[0] == pytest.approx(1.918, abs=1e-3)
    assert two[1] == pytest.approx(1.793, abs=1e-3)


def test_g_decreases_entropy_single_and_double():
    """At one and two deletions the census of g(x) strictly majorizes x's, so
    every strictly Schur-concave entropy falls along every merge chain, and
    the alternating strings' single-deletion census is m weight-2 strings
    plus two singletons."""
    result = suite_gchain_deletions(10, random.Random(0))
    assert result.ok, result.failures[:3]


def test_entropy_estimate_point_distribution():
    est = entropy_estimate_from_moments(weight_classes("0110", 4))
    assert est.estimate == pytest.approx(0.0, abs=1e-12)
    assert est.bound == pytest.approx(0.0, abs=1e-12)


def _estimate_from_every_weight(x, n):
    """The moment estimate summed string by string, with fsum over all weights."""
    weights = [w for w in all_weights(x, n).tolist() if w]
    mu = total_masks(n, len(x))
    count = len(weights)
    mean = mu / count
    v = math.fsum((w - mean) ** 2 for w in weights) / count
    t3 = math.fsum((w - mean) ** 3 for w in weights) / count
    t4 = math.fsum((w - mean) ** 4 for w in weights) / count
    ln2 = math.log(2)
    inner = mean * math.log(mean) + v / (2 * mean) - t3 / (6 * mean**2)
    return (math.log2(mu) - inner / (mean * ln2), 5 * t4 / (3 * mean**4 * ln2))


def test_entropy_estimate_equals_per_string_sums():
    rng = random.Random(20201)
    cases = [("0", 1), ("0110", 4), ("0000", 14), ("01", 14)]
    for _ in range(60):
        n = rng.randint(1, 14)
        m = rng.randint(1, n)
        cases.append(("".join(rng.choice("01") for _ in range(m)), n))
    for x, n in cases:
        est = entropy_estimate_from_moments(weight_classes(x, n))
        assert tuple(est) == _estimate_from_every_weight(x, n), (x, n)


def test_entropy_estimate_within_bound():
    for x, n in (("000", 10), ("010", 9), ("1101", 11)):
        est = entropy_estimate_from_moments(weight_classes(x, n))
        exact = posterior_shannon(x, n)
        assert abs(exact - est.estimate) <= est.bound


def test_entropy_estimate_improves_with_n():
    errors = {
        n: abs(
            posterior_shannon("010", n)
            - entropy_estimate_from_moments(weight_classes("010", n)).estimate
        )
        for n in (8, 14)
    }
    assert errors[14] < errors[8]


def test_merge_gap_positive_double_deletion():
    """mu (H_n(x) - H_n(g(x))) > 0 for random run profiles at two deletions."""
    rng = random.Random(5)
    for _ in range(40):
        runs = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5)))
        r = Rle(rng.randint(0, 1), runs)
        m = sum(runs)
        mu = total_masks(m + 2, m)
        diff = deletion_classes(r, 2).entropy() - deletion_classes(
            apply_g(r), 2
        ).entropy()
        assert mu * diff > 0
