"""Clusters, maximal initials and singleton counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delseq import (
    RhoProfile,
    canonical_embedding,
    cluster_size_closed,
    cluster_table,
    count_singletons,
    enumerate_masks,
    is_maximal_initial,
    maximal_initials_cluster,
    maximal_initials_total,
    rho,
    uncertainty_cardinality,
)
from delseq.verify import _strings as all_strings


def test_canonical_embedding_examples():
    assert canonical_embedding("1011", "110011") == (1, 3, 5, 6)
    assert canonical_embedding("1011", "101011") == (1, 2, 3, 5)
    assert canonical_embedding("0110", "0110") == (1, 2, 3, 4)
    assert canonical_embedding("11", "00") is None


@settings(max_examples=150)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="01", min_size=1, max_size=n),
            st.text(alphabet="01", min_size=n, max_size=n),
        )
    )
)
def test_canonical_is_lexicographic_minimum(pair):
    x, y = pair
    masks = enumerate_masks(x, y)
    mask = canonical_embedding(x, y)
    if masks:
        assert mask == masks[0] == min(masks)
    else:
        assert mask is None


def test_is_maximal_initial_examples():
    assert is_maximal_initial("110", "01110") is True
    assert is_maximal_initial("110", "11100") is False
    assert is_maximal_initial("1011", "110011") is True
    assert is_maximal_initial("1011", "101011") is False


def test_maximal_initials_total():
    assert maximal_initials_total(5, 3) == 6
    assert maximal_initials_total(7, 7) == 1
    assert maximal_initials_total(9, 1) == 1
    with pytest.raises(ValueError):
        maximal_initials_total(5, 0)


def test_maximal_initials_cluster_examples():
    assert maximal_initials_cluster(5, 3, 2, 0) == 3
    assert maximal_initials_cluster(5, 3, 2, 1) == 2
    assert maximal_initials_cluster(5, 3, 2, 2) == 1
    assert maximal_initials_cluster(6, 3, 3, 1) == 0  # all-ones x, extra one
    with pytest.raises(ValueError):
        maximal_initials_cluster(5, 3, 4, 0)


def test_maximal_initials_cluster_sums_to_total():
    for n in range(1, 11):
        for m in range(1, n + 1):
            for hx in range(m + 1):
                total = sum(
                    maximal_initials_cluster(n, m, hx, c) for c in range(n - m + 1)
                )
                assert total == maximal_initials_total(n, m)


def test_maximal_initials_brute_force():
    for n in range(1, 10):
        for m in range(1, n + 1):
            for x in all_strings(m):
                count = sum(
                    is_maximal_initial(x, y) for y in all_strings(n)
                )
                assert count == maximal_initials_total(n, m)


def test_cluster_size_closed_examples():
    assert cluster_size_closed(5, 3, 2, 0) == 6
    assert cluster_size_closed(5, 3, 2, 1) == 7
    assert cluster_size_closed(5, 3, 2, 2) == 3
    assert cluster_size_closed(9, 4, 0, 3) == 84  # C(9,3): weightless x
    with pytest.raises(ValueError):
        cluster_size_closed(5, 3, 2, 3)


def test_cluster_size_recurrence_base_cases():
    # rows are (closed form, recurrence, maximal initials) for c = 0..n-|x|
    assert cluster_table(4, "0110") == [(1, 1, 1)]  # |x| = n: y = x
    assert cluster_table(3, "1") == [(3, 3, 1), (3, 3, 0), (1, 1, 0)]
    # leading zero of x pins the first bit of y when c = 0
    assert cluster_table(7, "011")[0][1] == cluster_table(6, "11")[0][1] == 15


def test_cluster_sizes_sum_to_cardinality():
    for n in range(1, 12):
        for m in range(n + 1):
            for hx in range(m + 1):
                total = sum(
                    cluster_size_closed(n, m, hx, c) for c in range(n - m + 1)
                )
                assert total == uncertainty_cardinality(n, m)


def test_rho_examples():
    assert rho("000") == RhoProfile(rho0=4, rho1=0)
    assert rho("110") == RhoProfile(rho0=1, rho1=2)
    assert rho("010") == RhoProfile(rho0=2, rho1=0)
    assert rho("1") == RhoProfile(rho0=0, rho1=2)
    with pytest.raises(ValueError):
        rho("")


def test_count_singletons_examples():
    assert count_singletons(5, "110") == 6
    assert count_singletons(5, "000") == 10
    assert count_singletons(5, "010") == 3
    with pytest.raises(ValueError):
        count_singletons(2, "110")
