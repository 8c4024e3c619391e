"""The verify suites' own plumbing: shared passes and the enumeration cap."""

import random

import pytest

from delseq import verify
from delseq.exhaustive import EnumerationCapExceeded


def test_entropy_suites_read_the_shared_pass(monkeypatch):
    # both entropy suites come from the one pattern_blocks sweep per (n, m)
    # that posterior-laws and cluster-census read; no x is enumerated alone
    swept, alone = [], []
    blocks, weights = verify.pattern_blocks, verify.all_weights

    def counting_blocks(xs, n, max_bits=None):
        swept.append((n, len(xs[0])))
        return blocks(xs, n, max_bits)

    def counting_weights(x, n, max_bits=None):
        alone.append((x, n))
        return weights(x, n, max_bits)

    monkeypatch.setattr(verify, "pattern_blocks", counting_blocks)
    monkeypatch.setattr(verify, "all_weights", counting_weights)
    verify._weight_vector_suites.cache_clear()
    try:
        invariance = verify.suite_entropy_invariance(6, random.Random(0))
        extremes = verify.suite_entropy_extremization(6, random.Random(0))
    finally:
        verify._weight_vector_suites.cache_clear()
    assert alone == []
    assert swept == [(n, m) for n in range(1, 7) for m in range(1, n + 1)]
    assert invariance.ok and invariance.checks == 2 * sum(
        2**m for n in range(1, 7) for m in range(1, n + 1)
    )
    assert extremes.ok and extremes.checks == 2 * sum(
        1 for n in range(3, 7) for m in range(2, n)
    )


def test_hws_moments_obeys_the_env_cap(monkeypatch):
    # at max-n 16 the ratio window enumerates 010 at n = 16, above the cap
    monkeypatch.setenv("DELSEQ_MAX_BITS", "14")
    with pytest.raises(EnumerationCapExceeded):
        verify.suite_hws_moments(16, random.Random(0))
