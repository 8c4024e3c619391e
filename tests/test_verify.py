"""The verify suites' own plumbing: shared passes and the enumeration cap."""

import random
import tracemalloc

import numpy as np
import pytest

from delseq import verify
from delseq.exhaustive import EnumerationCapExceeded
from whole_space import all_weights


def test_entropy_suites_read_the_shared_pass(monkeypatch):
    # both entropy suites come from the one pattern_blocks sweep per (n, m)
    # that posterior-laws and cluster-census read
    swept = []
    blocks = verify.pattern_blocks

    def counting_blocks(xs, n, max_bits=None):
        swept.append((n, len(xs[0])))
        return blocks(xs, n, max_bits)

    monkeypatch.setattr(verify, "pattern_blocks", counting_blocks)
    verify._weight_vector_suites.cache_clear()
    try:
        invariance = verify.suite_entropy_invariance(6, random.Random(0))
        extremes = verify.suite_entropy_extremization(6, random.Random(0))
    finally:
        verify._weight_vector_suites.cache_clear()
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


def test_hws_moments_streams_the_whole_space(monkeypatch):
    # the moments come from the weight histogram: no 2^20 array is held
    monkeypatch.delenv("DELSEQ_MAX_BITS", raising=False)
    tracemalloc.start()
    try:
        result = verify.suite_hws_moments(20, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok and result.checks == 2 * 13 + 3
    assert peak < 2 << 20


def test_moments_of_one_symbol_are_exact():
    # omega_0(y) counts the zeros of y: mean n/2 and variance n/4, exactly
    for n in range(2, 15):
        assert verify._omega_moments("0", n) == (n / 2, n / 4)


@pytest.mark.parametrize("n", [12, 20])
def test_moments_match_the_whole_array(n):
    w = all_weights("010", n).astype(float)
    mean, var = verify._omega_moments("010", n)
    assert mean == pytest.approx(float(w.mean()), rel=1e-12)
    assert var == pytest.approx(float(np.var(w)), rel=1e-12)
