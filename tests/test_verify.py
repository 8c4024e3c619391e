"""The verify suites' own plumbing: shared passes and the enumeration cap."""

import random
import tracemalloc

import numpy as np
import pytest

from delseq import verify
from delseq.exhaustive import EnumerationCapExceeded
from whole_space import all_weights


def test_entropy_suites_read_the_shared_pass(monkeypatch):
    # every run sweeps each (n, m) once, for all five weight-vector suites
    swept = []
    blocks = verify.pattern_blocks

    def counting_blocks(xs, n, max_bits=None):
        swept.append((n, len(xs[0])))
        return blocks(xs, n, max_bits)

    monkeypatch.setattr(verify, "pattern_blocks", counting_blocks)
    once = [(n, m) for n in range(1, 5) for m in range(1, n + 1)]
    for _ in range(2):
        swept.clear()
        results = {r.name: r for r in verify.run_all(4)}
        assert swept == once
    assert all(results[name].ok for name in verify.WEIGHT_VECTOR_SUITES)
    assert results["entropy-invariance"].checks == 2 * sum(
        2**m for n, m in once
    )
    extremal = 2 * sum(1 for n, m in once if 2 <= m < n)
    assert results["entropy-extremization"].checks == extremal
    assert results["singleton-extremization"].checks == extremal


def test_weight_vector_pass_reads_the_cap_on_every_call(monkeypatch):
    monkeypatch.delenv("DELSEQ_MAX_BITS", raising=False)
    assert all(r.ok for r in verify.suite_weight_vectors(4, random.Random(0)))
    monkeypatch.setenv("DELSEQ_MAX_BITS", "3")
    with pytest.raises(EnumerationCapExceeded):
        verify.suite_weight_vectors(4, random.Random(0))


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
