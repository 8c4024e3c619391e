"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces the criterion's tolerance and, where stated, its runtime budget.
Run with::

    python -m pytest tests/test_acceptance.py -v -s
"""

import csv
import io
import random
import time
from contextlib import contextmanager

import pytest

from delseq import (
    constant_classes,
    count_embeddings_dp,
    count_embeddings_runs,
    deletion_classes,
    embedding_counts_by_block_map,
    enumerate_masks,
    renyi,
    single_deletion_classes,
    weight_classes,
    Rle,
)
from delseq.cli import main
from delseq.verify import (
    suite_hws_kappa,
    suite_hws_moments,
    suite_moment_estimate,
    suite_weight_vectors,
)

SEED = 20260810


@contextmanager
def criterion(label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n{label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\n{label}: PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded {budget}s budget"


@pytest.fixture(scope="module")
def weight_vectors():
    """Criteria 3, 7 and 10 read the one weight-vector pass, all x, n <= 12."""
    with criterion("weight-vector pass", budget=300.0):
        results = suite_weight_vectors(12, random.Random(SEED))
    return {r.name: r for r in results}


def compositions(total):
    """All run-length profiles of strings of the given length."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def random_runs(rng, max_total):
    runs, total = [], 0
    target = rng.randint(1, max_total)
    while total < target:
        b = rng.randint(1, min(5, target - total))
        runs.append(b)
        total += b
    return Rle(rng.randint(0, 1), tuple(runs))


def test_criterion_1_table_reproduction(capsys):
    """Table 6.1: kappa^2 exactly, Shannon entropy within 5e-4, in < 10 s."""
    with criterion("criterion 1 (table reproduction)", budget=10.0):
        assert main(["entropy-scan", "--n", "8", "--m", "5"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert header[:3] == ["x", "kappa2", "shannon"]
        table = {r[0]: (int(r[1]), float(r[2])) for r in data}
        expected = {
            "11111": (630, 5.4649),
            "00000": (630, 5.4649),
            "00001": (518, 5.7581),
            "11000": (486, 5.8838),
            "00010": (458, 6.0132),
            "10011": (398, 6.1076),
            "01101": (366, 6.2375),
            "01010": (350, 6.3498),
        }
        for x, (k2, h) in expected.items():
            assert table[x][0] == k2, f"kappa2({x})"
            assert abs(table[x][1] - h) <= 5e-4, f"H({x})"


def test_criterion_2_run_based_counting():
    """Worked example decomposition plus 10,000 random three-way checks < 30 s."""
    with criterion("criterion 2 (run-based counting)", budget=30.0):
        parts = embedding_counts_by_block_map("0011", "0000111100001111")
        assert sorted(c for _, c in parts) == [36, 132, 132]
        assert sum(c for _, c in parts) == 300
        rng = random.Random(SEED)
        for _ in range(10_000):
            n = rng.randint(1, 14)
            y = "".join(rng.choice("01") for _ in range(n))
            m = rng.randint(0, n)
            x = "".join(rng.choice("01") for _ in range(m))
            by_runs = count_embeddings_runs(x, y)
            assert by_runs == count_embeddings_dp(x, y)
            assert by_runs == len(enumerate_masks(x, y))


def test_criterion_3_cardinality_laws(weight_vectors):
    """|Y|, mask totals, maximal initials and cluster sizes, all x, n <= 12."""
    with criterion("criterion 3 (cardinality laws)"):
        laws = weight_vectors["posterior-laws"]
        assert laws.ok, laws.failures[:3]
        census = weight_vectors["cluster-census"]
        assert census.ok, census.failures[:3]


def test_criterion_4_extremization_finite_deletions():
    """At m = n-1 and n-2: constant strings minimize entropy, merges decrease
    it along every chain, and at one deletion the alternating strings maximize
    it with the Renyi decrease holding for alpha in {0.5, 2, 4}."""
    with criterion("criterion 4 (extremization at d <= 2)", budget=300.0):
        renyi_orders = [renyi(a) for a in (0.5, 2.0, 4.0)]
        for n in range(2, 13):
            for d, make in ((1, single_deletion_classes),
                            (2, lambda r: deletion_classes(r, 2))):
                m = n - d
                if m < 1:
                    continue
                entropies = {}
                for runs in compositions(m):
                    entropies[runs] = make(Rle(0, runs)).entropy()
                low = min(entropies.values())
                argmin = {runs for runs, h in entropies.items() if h < low + 1e-12}
                assert argmin == {(m,)}, f"argmin not constant at n={n} d={d}"
                for runs in entropies:
                    if len(runs) >= 2:
                        merged = (runs[0] + runs[1],) + runs[2:]
                        assert entropies[runs] > entropies[merged], (
                            f"merge did not decrease entropy at {runs}, d={d}"
                        )
                if d == 1 and m >= 2:
                    high = max(entropies.values())
                    argmax = {
                        runs for runs, h in entropies.items() if h > high - 1e-12
                    }
                    assert argmax == {(1,) * m}, f"argmax not alternating n={n}"
                    for runs in entropies:
                        if len(runs) < 2:
                            continue
                        merged = (runs[0] + runs[1],) + runs[2:]
                        for measure in renyi_orders:
                            assert (
                                make(Rle(0, runs)).entropy(measure)
                                > make(Rle(0, merged)).entropy(measure)
                            ), f"Renyi({measure.alpha}) increase at {runs}"


def test_criterion_5_closed_form_minima():
    """The closed-form histogram of the constant strings, whose entropies are
    the minima, equals the engine's for every 1 <= m <= n <= 14, exactly."""
    with criterion("criterion 5 (closed-form minima)"):
        for n in range(1, 15):
            for m in range(1, n + 1):
                assert weight_classes("0" * m, n) == constant_classes(n, m), (n, m)


def test_criterion_6_deletion_class_identities():
    """1,000 random run profiles, m <= 20: string-count and weight-sum
    identities exact; censuses match brute force whenever m <= 12."""
    with criterion("criterion 6 (deletion-class identities)"):
        from delseq import rle_decode
        from delseq import total_masks, uncertainty_cardinality

        rng = random.Random(SEED)
        brute_checked = 0
        for _ in range(1_000):
            x_rle = random_runs(rng, 20)
            m = x_rle.length
            for census in (
                single_deletion_classes(x_rle),
                deletion_classes(x_rle, 2),
            ):
                assert census.string_count() == uncertainty_cardinality(
                    census.n, m
                )
                assert census.mask_count() == total_masks(census.n, m)
                if m <= 12:
                    brute = weight_classes(rle_decode(x_rle), census.n)
                    assert census.classes == brute.classes
                    brute_checked += 1
        assert brute_checked > 500


def test_criterion_7_singletons(weight_vectors):
    """Insertion-slot formula equals brute force for every x, n <= 12, with the
    constant/alternating strings as unique extremizers for m <= 8."""
    with criterion("criterion 7 (singletons)"):
        census = weight_vectors["cluster-census"]
        assert census.ok, census.failures[:3]
        extremes = weight_vectors["singleton-extremization"]
        assert extremes.ok, extremes.failures[:3]


def test_criterion_8_hws_asymptotics():
    """m=1 moments exact; m=3 ratios inside [0.8, 1.2] at n=20 and moving
    toward 1 from n=12; kappa-max formula matches exhaustive maxima m <= 12."""
    with criterion("criterion 8 (hidden-word asymptotics)"):
        moments = suite_hws_moments(20, random.Random(SEED))
        assert moments.ok, moments.failures[:3]
        kappa = suite_hws_kappa(12, random.Random(SEED))
        assert kappa.ok, kappa.failures[:3]


def test_criterion_9_moment_estimate_bound():
    """|moment estimate - exact entropy| <= reported bound, m <= 4, n <= 16."""
    with criterion("criterion 9 (moment-estimate bound)"):
        result = suite_moment_estimate(16, random.Random(SEED))
        assert result.ok, result.failures[:3]


def test_criterion_10_distinct_subsequence_expectation(weight_vectors):
    """Closed-form E_t(n) equals the brute-force mean within 1e-9, n <= 12."""
    with criterion("criterion 10 (distinct-subsequence expectation)"):
        laws = weight_vectors["posterior-laws"]
        assert laws.ok, laws.failures[:3]
