"""Self-verification suites: every module invariant, cross-checked by oracle.

Each suite runs a family of checks scaled by ``max_n`` (exhaustive scopes are
clamped to their intended design ranges) and reports how many checks ran and
which failed.  Randomized suites draw from a seeded generator so repeated
invocations are byte-identical.  Two checks are observations of empirical
claims (the kappa-entropy ordering off the reference rows, and the
kappa-minimization conjecture); their outcomes are reported as notes rather
than failures.  Five suites share one engine sweep per (n, m) over every x of
length m, made once per run, and every suite reads the cap from
DELSEQ_MAX_BITS alone, afresh on every call.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import clustering, embeddings, hws, superspace
from .core import (
    Rle,
    apply_g,
    binomial,
    complement,
    g_chain,
    reverse,
    rle_decode,
    rle_encode,
)
from .entropy import (
    constant_classes,
    deletion_classes,
    delta1,
    entropy_estimate_from_moments,
    min_minentropy_closed,
    min_renyi2_closed,
    min_shannon_closed,
    single_deletion_classes,
)
from .exhaustive import canonical_ends_last, hamming_weight_counts, pattern_blocks
from .superspace import MIN_ENTROPY, renyi


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    MAX_RECORDED = 8

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            if len(self.failures) < self.MAX_RECORDED:
                self.failures.append(message)
            else:
                self.failures[-1] = "... more failures suppressed"


def _strings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1 << n)] if n else [""]


def _alternating(m: int) -> set[str]:
    return {
        "".join("01"[i % 2] for i in range(m)),
        "".join("10"[i % 2] for i in range(m)),
    }


def _random_pair(rng: random.Random, max_len: int) -> tuple[str, str]:
    n = rng.randint(1, max_len)
    m = rng.randint(0, n)
    y = "".join(rng.choice("01") for _ in range(n))
    x = "".join(rng.choice("01") for _ in range(m))
    return x, y


def _random_runs(rng: random.Random, max_total: int) -> Rle:
    runs = []
    total = 0
    target = rng.randint(1, max_total)
    while total < target:
        b = rng.randint(1, min(4, target - total))
        runs.append(b)
        total += b
    return Rle(rng.randint(0, 1), tuple(runs))


def suite_core_rle(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("core-rle")
    for n in range(0, min(max_n, 12) + 1):
        for s in _strings(n):
            enc = rle_encode(s)
            r.check(rle_decode(enc) == s, f"round trip failed for {s!r}")
            r.check(sum(enc.runs) == len(s), f"length mismatch for {s!r}")
            if s:
                r.check(
                    rle_encode(complement(s)).runs == enc.runs,
                    f"complement changed run profile of {s!r}",
                )
                g = apply_g(enc)
                drop = 1 if enc.block_count > 1 else 0
                r.check(
                    g.block_count == enc.block_count - drop
                    and g.length == enc.length,
                    f"merge changed shape unexpectedly for {s!r}",
                )
                r.check(
                    len(g_chain(enc)) == enc.block_count,
                    f"merge chain length wrong for {s!r}",
                )
    return r


def suite_embeddings_three_way(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("embeddings-three-way")
    for n in range(0, min(max_n, 7) + 1):
        for y in _strings(n):
            for m in range(0, n + 1):
                for x in _strings(m):
                    masks = embeddings.enumerate_masks(x, y)
                    dp = embeddings.count_embeddings_dp(x, y)
                    runs = embeddings.count_embeddings_runs(x, y)
                    r.check(
                        len(masks) == dp == runs,
                        f"three-way mismatch x={x!r} y={y!r}",
                    )
    for _ in range(500):
        x, y = _random_pair(rng, min(max_n, 14))
        dp = embeddings.count_embeddings_dp(x, y)
        masks = embeddings.enumerate_masks(x, y)
        r.check(
            dp == embeddings.count_embeddings_runs(x, y) and dp == len(masks),
            f"three-way mismatch x={x!r} y={y!r}",
        )
        canonical = clustering.canonical_embedding(x, y)
        r.check(
            canonical == (masks[0] if masks else None),
            f"canonical not the first mask x={x!r} y={y!r}",
        )
    return r


def suite_embeddings_invariance(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("embeddings-invariance")
    for _ in range(500):
        x, y = _random_pair(rng, min(max_n, 14))
        w = embeddings.count_embeddings_dp(x, y)
        r.check(
            w == embeddings.count_embeddings_dp(complement(x), complement(y)),
            f"complement invariance failed x={x!r} y={y!r}",
        )
        r.check(
            w == embeddings.count_embeddings_dp(reverse(x), reverse(y)),
            f"reversal invariance failed x={x!r} y={y!r}",
        )
        bound = binomial(len(y), len(x))
        r.check(w <= bound, f"count above C(n,m) x={x!r} y={y!r}")
        if 0 < len(x) < len(y) and w == bound:
            r.check(
                set(y) == set(x) and len(set(x)) == 1,
                f"tight bound on non-constant pair x={x!r} y={y!r}",
            )
    return r


def suite_embeddings_partition(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("embeddings-partition")

    def partitions_cleanly(x: str, y: str) -> bool:
        rx, ry = rle_encode(x), rle_encode(y)
        groups: dict[tuple, int] = {}
        for mask in embeddings.enumerate_masks(x, y):
            f = embeddings.block_map_of_mask(mask, rx, ry)
            groups[f] = groups.get(f, 0) + 1
        counts = dict(embeddings.embedding_counts_by_block_map(x, y))
        return set(groups) <= set(counts) and all(
            groups.get(f, 0) == c for f, c in counts.items()
        )

    for n in range(1, min(max_n, 7) + 1):
        for y in _strings(n):
            for m in range(1, n + 1):
                for x in _strings(m):
                    if x[0] != y[0]:
                        continue
                    r.check(
                        partitions_cleanly(x, y),
                        f"partition mismatch x={x!r} y={y!r}",
                    )
    for _ in range(300):
        x, y = _random_pair(rng, min(max_n, 12))
        if not x or x[0] != y[0]:
            continue
        r.check(partitions_cleanly(x, y), f"partition mismatch x={x!r} y={y!r}")
    return r


WEIGHT_VECTOR_SUITES = (
    "posterior-laws",
    "cluster-census",
    "singleton-extremization",
    "entropy-invariance",
    "entropy-extremization",
)


def suite_weight_vectors(max_n: int, rng: random.Random) -> list[SuiteResult]:
    """The five WEIGHT_VECTOR_SUITES, from one pass over the weight vectors.

    Each weight vector is computed once per (x, n <= 12), taken from the
    engine's blocks of all x of one length at once, and each suite's checks
    run in their own order.  The entropies are numpy reductions of each plane
    normalized by its own total, an oracle independent of
    ``WeightClasses.entropy``.
    """
    laws, census, singletons, invariance, extremes = (
        SuiteResult(name) for name in WEIGHT_VECTOR_SUITES
    )
    for n in range(1, min(max_n, 12) + 1):
        # 2^n < STRING_BLOCK: each engine block stacks whole spaces, one per x
        for m in range(1, n + 1):
            card = superspace.uncertainty_cardinality(n, m)
            mu = superspace.total_masks(n, m)
            xs = _strings(m)
            # n = m is degenerate: every posterior is a point mass, all entropies 0
            extremal = 2 <= m <= min(n - 1, 8)
            shannon = []
            closed_singles = {}
            for first, _, block in pattern_blocks(xs, n):
                weights = block.astype(np.int64)
                support = np.count_nonzero(weights, axis=(1, 2)).tolist()
                totals = weights.sum(axis=(1, 2)).tolist()
                singles = np.count_nonzero(weights == 1, axis=(1, 2)).tolist()
                if n <= 10 or extremal:
                    p = block.reshape(len(block), -1) / np.array(totals)[:, None]
                    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
                    h = -np.einsum("ij,ij->i", p, logs)
                    r2 = -np.log2(np.einsum("ij,ij->i", p, p))
                    hmin = -np.log2(p.max(axis=1))
                    shannon += h.tolist()
                for j, x in enumerate(xs[first : first + len(block)]):
                    present = weights[j] > 0  # one row per prefix
                    laws.check(support[j] == card, f"|Y| wrong for x={x!r} n={n}")
                    laws.check(totals[j] == mu, f"mask total wrong for x={x!r} n={n}")
                    if n <= 10:
                        invariance.check(
                            h[j] >= r2[j] - 1e-9 and r2[j] >= hmin[j] - 1e-9,
                            f"measure ordering violated x={x!r} n={n}",
                        )
                    maximal = canonical_ends_last(x, present.ravel())
                    hx = x.count("1")
                    table = clustering.cluster_table(n, x)
                    census.check(
                        sum(closed for closed, _, _ in table) == card,
                        f"cluster sizes do not sum to |Y| x={x!r} n={n}",
                    )
                    in_support = hamming_weight_counts(present, 0, n)
                    in_maximal = hamming_weight_counts(
                        maximal.reshape(present.shape), 0, n
                    )
                    total_max = 0
                    for c, (closed, rec, initials) in enumerate(table):
                        brute = int(in_support[hx + c])
                        census.check(
                            brute == closed == rec,
                            f"cluster size mismatch x={x!r} n={n} c={c}",
                        )
                        brute_max = int(in_maximal[hx + c])
                        census.check(
                            brute_max == initials,
                            f"maximal initials mismatch x={x!r} n={n} c={c}",
                        )
                        total_max += brute_max
                    census.check(
                        total_max == clustering.maximal_initials_total(n, m),
                        f"maximal initials total wrong x={x!r} n={n}",
                    )
                    closed_singles[x] = clustering.count_singletons(n, x)
                    census.check(
                        closed_singles[x] == singles[j],
                        f"singleton count wrong x={x!r} n={n}",
                    )
            hs = dict(zip(xs, shannon))
            if n <= 10:
                for x in xs:
                    invariance.check(
                        abs(hs[x] - hs[complement(x)]) < 1e-9
                        and abs(hs[x] - hs[reverse(x)]) < 1e-9,
                        f"entropy symmetry violated x={x!r} n={n}",
                    )
            if extremal:
                low, high = min(shannon), max(shannon)
                extremes.check(
                    {x for x, v in hs.items() if v < low + 1e-9}
                    == {"0" * m, "1" * m},
                    f"entropy argmin not constants n={n} m={m}",
                )
                extremes.check(
                    {x for x, v in hs.items() if v > high - 1e-9} == _alternating(m),
                    f"entropy argmax not alternating n={n} m={m}",
                )
                top = max(closed_singles.values())
                bottom = min(closed_singles.values())
                singletons.check(
                    {x for x, v in closed_singles.items() if v == top}
                    == {"0" * m, "1" * m},
                    f"singleton max not constants at n={n} m={m}",
                )
                singletons.check(
                    {x for x, v in closed_singles.items() if v == bottom}
                    == _alternating(m),
                    f"singleton min not alternating at n={n} m={m}",
                )
            laws.check(
                superspace.weight_classes("0" * m, n) == constant_classes(n, m),
                f"constant-x classes wrong n={n} m={m}",
            )
        # totals[k]: distinct length-k subsequences summed over every y
        totals = [
            sum(column)
            for column in zip(
                *(superspace.distinct_subsequence_profile(y) for y in _strings(n))
            )
        ]
        for t in range(n + 1):
            mean = totals[n - t] / (1 << n)
            laws.check(
                abs(superspace.expected_distinct_subsequences(n, t) - mean) < 1e-9,
                f"distinct-subsequence mean wrong n={n} t={t}",
            )
    return [laws, census, singletons, invariance, extremes]


def suite_gchain_deletions(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("gchain-deletions")
    renyi_orders = [renyi(a) for a in (0.5, 2.0, 4.0)]
    for n in range(3, min(max_n, 12) + 1):
        for d in (1, 2):
            m = n - d
            if m < 1:
                continue
            # a chain keeps its length, so every element is one of these
            census = {x: deletion_classes(rle_encode(x), d) for x in _strings(m)}
            for x in _strings(m):
                chain = [census[rle_decode(s)] for s in g_chain(rle_encode(x))]
                values = [c.entropy() for c in chain]
                r.check(
                    all(a > b for a, b in zip(values, values[1:])),
                    f"g chain not strictly decreasing x={x!r} d={d}",
                )
                if d == 1 and len(chain) > 1:
                    for measure in renyi_orders:
                        r.check(
                            chain[0].entropy(measure) > chain[1].entropy(measure),
                            f"Renyi({measure.alpha}) not decreased x={x!r}",
                        )
            if d == 1 and m >= 2:
                r.check(
                    census[min(_alternating(m))].classes == ((2, m), (1, 2)),
                    f"alternating single-deletion census wrong m={m}",
                )
    return r


def suite_closed_minima(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("closed-minima")
    for n in range(1, min(max_n, 14) + 1):
        for m in range(1, n + 1):
            wc = superspace.weight_classes("0" * m, n)
            r.check(
                abs(min_shannon_closed(n, m) - wc.entropy()) < 1e-9,
                f"closed Shannon minimum wrong n={n} m={m}",
            )
            r.check(
                abs(min_renyi2_closed(n, m) - wc.entropy(renyi(2))) < 1e-9,
                f"closed Renyi-2 minimum wrong n={n} m={m}",
            )
            direct = wc.entropy(MIN_ENTROPY)
            r.check(
                min_minentropy_closed(n, m) == n - m
                and abs(direct - (n - m)) < 1e-9,
                f"min-entropy minimum wrong n={n} m={m}",
            )
    return r


def suite_deletion_classes(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("deletion-classes")
    brute_cap = min(max_n - 2, 12)
    for _ in range(200):
        x_rle = _random_runs(rng, 20)
        m = x_rle.length
        for census in (single_deletion_classes(x_rle), deletion_classes(x_rle, 2)):
            r.check(
                census.identities_hold(),
                f"census identities failed runs={x_rle.runs} d={census.deletions}",
            )
            if m <= brute_cap:
                brute = superspace.weight_classes(rle_decode(x_rle), census.n)
                r.check(
                    census.classes == brute.classes,
                    f"census differs from brute force runs={x_rle.runs} "
                    f"d={census.deletions}",
                )
    return r


def suite_merge_entropy_gap(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("merge-entropy-gap")
    if max_n < 3:
        r.notes.append("skipped (needs max-n >= 3)")
        return r
    for _ in range(200):
        x_rle = _random_runs(rng, min(max_n, 12) - 2)
        if x_rle.block_count < 2:
            continue
        k = x_rle.runs
        # one deletion: the merge penalty matches the closed form exactly
        n1 = x_rle.length + 1
        gap1 = (
            single_deletion_classes(x_rle).entropy()
            - single_deletion_classes(apply_g(x_rle)).entropy()
        )
        r.check(
            abs(2 * n1 * gap1 - delta1(k[0], k[1])) < 1e-9,
            f"delta1 identity failed runs={k}",
        )
        # two deletions: positivity of the gap
        gap2 = (
            deletion_classes(x_rle, 2).entropy()
            - deletion_classes(apply_g(x_rle), 2).entropy()
        )
        r.check(gap2 > 0, f"double-deletion gap not positive runs={k}")
    return r


def suite_hws_kappa(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("hws-kappa")
    for m in range(1, min(max_n, 12) + 1):
        values = {x: hws.kappa_squared(x) for x in _strings(m)}
        for x, k2 in values.items():
            r.check(
                values[complement(x)] == k2 and values[reverse(x)] == k2,
                f"kappa symmetry violated x={x!r}",
            )
        peak = hws.kappa_max(m)
        r.check(max(values.values()) == peak, f"kappa max wrong m={m}")
        r.check(
            {x for x, v in values.items() if v == peak} == {"0" * m, "1" * m},
            f"kappa argmax not constants m={m}",
        )
        if m >= 2:
            low = min(values.values())
            argmin = {x for x, v in values.items() if v == low}
            if argmin != _alternating(m):
                r.notes.append(
                    f"kappa-minimization conjecture fails at m={m}: argmin={sorted(argmin)}"
                )
    if not any(note.startswith("kappa-minimization") for note in r.notes):
        r.notes.append(
            f"kappa-minimization conjecture holds for m <= {min(max_n, 12)}"
        )
    return r


def suite_kappa_entropy_ordering(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("kappa-entropy-ordering")
    if max_n < 8:
        r.notes.append("skipped (needs max-n >= 8)")
        return r
    rows = hws.kappa_entropy_table(8, 5)
    table = {x: (k2, h) for x, k2, h in rows}
    reference = [
        ("11111", 630, 5.4649),
        ("00000", 630, 5.4649),
        ("00001", 518, 5.7581),
        ("11000", 486, 5.8838),
        ("00010", 458, 6.0132),
        ("10011", 398, 6.1076),
        ("01101", 366, 6.2375),
        ("01010", 350, 6.3498),
    ]
    previous = -1.0
    for x, k2, h in reference:
        got_k2, got_h = table[x]
        r.check(got_k2 == k2, f"kappa^2({x}) = {got_k2}, expected {k2}")
        r.check(abs(got_h - h) <= 5e-4, f"H({x}) = {got_h:.4f}, expected {h}")
        r.check(got_h >= previous - 1e-12, f"reference rows not monotone at {x}")
        previous = got_h
    entropies = [h for _, _, h in rows]
    if all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:])):
        r.notes.append("full 32-row table is monotone")
    else:
        r.notes.append(
            "known finding: full 32-row table is not monotone off the "
            "reference rows (e.g. 00100 vs 01110)"
        )
    return r


def _omega_moments(x: str, n: int) -> tuple[float, float]:
    """Mean and variance of omega_x(y) over all 2^n strings y of length n.

    The power sums S_k = sum_y omega_x(y)^k are exact ints, sums of mult * w^k
    over the weight histogram (weight 0 adds nothing): the mean is S_1 / 2^n
    and the variance (S_2 2^n - S_1^2) / 4^n, each one correctly rounded
    division.
    """
    classes = superspace.weight_classes(x, n).classes
    s1 = sum(w * mult for w, mult in classes)
    s2 = sum(w * w * mult for w, mult in classes)
    return s1 / (1 << n), ((s2 << n) - s1 * s1) / (1 << 2 * n)


def suite_hws_moments(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("hws-moments")
    n1 = min(max_n, 14)
    for n in range(2, n1 + 1):
        mean, var = _omega_moments("0", n)
        r.check(
            abs(mean - hws.omega_mean_asymptotic(n, 1)) < 1e-9,
            f"m=1 mean not exact at n={n}",
        )
        r.check(
            abs(var - hws.omega_variance_asymptotic(n, "0")) < 1e-9,
            f"m=1 variance not exact at n={n}",
        )
    n_lo, n_hi = min(max_n, 12), min(max_n, 20)
    if n_hi >= n_lo + 2:
        x = "010"
        ratios = {}
        for n in (n_lo, n_hi):
            exact_mean, exact_var = _omega_moments(x, n)
            ratios[n] = (
                exact_mean / hws.omega_mean_asymptotic(n, 3),
                exact_var / hws.omega_variance_asymptotic(n, x),
            )
        for which, hi, lo in (
            ("mean", ratios[n_hi][0], ratios[n_lo][0]),
            ("variance", ratios[n_hi][1], ratios[n_lo][1]),
        ):
            r.check(
                abs(hi - 1) < abs(lo - 1),
                f"{which} ratio not converging ({lo:.4f} -> {hi:.4f})",
            )
        if n_hi == 20:
            r.check(
                0.8 <= ratios[20][0] <= 1.2 and 0.8 <= ratios[20][1] <= 1.2,
                f"m=3 ratios outside [0.8, 1.2] at n=20: {ratios[20]}",
            )
    else:
        r.notes.append("ratio-convergence window skipped (max-n too small)")
    return r


def suite_moment_estimate(max_n: int, rng: random.Random) -> SuiteResult:
    r = SuiteResult("moment-estimate")
    for m in range(1, min(max_n, 4) + 1):
        ns = range(m, min(max_n, 16) + 1)
        # one histogram pass per n for every x of length m, read x by x
        by_n = [list(superspace.pattern_weight_classes(_strings(m), n)) for n in ns]
        for x, per_n in zip(_strings(m), zip(*by_n)):
            for n, wc in zip(ns, per_n):
                est = entropy_estimate_from_moments(wc)
                exact = wc.entropy()
                r.check(
                    abs(exact - est.estimate) <= est.bound + 1e-12,
                    f"estimate outside bound x={x!r} n={n}",
                )
    return r


SUITES = [
    suite_core_rle,
    suite_embeddings_three_way,
    suite_embeddings_invariance,
    suite_embeddings_partition,
    suite_weight_vectors,
    suite_gchain_deletions,
    suite_closed_minima,
    suite_deletion_classes,
    suite_merge_entropy_gap,
    suite_hws_kappa,
    suite_kappa_entropy_ordering,
    suite_hws_moments,
    suite_moment_estimate,
]


def suite_names() -> list[str]:
    names = []
    for suite in SUITES:
        if suite is suite_weight_vectors:
            names += WEIGHT_VECTOR_SUITES
        else:
            names.append(suite.__name__.removeprefix("suite_").replace("_", "-"))
    return names


def run_all(max_n: int, seed: int = 0) -> list[SuiteResult]:
    """Run every suite at the given size budget; deterministic for a seed."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    results = []
    for suite in SUITES:
        rng = random.Random(seed)
        if suite is suite_weight_vectors:
            results += suite(max_n, rng)
        else:
            results.append(suite(max_n, rng))
    return results
