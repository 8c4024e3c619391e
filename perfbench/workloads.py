"""The two benchmark workloads: seeded query generators and output checks.

A workload is a stream of rounds.  Every round holds the same fixed list of
query shapes (subcommand, n, |x|, run count, batch size), so its cost hardly
depends on the seed; the seed chooses the content: the bits of each x and
y, the order of run lengths and the measure order.  The query order within a
round is fixed too, so that every seed allocates and frees memory in the same
pattern.  Round r of seed s is generated from its own RNG, so a round can be
regenerated without replaying earlier ones.

Every check compares an output with an oracle that does not share the code
path that produced it: binomial closed forms computed here with math.comb,
the enumeration-free closed forms of the package, or a second counter.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

import delseq
from delseq import count_embeddings_dp, enumerate_masks, min_renyi2_closed, min_shannon_closed

TOL = 1e-12
JSON_SPACE = re.compile(r"[ \t\r\n]*")


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


@dataclass
class Query:
    """One request: CLI argv, or a batch of (x, y) pairs for the counters."""

    kind: str
    check: Callable[[str], None]
    argv: list[str] | None = None
    pairs: list[tuple[str, str]] | None = None


# ---------------------------------------------------------------- oracles


def cardinality(n: int, m: int) -> int:
    """|Y|: length-n supersequences of any length-m string."""
    return sum(math.comb(n, r) for r in range(m, n + 1))


def total_masks(n: int, m: int) -> int:
    """mu = C(n, m) 2^(n-m)."""
    return math.comb(n, m) << (n - m)


def kappa_max(m: int) -> int:
    """kappa^2 of the constant strings: m C(2m-1, m)."""
    return m * math.comb(2 * m - 1, m)


def kappa_sum(m: int) -> int:
    """Sum of kappa^2 over all 2^m patterns of length m.

    Position pairs r != s agree in half of all patterns and r == s in all of
    them, so the sum is 2^(m-1) (sum M + trace M) for the interleaving
    matrix M[r][s] = C(r+s-2, r-1) C(2m-r-s, m-r).
    """
    total = trace = 0
    for r in range(1, m + 1):
        for s in range(1, m + 1):
            v = math.comb(r + s - 2, r - 1) * math.comb(2 * m - r - s, m - r)
            total += v
            if r == s:
                trace += v
    return (total + trace) << (m - 1)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a CSV or JSON table printed by the CLI."""
    rows = iter_table(text, fmt)
    columns = next(rows, None)
    require(columns is not None, f"empty {fmt.upper()} output")
    return columns, list(rows)


def iter_lines(text: str) -> Iterator[str]:
    """The lines of text one at a time, never all of them in a list."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def skip_space(text: str, pos: int) -> int:
    """The first position at or after pos that is not JSON whitespace."""
    return JSON_SPACE.match(text, pos).end()


def iter_table(text: str, fmt: str) -> Iterator[list[str]]:
    """The columns, then each row, of a CSV or JSON table printed by the CLI.

    Rows are parsed one at a time, so that checking a table as large as the
    program's own output does not add to the peak memory of the process.
    """
    if fmt == "csv":
        yield from csv.reader(iter_lines(text))
        return
    # {"schema": ..., "params": {...}, "rows": [{...}, ...]}: the document
    # around the rows must parse on its own with the rows array emptied.
    opening = text.index("[", text.index('"rows"')) + 1
    decoder = json.JSONDecoder()
    columns = None
    pos = skip_space(text, opening)
    while text[pos] != "]":
        row, pos = decoder.raw_decode(text, pos)
        if columns is None:
            columns = list(row)
            yield columns
        yield [row[c] for c in columns]
        pos = skip_space(text, pos)
        if text[pos] == ",":
            pos = skip_space(text, pos + 1)
        else:
            require(text[pos] == "]", f"JSON rows: {text[pos:pos + 20]!r}")
    doc = json.loads(text[:opening] + text[pos:])
    require(set(doc) == {"schema", "params", "rows"} and doc["rows"] == [],
            f"JSON document keys {sorted(doc)}")


# ---------------------------------------------------------------- checks


def check_posterior(x: str, n: int, fmt: str, rng: random.Random) -> Callable:
    m = len(x)
    mu = total_masks(n, m)
    size = cardinality(n, m)
    # rows whose weight is re-counted by the per-pair DP, chosen up front
    sample = {rng.randrange(size) for _ in range(3)}

    def check(text: str) -> None:
        rows = iter_table(text, fmt)
        columns = next(rows, None)
        require(columns == ["y", "omega", "prob"], f"columns {columns}")
        count = omega_sum = 0
        probs = array("d")
        previous = total = None
        for row in rows:
            require(total is None, "rows after the total row")
            if row[0] == "total":
                total = row
                continue
            y, w = row[0], int(row[1])
            require(len(y) == n, "supersequence length")
            require(previous is None or previous < y, "rows not strictly sorted by y")
            if count in sample:
                require(w == count_embeddings_dp(x, y), f"omega({x}, {y}) = {w}")
            omega_sum += w
            probs.append(float(row[2]))
            previous = y
            count += 1
        require(total is not None, "no total row")
        require(int(total[1]) == mu, f"total mu {total[1]} != {mu}")
        require(int(total[2]) == count == size,
                f"row count {count} / {total[2]} != {size}")
        require(omega_sum == mu, "sum of omega != mu")
        require(abs(math.fsum(probs) - 1.0) <= TOL, "probabilities do not sum to 1")
    return check


def check_clusters(x: str, n: int) -> Callable:
    m = len(x)

    def check(text: str) -> None:
        _, rows = parse_table(text, "csv")
        require(len(rows) == n - m + 1, f"{len(rows)} cluster rows")
        for c, row in enumerate(rows):
            closed, rec, brute = (int(v) for v in row[1:4])
            require(int(row[0]) == c, "cluster index")
            require(closed == rec == brute, f"cluster {c}: {row[1:4]}")
        require(sum(int(r[3]) for r in rows) == cardinality(n, m),
                "clusters do not partition the uncertainty set")
        require(sum(int(r[4]) for r in rows) == math.comb(n - 1, m - 1),
                "maximal initials total")
    return check


def check_singletons(text: str) -> None:
    _, rows = parse_table(text, "csv")
    require(len(rows) == 1, "one singleton row")
    require(rows[0][2] == rows[0][3], f"formula {rows[0][2]} != brute {rows[0][3]}")


def check_estimate(x: str, n: int) -> Callable:
    m = len(x)
    floor = min_shannon_closed(n, m)
    ceiling = math.log2(cardinality(n, m))

    def check(text: str) -> None:
        _, rows = parse_table(text, "csv")
        require(len(rows) == 1, "one estimate row")
        exact, est, bound = (float(v) for v in rows[0])
        require(abs(exact - est) <= bound, f"|{exact} - {est}| > {bound}")
        require(floor - TOL <= exact <= ceiling + TOL, f"H = {exact} out of range")
    return check


def check_gchain(x: str, n: int, runs: int) -> Callable:
    m = len(x)
    floor = min_shannon_closed(n, m)

    def check(text: str) -> None:
        _, rows = parse_table(text, "csv")
        require(len(rows) == runs, f"{len(rows)} chain rows for {runs} runs")
        require(rows[-1][1] in (f"s=0,{m}", f"s=1,{m}"), "chain end not constant")
        require(close(float(rows[-1][2]), floor), "H(constant) != closed form")
        require(all(float(r[2]) >= floor - TOL for r in rows), "H below minimum")
    return check


def check_entropy_scan(n: int, m: int, measures: list[str]) -> Callable:
    floor = min_shannon_closed(n, m)
    floor2 = min_renyi2_closed(n, m)
    hartley = math.log2(cardinality(n, m))
    constants = {"0" * m, "1" * m}

    def check(text: str) -> None:
        columns, rows = parse_table(text, "csv")
        require(columns == ["x", "kappa2"] + measures, f"columns {columns}")
        require([r[0] for r in rows] == [format(i, f"0{m}b") for i in range(1 << m)],
                "rows are not every x in binary order")
        require(sum(int(r[1]) for r in rows) == kappa_sum(m), "kappa2 sum")
        for row in rows:
            h = dict(zip(measures, (float(v) for v in row[2:])))
            require(h["shannon"] >= floor - TOL, f"{row[0]}: H below minimum")
            require(h["min"] >= n - m - TOL, f"{row[0]}: min-entropy below n-m")
            require(close(h["hartley"], hartley), f"{row[0]}: Hartley != log2|Y|")
            if row[0] in constants:
                require(close(h["shannon"], floor), "H(constant) != closed form")
                require(close(h["renyi2"], floor2), "H2(constant) != closed form")
                require(h["min"] == n - m, "min-entropy(constant) != n-m")
                require(int(row[1]) == kappa_max(m), "kappa2(constant)")
    return check


def check_kappa(m: int, n: int | None) -> Callable:
    floor = min_shannon_closed(n, m) if n is not None else None

    def check(text: str) -> None:
        _, rows = parse_table(text, "csv")
        require(len(rows) == 1 << m, f"{len(rows)} rows for m={m}")
        keys = [(-int(r[1]), r[0]) for r in rows]
        require(keys == sorted(keys), "rows not sorted by kappa2 desc, x asc")
        require([r[0] for r in rows[:2]] == ["0" * m, "1" * m], "constants first")
        require(int(rows[0][1]) == kappa_max(m), "kappa2(constant)")
        require(sum(int(r[1]) for r in rows) == kappa_sum(m), "kappa2 sum")
        if floor is not None:
            require(all(float(r[2]) >= floor - TOL for r in rows), "H below minimum")
            require(close(float(rows[0][2]), floor), "H(constant) != closed form")
    return check


def check_classes(m: int, d: int) -> Callable:
    n = m + d

    def check(text: str) -> None:
        _, rows = parse_table(text, "csv")
        weights = [int(r[0]) for r in rows]
        mults = [int(r[1]) for r in rows]
        require(weights == sorted(weights, reverse=True), "classes not heaviest first")
        require(sum(mults) == cardinality(n, m), "string-count identity")
        require(sum(w * k for w, k in zip(weights, mults)) == total_masks(n, m),
                "mask-count identity")
        require(all(r[2] == r[3] == "true" for r in rows), "identity columns")
    return check


def check_pairs(pairs: list[tuple[str, str]], rng: random.Random) -> Callable:
    sample = rng.sample(range(len(pairs)), min(3, len(pairs)))

    def check(text: str) -> None:
        lines = text.splitlines()
        require(len(lines) == len(pairs), f"{len(lines)} results for {len(pairs)} pairs")
        counts = []
        for (x, y), line in zip(pairs, lines):
            dp, runs = (int(v) for v in line.split())
            require(dp == runs, f"dp {dp} != runs {runs} for ({x}, {y})")
            counts.append(dp)
        for i in sample:
            x, y = pairs[i]
            require(counts[i] == len(enumerate_masks(x, y)), f"masks of ({x}, {y})")
    return check


def count_pairs(pairs: list[tuple[str, str]]) -> list[tuple[int, int]]:
    """The timed body of a pair-batch query.

    The counters are looked up on the package at call time, as a library
    user would, so the traced run sees these calls.
    """
    return [
        (delseq.count_embeddings_dp(x, y), delseq.count_embeddings_runs(x, y))
        for x, y in pairs
    ]


def render_pairs(counts: list[tuple[int, int]]) -> str:
    return "".join(f"{dp} {runs}\n" for dp, runs in counts)


# ---------------------------------------------------------------- inputs


def bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def run_profile(rng: random.Random, length: int, runs: int) -> list[int]:
    """A uniformly random composition of length into the given number of runs."""
    cuts = sorted(rng.sample(range(1, length), runs - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [length])]


def with_runs(rng: random.Random, length: int, runs: int, first: int | None = None) -> str:
    """A random string of the given length and run count, starting with `first`
    (random when None)."""
    sym = rng.randrange(2) if first is None else first
    out = []
    for k in run_profile(rng, length, runs):
        out.append(str(sym) * k)
        sym ^= 1
    return "".join(out)


# ------------------------------------------------------------- workloads
#
# Shapes are chosen so that one round costs a few seconds on a 2-core
# x86 machine at the seed commit, and so that every layer a workload is
# meant to stress does most of that round's work.  The query builders below
# are the parts the two workloads are made of.


def whole_space(rng: random.Random, tiny: bool) -> list[Query]:
    """estimate / gchain / clusters / singletons at n = 17..20."""
    # (subcommand, n, |x|, runs of x)
    shapes = [
        ("estimate", 17, 10, 6), ("gchain", 17, 8, 3), ("clusters", 20, 4, 3),
        ("singletons", 18, 7, 4), ("singletons", 20, 10, 7),
    ]
    if tiny:
        shapes = [(cmd, n - 8, m - 2, min(r, m - 2)) for cmd, n, m, r in shapes]
    queries = []
    for cmd, n, m, r in shapes:
        x = with_runs(rng, m, r)
        argv = [cmd, "--x", x, "--n", str(n)]
        if cmd == "estimate":
            check = check_estimate(x, n)
        elif cmd == "gchain":
            check = check_gchain(x, n, r)
        elif cmd == "clusters":
            check = check_clusters(x, n)
        else:
            check = check_singletons
        queries.append(Query(cmd, check, argv=argv))
    return queries


MEASURES = ["shannon", "renyi2", "min", "hartley"]


def pattern_sweep(rng: random.Random, tiny: bool) -> list[Query]:
    """entropy-scan and kappa sweeps over every pattern of length m."""
    # ("entropy-scan" | "kappa", m, n)
    shapes = [
        ("entropy-scan", 6, 12), ("entropy-scan", 7, 11), ("kappa", 5, 12),
    ]
    if tiny:
        shapes = [(cmd, m - 2, n - 5) for cmd, m, n in shapes]
    return [_sweep(rng, cmd, m, n) for cmd, m, n in shapes]


def kappa_tables(rng: random.Random, tiny: bool) -> list[Query]:
    """kappa^2 of every pattern of length m: without --n, kappa builds no posterior."""
    return [_sweep(rng, "kappa", m - 6 if tiny else m, None) for m in (10, 11)]


def _sweep(rng: random.Random, cmd: str, m: int, n: int | None) -> Query:
    if cmd == "entropy-scan":
        measures = rng.sample(MEASURES, len(MEASURES))
        argv = [cmd, "--n", str(n), "--m", str(m), "--measures", ",".join(measures)]
        return Query(cmd, check_entropy_scan(n, m, measures), argv=argv)
    argv = [cmd, "--m", str(m)] + (["--n", str(n)] if n else [])
    return Query("kappa" if n else "kappa-table", check_kappa(m, n), argv=argv)


def classes_and_pairs(rng: random.Random, tiny: bool) -> list[Query]:
    """Deletion-class censuses and batches of per-pair embedding counts."""
    # ("classes", deletions, m, runs) and ("pairs", batch size)
    shapes = [
        ("classes", 2, 10, 5), ("classes", 2, 20, 10), ("classes", 2, 30, 15),
        ("classes", 2, 40, 20), ("classes", 1, 15, 8), ("classes", 1, 35, 18),
    ] + [("pairs", 2000)] * 5
    if tiny:
        shapes = [("pairs", 20) if s[0] == "pairs" else (s[0], s[1], s[2] // 5, s[3] // 5)
                  for s in shapes]
    queries = []
    for j, shape in enumerate(shapes):
        # The cost of a census or of a pair count depends on run structure,
        # so that is fixed per slot (by an RNG that ignores the seed) and the
        # seed only permutes run lengths and picks first symbols.
        fixed = random.Random(f"census:{j}:{shape}")
        if shape[0] == "classes":
            _, d, m, r = shape
            profile = run_profile(fixed, m, r)
            rng.shuffle(profile)
            rle = f"s={rng.randrange(2)}," + ",".join(map(str, profile))
            argv = ["classes", "--x-rle", rle, "--deletions", str(d)]
            queries.append(Query(f"classes-d{d}", check_classes(m, d), argv=argv))
        else:
            # |x| = 1..10 and |x| <= |y| <= 18 on a fixed schedule; run counts
            # distributed as in uniformly random strings.  Whether x and y
            # start with the same symbol is fixed too: it decides how many
            # block maps the run-based counter enumerates.
            pairs = []
            for i in range(shape[1]):
                m = 1 + i % 10
                n = m + (i // 10) % (19 - m)
                rx, ry = (1 + sum(fixed.random() < 0.5 for _ in range(k - 1)) for k in (m, n))
                sx = rng.randrange(2)
                sy = sx ^ (fixed.random() < 0.5)
                pairs.append((with_runs(rng, m, rx, sx), with_runs(rng, n, ry, sy)))
            queries.append(Query("pairs", check_pairs(pairs, rng), pairs=pairs))
    return queries


def posterior_dump(rng: random.Random, tiny: bool) -> list[Query]:
    """Full posterior tables, in CSV and JSON."""
    # (n, |x|, format)
    shapes = [(15, 7, "json"), (16, 5, "csv"), (17, 7, "csv")]
    if tiny:
        shapes = [(n - 7, m - 2, fmt) for n, m, fmt in shapes]
    queries = []
    for n, m, fmt in shapes:
        x = bits(rng, m)
        argv = ["posterior", "--x", x, "--n", str(n), "--format", fmt]
        queries.append(Query(f"posterior-{fmt}", check_posterior(x, n, fmt, rng),
                             argv=argv))
    return queries


def enumeration(rng: random.Random, tiny: bool) -> list[Query]:
    """Every query that enumerates all 2^n strings of length n."""
    return whole_space(rng, tiny) + posterior_dump(rng, tiny) + pattern_sweep(rng, tiny)


def census(rng: random.Random, tiny: bool) -> list[Query]:
    """Every query that enumerates no 2^n strings at all."""
    return classes_and_pairs(rng, tiny) + kappa_tables(rng, tiny)


WORKLOADS = {"enumeration": enumeration, "census": census}


def make_round(workload: str, seed: int, index: int, tiny: bool = False) -> list[Query]:
    """Round `index` of a workload, a pure function of (workload, seed, index)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload](rng, tiny)

