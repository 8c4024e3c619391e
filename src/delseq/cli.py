"""Command-line experiment harness.

Every subcommand prints one machine-readable table: CSV on stdout by default
or, with ``--format json``, a single object with "schema", "params" and
"rows" keys whose row values are the same strings as the CSV cells.  Output
is byte-identical across identical invocations.

Exit codes: 0 success, 1 verification failure (verify only), 2 invalid
arguments, 3 enumeration cap exceeded, out of memory or out of stack, 141
(128 + SIGPIPE) when the reader closes the output pipe.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from codecs import utf_8_decode
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .clustering import (
    cluster_size_closed,
    cluster_size_recurrence,
    count_singletons,
    maximal_initials_cluster,
    rho,
)
from .core import Rle, check_bits, g_chain, rle_encode
from .entropy import (
    deletion_classes,
    entropy_estimate_from_moments,
    g_chain_entropies,
    single_deletion_classes,
)
from .exhaustive import (
    EnumerationCapExceeded,
    MAX_BITS_ENV,
    hamming_weight_counts,
    pattern_blocks,
)
from .hws import kappa_entropy_table, pattern_sweep, sorted_by_kappa
from .superspace import WeightClasses, parse_measure, weight_classes
from .verify import run_all, suite_names


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a late EPIPE is caught here too
        return code
    except BrokenPipeError:
        # the reader is gone: send the exit flush of what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (EnumerationCapExceeded, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# Built once per process: building it takes about 1.3 ms, a third of a small
# query.  No default depends on the environment: the cap's variable is read
# when a command runs.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delseq",
        description="Exact combinatorics of binary deletion channels.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    common = argparse.ArgumentParser(add_help=False, parents=[formatted])
    common.add_argument(
        "--max-bits",
        type=int,
        default=None,
        help=f"enumeration cap in bits (default 22; env {MAX_BITS_ENV})",
    )

    p = sub.add_parser(
        "posterior",
        parents=[common],
        help="weights and probabilities over the uncertainty set",
        description="One row per supersequence y, sorted by y as a binary "
        "number, plus a trailing row ('total', mu, |Y|).",
    )
    p.add_argument("--x", required=True, help="received string, e.g. 110")
    p.add_argument("--n", required=True, type=int, help="supersequence length")
    p.set_defaults(run=cmd_posterior)

    p = sub.add_parser(
        "entropy-scan",
        parents=[common],
        help="entropy measures for every x of length m",
        description="2^m rows in binary order; kappa2 plus one column per "
        "requested measure.",
    )
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument(
        "--measures",
        default="shannon,renyi2,min",
        help="comma list of shannon, renyi2, renyi:<alpha>, min, hartley",
    )
    p.set_defaults(run=cmd_entropy_scan)

    p = sub.add_parser(
        "kappa",
        parents=[common],
        help="autocorrelation table, optionally with exact entropies",
        description="Rows sorted by kappa2 descending, ties by x ascending.",
    )
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(run=cmd_kappa)

    p = sub.add_parser(
        "clusters",
        parents=[common],
        help="per-cluster sizes by closed form, recurrence and brute force",
    )
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(run=cmd_clusters)

    p = sub.add_parser(
        "singletons",
        parents=[common],
        help="singleton count by insertion-slot formula and brute force",
    )
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(run=cmd_singletons)

    p = sub.add_parser(
        "classes",
        parents=[common],
        help="weight classes at D deletions with identity checks",
        description="Weight-class rows at n = m + D: the closed form at D = 1, "
        "the mask census at D >= 2.  The strings_ok and masks_ok columns "
        "carry the same identity verdict on every row.",
    )
    p.add_argument(
        "--x-rle",
        required=True,
        help="run lengths, e.g. 1,2,3 or s=0,1,2,3 to set the first symbol",
    )
    p.add_argument("--deletions", required=True, type=int, metavar="D")
    p.set_defaults(run=cmd_classes)

    p = sub.add_parser(
        "gchain",
        parents=[common],
        help="entropy along the run-merging chain down to the constant string",
    )
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--measure", default="shannon")
    p.set_defaults(run=cmd_gchain)

    p = sub.add_parser(
        "estimate",
        parents=[common],
        help="moment-based entropy estimate with its error bound",
    )
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(run=cmd_estimate)

    p = sub.add_parser(
        "verify",
        parents=[formatted],
        help="run the oracle/property suites; nonzero exit on any violation",
        description="Suites: " + ", ".join(suite_names()) + ".",
    )
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_verify)

    return parser


RENDER_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class Layout:
    """The text of one table in one output format; the only place it is defined.

    A document is ``head``, the rows separated by ``sep``, then ``tail``
    (``tail_empty`` when there are no rows).  A row is ``lead[0] + cell_0 +
    lead[1] + cell_1 + ... + end``.  CSV cells are quoted by ``csv.writer``
    and JSON cells escaped by the C string encoder; a plain cell (ASCII
    letters, digits, '.', '+', '-') needs neither and stands in a row as
    ``mark + cell + mark``.  The CSV text is what ``csv.writer`` writes with
    newline line ends; the JSON text is ``json.dumps(doc, indent=2)`` of
    ``{"schema", "params", "rows"}`` plus a newline.
    """

    format: str
    head: str
    lead: tuple[str, ...]
    end: str
    sep: str
    tail: str
    tail_empty: str
    mark: str

    @classmethod
    def of(cls, fmt: str, schema: str, params: dict, columns: list[str]) -> "Layout":
        if fmt == "json":
            enc = encode_basestring_ascii
            fields = ",".join(
                f"\n    {enc(k)}: {enc(str(v))}" for k, v in params.items()
            )
            return cls(
                format=fmt,
                head=f'{{\n  "schema": {enc(schema)},\n  "params": '
                + (f"{{{fields}\n  }}" if fields else "{}")
                + ',\n  "rows": [',
                lead=tuple(
                    ("\n    {" if i == 0 else ",") + f"\n      {enc(c)}: "
                    for i, c in enumerate(columns)
                ),
                end="\n    }",
                sep=",",
                tail="\n  ]\n}\n",
                tail_empty="]\n}\n",
                mark='"',
            )
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(columns)
        return cls(
            format=fmt,
            head=header.getvalue(),
            lead=("",) + (",",) * (len(columns) - 1),
            end="\n",
            sep="",
            tail="",
            tail_empty="",
            mark="",
        )

    def write(self, out, rows, body=()) -> None:
        """Write the document to ``out``.

        ``body`` yields rows already laid out, each followed by ``sep``; they
        come before ``rows`` (any iterable of cell sequences, cells str()-ed
        once), which then must not be empty.
        """
        out.write(self.head)
        empty = True
        for text in body:
            out.write(text)
            empty = False
        rows = ([str(cell) for cell in row] for row in rows)
        if self.format == "csv":
            csv.writer(out, lineterminator=self.end).writerows(rows)
            return
        enc = encode_basestring_ascii
        sep = ""
        for row in rows:
            cells = "".join([lead + enc(c) for lead, c in zip(self.lead, row)])
            out.write(sep + cells + self.end)
            sep = self.sep
            empty = False
        out.write(self.tail_empty if empty else self.tail)


def emit(args, schema: str, params: dict, columns: list[str], rows) -> None:
    """Print rows (any iterable of cell sequences; cells are str()-ed once)."""
    Layout.of(args.format, schema, params, columns).write(sys.stdout, rows)


def posterior_rows(blocks, n: int, wc: WeightClasses, layout: Layout):
    """Yield the (y, omega, prob) rows of the engine's ``blocks`` laid out.

    ``blocks`` are the ``(first, start, block)`` triples of ``pattern_blocks``
    for one pattern.  A row is one fixed-width record: the lead and digits of
    y's prefix row, the digits of its suffix column, and the text after y,
    which is formatted once for each class of ``wc`` (the blocks' own
    histogram) and picked by the weight's rank among the classes.  All three
    tables and the records are built once per dump; a block adds only its
    support, offset by its first row.  Rows come in slices of
    RENDER_BLOCK_ROWS, each followed by ``layout.sep``.  A slice's records are
    decoded straight from their buffer as UTF-8 with errors ignored: every
    rendered byte is ASCII and the records' padding byte 0xFF never occurs in
    UTF-8, so the decoder drops exactly the padding.
    """
    mark, lead = layout.mark, layout.lead
    # the text between y and omega, between omega and prob, and after prob
    to_omega, to_prob = mark + lead[1] + mark, mark + lead[2] + mark
    end = mark + layout.end + layout.sep
    k = n // 2
    shift = n - k  # y = row * 2^shift + column
    prefixes = _digits(lead[0] + mark, k)
    suffixes = _digits("", shift)
    values = [w for w, _ in wc.classes]  # heaviest first
    mu = wc.mu
    # Python ints, so w / mu is the same float as for every other caller
    tails = _records(
        [f"{to_omega}{w}{to_prob}{w / mu!r}{end}".encode() for w in values]
    )
    # rank_of[w] is the rank of weight w; at most C(n, m) + 1 entries
    rank_of = np.zeros(values[0] + 1, dtype=np.intp)
    rank_of[values] = np.arange(len(values))
    records = np.empty(
        min(wc.string_count(), RENDER_BLOCK_ROWS),
        [("prefix", prefixes.dtype), ("suffix", suffixes.dtype),
         ("tail", tails.dtype)],
    )
    for _, start, (block,) in blocks:
        weights = block.ravel()
        (support,) = np.nonzero(weights)
        rank = rank_of[weights[support].astype(np.intp)]
        support += start << shift  # y itself
        for s in range(0, len(support), RENDER_BLOCK_ROWS):
            y = support[s : s + RENDER_BLOCK_ROWS]
            text = records[: len(y)]
            text["prefix"] = prefixes[y >> shift]
            text["suffix"] = suffixes[y & ((1 << shift) - 1)]
            text["tail"] = tails[rank[s : s + RENDER_BLOCK_ROWS]]
            yield utf_8_decode(text.view(np.uint8), "ignore", True)[0]


def _digits(lead: str, bits: int) -> np.ndarray:
    """Records of ``lead`` then v in ``bits`` binary digits, for every v < 2^bits."""
    # the numeral of 2^bits + v less its leading 1 is v in bits digits, even 0
    return _records(
        [(lead + f"{1 << bits | v:b}"[1:]).encode() for v in range(1 << bits)]
    )


def _records(texts: list[bytes]) -> np.ndarray:
    """The texts 0xFF-padded to the longest, as fixed-width records to gather."""
    width = max(map(len, texts))
    padded = b"".join(t.ljust(width, b"\xff") for t in texts)
    return np.ndarray(len(texts), (np.void, width), padded)


def parse_rle(text: str) -> Rle:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    first = 1
    if parts and parts[0].startswith("s="):
        first = int(parts[0][2:])
        parts = parts[1:]
    if not parts:
        raise ValueError(f"no run lengths in {text!r}")
    return Rle(first, tuple(int(p) for p in parts))


def format_rle(r: Rle) -> str:
    return f"s={r.first}," + ",".join(str(b) for b in r.runs)


def _check_pattern(x: str, n: int) -> None:
    """Refuse x unless it is a binary string with 1 <= |x| <= n."""
    check_bits(x)
    if not 1 <= len(x) <= n:
        raise ValueError(f"need 1 <= |x| <= n, got |x|={len(x)} n={n}")


def cmd_posterior(args) -> int:
    x, n = args.x, args.n
    wc = weight_classes(x, n, max_bits=args.max_bits)  # checks x, n and the cap
    blocks = pattern_blocks([x], n, max_bits=args.max_bits)
    layout = Layout.of(
        args.format, "posterior", {"x": x, "n": n}, ["y", "omega", "prob"]
    )
    total = ("total", wc.mu, wc.string_count())
    layout.write(sys.stdout, [total], body=posterior_rows(blocks, n, wc, layout))
    return 0


def cmd_entropy_scan(args) -> int:
    measures = [parse_measure(tok) for tok in args.measures.split(",") if tok]
    rows = pattern_sweep(args.m, args.n, measures, max_bits=args.max_bits)
    emit(
        args,
        "entropy-scan",
        {"n": args.n, "m": args.m, "measures": args.measures},
        ["x", "kappa2"] + [str(ms) for ms in measures],
        rows,
    )
    return 0


def cmd_kappa(args) -> int:
    if args.n is not None:
        rows = kappa_entropy_table(args.n, args.m, max_bits=args.max_bits)
        columns = ["x", "kappa2", "shannon"]
    else:
        rows = sorted_by_kappa(pattern_sweep(args.m, max_bits=args.max_bits))
        columns = ["x", "kappa2"]
    emit(args, "kappa", {"m": args.m, "n": args.n}, columns, rows)
    return 0


def cmd_clusters(args) -> int:
    x, n = args.x, args.n
    _check_pattern(x, n)
    m = len(x)
    hx = x.count("1")
    # checks n before any array
    blocks = pattern_blocks([x], n, max_bits=args.max_bits)
    # cluster c holds the support strings of Hamming weight hx + c
    support = np.zeros(n + 1, dtype=np.int64)
    for _, start, (block,) in blocks:
        support += hamming_weight_counts(block > 0, start, n)
    rows = []
    for c in range(n - m + 1):
        rows.append(
            [
                c,
                cluster_size_closed(n, m, hx, c),
                cluster_size_recurrence(n, x, c),
                int(support[hx + c]),
                maximal_initials_cluster(n, m, hx, c),
            ]
        )
    emit(
        args,
        "clusters",
        {"x": x, "n": n},
        ["c", "size_closed", "size_recurrence", "size_bruteforce", "maximal_initials"],
        rows,
    )
    return 0


def cmd_singletons(args) -> int:
    x, n = args.x, args.n
    _check_pattern(x, n)
    profile = rho(x)
    brute = sum(
        int(np.count_nonzero(block == 1))
        for _, _, (block,) in pattern_blocks([x], n, max_bits=args.max_bits)
    )
    emit(
        args,
        "singletons",
        {"x": x, "n": n},
        ["rho0", "rho1", "count_formula", "count_bruteforce"],
        [[profile.rho0, profile.rho1, count_singletons(n, x), brute]],
    )
    return 0


def cmd_classes(args) -> int:
    x_rle = parse_rle(args.x_rle)
    if args.deletions == 1:
        census = single_deletion_classes(x_rle)
    else:
        census = deletion_classes(x_rle, args.deletions, max_bits=args.max_bits)
    # one verdict fills both columns: the census is checked as a whole
    ok = str(census.identities_hold()).lower()
    rows = [[w, mult, ok, ok] for w, mult in census.classes]
    emit(
        args,
        "classes",
        {"x_rle": format_rle(x_rle), "deletions": args.deletions},
        ["weight", "multiplicity", "strings_ok", "masks_ok"],
        rows,
    )
    return 0


def cmd_gchain(args) -> int:
    _check_pattern(args.x, args.n)
    measure = parse_measure(args.measure)
    chain_rle = g_chain(rle_encode(args.x))
    hs = g_chain_entropies(args.x, args.n, measure, max_bits=args.max_bits)
    rows = [
        [step, format_rle(r), repr(h)]
        for step, (r, h) in enumerate(zip(chain_rle, hs))
    ]
    emit(
        args,
        "gchain",
        {"x": args.x, "n": args.n, "measure": str(measure)},
        ["step", "x_rle", str(measure)],
        rows,
    )
    return 0


def cmd_estimate(args) -> int:
    _check_pattern(args.x, args.n)
    wc = weight_classes(args.x, args.n, max_bits=args.max_bits)
    est = entropy_estimate_from_moments(wc)
    exact = wc.entropy()
    emit(
        args,
        "estimate",
        {"x": args.x, "n": args.n},
        ["exact_h", "estimate", "error_bound"],
        [[repr(exact), repr(est.estimate), repr(est.bound)]],
    )
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.max_n, seed=args.seed)
    rows = []
    for r in results:
        note = "; ".join(r.failures[:2] + r.notes)
        rows.append(
            [r.name, r.checks, len(r.failures), "pass" if r.ok else "FAIL", note]
        )
    emit(
        args,
        "verify",
        {"max_n": args.max_n, "seed": args.seed},
        ["suite", "checks", "failures", "status", "note"],
        rows,
    )
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
