"""The delseq benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload enumeration --seed 1 --trace 0

One client sends each query only after the previous one returned: CLI
queries call ``delseq.cli.main(argv)`` in this process with stdout
captured, pair batches call the per-pair counters directly.  Every output
is checked against an oracle after its timer stops; a non-zero exit, an
exception or a failed check counts the query as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
round twice, untraced and with span recorders attached, in alternating
order, and reports the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a human-readable report.
"""
from time import perf_counter

_START = perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The package is imported from this checkout's src/ only, never from an
# installed copy: a checkout without src/ must fail, not measure something else.
sys.path.insert(0, str(SRC))
try:
    import numpy  # noqa: E402,F401  (its import time is part of set-up)
    import delseq  # noqa: E402
    from delseq import cli  # noqa: E402

    import spans  # noqa: E402
    import workloads as wl  # noqa: E402
except ImportError as exc:
    IMPORT_ERROR: Exception | None = exc
else:
    IMPORT_ERROR = None

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while writing a change; re-check claims on it
SETUP_PROBES = 8  # fresh processes that repeat the set-up, besides this one
DIGEST_SLICE = 1 << 16  # characters of output encoded at a time for the digest


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload and metric names, with units and bounds."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


class Tally:
    """What a sequence of rounds did: latencies, failures, output volume."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.bytes_out = 0
        self.rows_out = 0
        self.pairs = 0
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.digest_bytes = 0
        self.digest_queries = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def execute(query, recorder=None, query_id=0):
    """Run one query; return (seconds, exit code or error, output text)."""
    start = perf_counter()
    if recorder is None:
        rc, out = _execute(query)
    else:
        rc, out = recorder.run(query_id, _execute, query)
    return perf_counter() - start, rc, out


def _execute(query):
    if query.pairs is not None:
        try:
            return 0, wl.render_pairs(wl.count_pairs(query.pairs))
        except Exception as exc:  # a failing query is counted, not fatal
            return f"{type(exc).__name__}: {exc}", ""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(query.argv)
    except SystemExit as exc:  # argparse rejects its argv this way
        rc = exc.code
    except Exception as exc:  # a failing query is counted, not fatal
        rc = f"{type(exc).__name__}: {exc}"
    if rc != 0 and err.getvalue():
        rc = f"{rc} ({err.getvalue().strip()[:200]})"
    return rc, out.getvalue()


def check(query, rc, text) -> str | None:
    """None if the query succeeded and its output passed its check."""
    if rc != 0:
        return f"exit {rc}"
    try:
        query.check(text)
    except wl.CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # output the check cannot even parse
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def count_rows(text: str) -> int:
    if text.startswith("{"):
        return len(json.loads(text)["rows"])
    return max(text.count("\n") - 1, 0)


def run_round(workload, seed, index, tally, *, tiny=False, recorder=None, corrupt=None):
    """Run round `index` of a workload, adding what it did to `tally`."""
    for query in wl.make_round(workload, seed, index, tiny):
        # A CLI user starts each query in a fresh process; collecting the
        # previous query's garbage keeps it from being charged to this one.
        gc.collect()
        elapsed, rc, text = execute(query, recorder, tally.attempted)
        if corrupt is not None:
            text = corrupt(text)
        tally.latencies.append(elapsed)
        if query.pairs is not None:
            tally.pairs += len(query.pairs)
        else:
            tally.bytes_out += len(text) if text.isascii() else len(text.encode())
            if recorder is not None and rc == 0:
                tally.rows_out += count_rows(text)
        if index == 0:
            tally.digest_queries += 1
            # in slices, so that no bytes copy of a large output is ever whole
            for i in range(0, len(text), DIGEST_SLICE):
                data = text[i:i + DIGEST_SLICE].encode()
                tally.digest.update(data)
                tally.digest_bytes += len(data)
        problem = check(query, rc, text)
        if problem is not None:
            tally.failures.append(f"{query.kind} {query.argv or ''}: {problem}")
        del text  # free a large output before the next query runs
    tally.rounds += 1
    return tally


def run_rounds(workload, seed, tally, *, seconds=None, rounds=None, **kwargs):
    """Run whole rounds until `seconds` of wall time (at least one round) or
    exactly `rounds` rounds."""
    start = perf_counter()
    index = 0
    while index < rounds if rounds is not None else (
        index == 0 or perf_counter() - start < seconds
    ):
        run_round(workload, seed, index, tally, **kwargs)
        index += 1
    return tally


def set_up(workload: str, seed: int) -> float:
    """Generate the first round and run the warm-up; return set-up seconds.

    The warm-up is one round at tiny sizes; its outputs are checked like any
    other, but it is neither timed nor counted.
    """
    wl.make_round(workload, seed, 0)
    run_rounds(workload, seed, Tally(), rounds=1, tiny=True)
    return perf_counter() - _START


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value
    (the largest sample when there are fewer than eleven)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100 * rank / len(ordered), ordered[rank - 1]


def end_to_end(workload, seed, seconds, setup_s, *, probes=SETUP_PROBES, tiny=False,
               corrupt=None):
    tally = run_rounds(workload, seed, Tally(), seconds=seconds, tiny=tiny,
                       corrupt=corrupt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [probe_setup(workload, seed) for _ in range(probes)]
    ms = [s * 1e3 for s in tally.latencies]
    pct, tail_ms = tail(ms)
    metrics = {
        "throughput_qps": tally.attempted / tally.busy_s,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"samples: {tally.attempted} queries in {tally.rounds} rounds, "
        f"{tally.busy_s:.3f} s busy",
        f"latency_tail_ms is p{pct:.1f}: {len(ms) - max(1, len(ms) - 10)} samples beyond it",
        # printed, not a metric: its sample falls among the many mid-sized
        # pure-Python queries, whose speed drifts most with the host's load
        f"latency_p50_ms (not a metric) {nearest_rank(ms, 50):.3f} ms",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"error_rate: {len(tally.failures) / tally.attempted:.6f} "
        f"({len(tally.failures)} of {tally.attempted})",
    ]
    return tally, metrics, declared("end_to_end"), notes


def traced(workload, seed, seconds, *, tiny=False, corrupt=None):
    """Run every round twice, untraced and traced, for `seconds` of wall time.

    A discarded untraced round first grows the heap to its working size.
    After it the two passes of a round alternate in which goes first, so
    neither half of trace.overhead_ratio gains from running first.
    """
    options = {"tiny": tiny, "corrupt": corrupt}
    warm = run_round(workload, seed, 0, Tally(), **options)
    plain, tally = Tally(), Tally()
    recorder = spans.Recorder()
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_pass:
                with spans.installed(recorder):
                    run_round(workload, seed, index, tally, recorder=recorder, **options)
            else:
                run_round(workload, seed, index, plain, **options)
        index += 1
    metrics = spans.layer_metrics(recorder)
    metrics["embeddings.pairs"] = tally.pairs
    metrics["cli.bytes_out"] = tally.bytes_out
    metrics["cli.rows_out"] = tally.rows_out
    # Counts and times are per round, a fixed amount of work, so that runs
    # that complete different numbers of rounds compare; ratios stay as is.
    units = declared("per_layer")
    for name, unit in units.items():
        if unit in ("count", "s", "B"):
            metrics[name] /= tally.rounds
    metrics["trace.overhead_ratio"] = tally.busy_s / plain.busy_s
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{workload}_{seed}.csv.gz"
    recorder.write(trace_file)
    layers = spans.layer_self_times(recorder)
    notes = [
        "per-layer counts and times are per round; ratios are over the run",
        f"traced {tally.rounds} rounds ({tally.attempted} queries): "
        f"{tally.busy_s:.3f} s traced vs {plain.busy_s:.3f} s untraced",
        f"{len(recorder.spans)} spans written to {trace_file.relative_to(HERE.parent)}",
        "self time by layer (share of traced query time):",
    ] + [
        f"  {layer:<12} {s:10.4f} s  {s / tally.busy_s:7.2%}"
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])
    ]
    for other in (warm, plain):
        tally.failures += other.failures
        tally.latencies += other.latencies
    return tally, metrics, units, notes


def report(workload, seed, trace, tally, metrics, units, notes) -> dict:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6f} {unit}")
    for note in notes:
        print(note)
    print(f"digest round 0: sha256 {tally.digest.hexdigest()} "
          f"({tally.digest_queries} queries, {tally.digest_bytes} bytes)")
    for failure in tally.failures[:5]:
        print(f"FAILED {failure}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                        help="wall time of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # used by the set-up probes
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import delseq from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(delseq.__file__).resolve().parent != SRC / "delseq":
        print(f"error: delseq was imported from {delseq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0
    if args.trace:
        parts = traced(args.workload, args.seed, args.seconds)
    else:
        parts = end_to_end(args.workload, args.seed, args.seconds, setup_s)
    result = report(args.workload, args.seed, args.trace, *parts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
