"""Span recorder for the traced run, attached from outside the package.

`installed` wraps the package's public functions and patches each wrapper into
its defining module and into every other delseq module (and the package
namespace) that imported the same function object, so a call is recorded
whichever name it goes through.  Spans are recorded only while a query is
open; calls the benchmark makes to check outputs are not recorded.

A span is [name, start, end, parent index, query id].  Spans stay in memory
and are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its child spans (calls are strictly nested:
one thread, no re-entrancy across queries).
"""
from __future__ import annotations

import gzip
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# A counter takes (counts, args, kwargs, result) and adds to counts.


def _n(args, kwargs, position):
    return kwargs["n"] if "n" in kwargs else args[position]


def _strings(counts, args, kwargs, result):
    # all_weights(x, n) and greedy_match_stats(x, n)
    counts["exhaustive.strings"] += 1 << _n(args, kwargs, 1)


def _hamming_strings(counts, args, kwargs, result):
    counts["exhaustive.strings"] += 1 << _n(args, kwargs, 0)


def _posterior(counts, args, kwargs, result):
    counts["superspace.entries"] += len(result)
    counts["superspace.strings"] += 1 << _n(args, kwargs, 1)


def _insertions(counts, args, kwargs, result):
    # one attempt per (slot, symbol), before the set removes repeats
    counts["entropy.census.raw"] += 2 * (len(args[0]) + 1)


def _census(counts, args, kwargs, result):
    if result.deletions == 2:
        counts["entropy.census.distinct"] += result.string_count()


def _block_maps(counts, args, kwargs, result):
    counts["embeddings.blockmaps"] += len(result)


def _block_map_counts(counts, args, kwargs, result):
    counts["embeddings.blockmaps_useful"] += sum(1 for _, c in result if c)


# (module, function, span name or None for a counter-only wrapper, counter)

TARGETS = [
    ("delseq.cli", "main", "cli.main", None),
    ("delseq.exhaustive", "all_weights", "exhaustive.all_weights", _strings),
    ("delseq.exhaustive", "all_hamming_weights", "exhaustive.all_hamming_weights",
     _hamming_strings),
    ("delseq.exhaustive", "greedy_match_stats", "exhaustive.greedy_match_stats",
     _strings),
    ("delseq.superspace", "build_posterior", "superspace.build_posterior", _posterior),
    ("delseq.superspace", "weight_classes", "superspace.weight_classes", None),
    ("delseq.entropy", "entropy", "entropy.entropy", None),
    ("delseq.entropy", "entropy_estimate_from_moments", "entropy.moments", None),
    ("delseq.entropy", "posterior_shannon", "entropy.posterior_shannon", None),
    ("delseq.entropy", "g_chain_entropies", "entropy.g_chain_entropies", None),
    ("delseq.entropy", "single_deletion_classes", "entropy.census", _census),
    ("delseq.entropy", "double_deletion_classes", "entropy.census", _census),
    ("delseq.entropy", "_insertions", None, _insertions),
    ("delseq.embeddings", "count_embeddings_dp", "embeddings.dp", None),
    ("delseq.embeddings", "count_embeddings_runs", "embeddings.runs", None),
    ("delseq.embeddings", "enumerate_masks", "embeddings.enumerate_masks", None),
    ("delseq.embeddings", "block_maps", None, _block_maps),
    ("delseq.embeddings", "embedding_counts_by_block_map", None, _block_map_counts),
    ("delseq.hws", "kappa_squared", "hws.kappa_squared", None),
    ("delseq.hws", "kappa_entropy_table", "hws.kappa_entropy_table", None),
    ("delseq.clustering", "cluster_size_closed", "clustering.cluster_size_closed", None),
    ("delseq.clustering", "cluster_size_recurrence", "clustering.cluster_size_recurrence",
     None),
    ("delseq.clustering", "maximal_initials_cluster",
     "clustering.maximal_initials_cluster", None),
    ("delseq.clustering", "count_singletons", "clustering.count_singletons", None),
    ("delseq.clustering", "rho", "clustering.rho", None),
]

BENCH_QUERY = "bench.query"


class Recorder:
    """Spans and counters of the queries run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query: int | None = None

    def run(self, query_id: int, fn, *args):
        """Call fn(*args) as one query, with everything it calls under one root span."""
        self.query = query_id
        try:
            return self._timed(BENCH_QUERY, fn, args, {})
        finally:
            self.query = None

    def _timed(self, name: str, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()

    def wrap(self, fn, name: str | None, counter):
        def wrapper(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = self._timed(name, fn, args, kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write every span as CSV: name, start_s, end_s, parent, query."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,query\n")
            for name, start, end, parent, query in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent},{query}\n")


@contextmanager
def installed(recorder: Recorder):
    """Patch every target, under every name it is bound to, for the body."""
    patches = []
    for modname, fname, name, counter in TARGETS:
        original = getattr(importlib.import_module(modname), fname, None)
        if original is None:
            continue  # the function no longer exists; its metrics read 0
        wrapper = recorder.wrap(original, name, counter)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("delseq"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patches.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


# ----------------------------------------------------------------- metrics


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer numbers of one traced run, keyed by metric name.

    The run itself adds the numbers that are not made from spans: the pairs
    its queries sent and the bytes and rows they printed.
    """
    spans = recorder.spans
    self_s = _self_times(spans)
    self_by_name: Counter = Counter()
    outer_by_name: Counter = Counter()  # spans with no ancestor of the same name
    outer_by_layer: Counter = Counter()  # ... of the same layer
    calls_by_name: Counter = Counter()
    calls_by_layer: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_by_name[name] += self_s[i]
        layer = _layer(name)
        same_name = same_layer = False
        p = parent
        while p >= 0:
            pname = spans[p][0]
            same_name |= pname == name
            same_layer |= _layer(pname) == layer
            p = spans[p][3]
        if not same_name:
            outer_by_name[name] += duration
            calls_by_name[name] += 1
        if not same_layer:
            outer_by_layer[layer] += duration
            calls_by_layer[layer] += 1

    # Per query: the share of its time that layer and CLI self times cover;
    # the rest is the benchmark's own harness around the call.
    query_s: Counter = Counter()
    covered_s: Counter = Counter()
    for span, s in zip(spans, self_s):
        if span[0] == BENCH_QUERY:
            query_s[span[4]] += span[2] - span[1]
        else:
            covered_s[span[4]] += s
    counts = recorder.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    exhaustive_s = outer_by_layer["exhaustive"]
    return {
        "exhaustive.calls": calls_by_layer["exhaustive"],
        "exhaustive.busy_s": exhaustive_s,
        "exhaustive.strings": counts["exhaustive.strings"],
        "exhaustive.ns_per_string": ratio(exhaustive_s * 1e9, counts["exhaustive.strings"]),
        "superspace.build_posterior.self_s": self_by_name["superspace.build_posterior"],
        "superspace.entries": counts["superspace.entries"],
        "superspace.support_ratio": ratio(
            counts["superspace.entries"], counts["superspace.strings"]
        ),
        "superspace.weight_classes.busy_s": outer_by_name["superspace.weight_classes"],
        "entropy.entropy.self_s": self_by_name["entropy.entropy"],
        "entropy.moments.self_s": self_by_name["entropy.moments"],
        "entropy.census.busy_s": outer_by_name["entropy.census"],
        "entropy.census.distinct_ratio": ratio(
            counts["entropy.census.distinct"], counts["entropy.census.raw"]
        ),
        "embeddings.dp.busy_s": outer_by_name["embeddings.dp"],
        "embeddings.runs.busy_s": outer_by_name["embeddings.runs"],
        "embeddings.runs.blockmap_useful_ratio": ratio(
            counts["embeddings.blockmaps_useful"], counts["embeddings.blockmaps"]
        ),
        "hws.kappa_squared.calls": calls_by_name["hws.kappa_squared"],
        "hws.kappa_squared.busy_s": outer_by_name["hws.kappa_squared"],
        "hws.kappa_entropy_table.self_s": self_by_name["hws.kappa_entropy_table"],
        "clustering.calls": calls_by_layer["clustering"],
        "clustering.busy_s": outer_by_layer["clustering"],
        "cli.self_s": self_by_name["cli.main"],
        "trace.accounted_ratio": min(
            (ratio(covered_s[q], t) for q, t in query_s.items()), default=0.0
        ),
    }


def layer_self_times(recorder: Recorder) -> dict[str, float]:
    """Self time summed per layer, the bench's own root spans included."""
    out: Counter = Counter()
    for span, s in zip(recorder.spans, _self_times(recorder.spans)):
        out[_layer(span[0])] += s
    return dict(out)
