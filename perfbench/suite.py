"""Run every workload, each in a fresh process, and summarise the metrics.

    python3 perfbench/suite.py                      # every workload, default seed
    python3 perfbench/suite.py --seeds 1,7919 --trace
    python3 perfbench/suite.py --seeds 1,7919,101,102,103,104,105,106,107,108 \\
        --trace --out perfbench/baseline.json

For each workload it prints every end-to-end metric with its unit: the median
over the seeds and, when several seeds ran, the quartile spread as a share of
the median, which should stay within the metric's bound.  It also prints the
error rate, the median query time (which has no bound) and the round-0 output
digest of each seed.  With --trace, one traced run per workload on the first
seed adds the per-layer metrics.  --out writes the summary as JSON, with the
commit and the machine facts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = re.search(r"digest round 0: sha256 (\w+)", done.stdout)
    result["digest"] = digest.group(1) if digest else None
    p50 = re.search(r"latency_p50_ms \(not a metric\) ([\d.]+) ms", done.stdout)
    result["latency_p50_ms"] = float(p50.group(1)) if p50 else None
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "min": min(values), "max": max(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return out


def machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def commit() -> str | None:
    """The checked-out commit, when the benchmark runs inside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=ROOT)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated input seeds")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"schema_version": SCHEMA_VERSION, "commit": commit(), "machine": machine(),
               "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed in seeds:
            runs[seed] = run_once(workload, seed, spec["run_seconds"], 0)
            r = runs[seed]
            status = r.get("error") or (
                f"correct={r['correct']} failed={r['failed']}/{r['attempted']}")
            print(f"{workload} seed {seed}: {status}", flush=True)
        good = [r for r in runs.values() if "error" not in r]
        attempted = sum(r["attempted"] for r in good)
        failed = sum(r["failed"] for r in good)
        entry = {
            "errors": {seed: r["error"] for seed, r in runs.items() if "error" in r},
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else None,
            "digests": {seed: r.get("digest") for seed, r in runs.items()},
            "end_to_end": {},
        }
        print(f"== {workload}: error_rate {entry['error_rate']} ({failed} of {attempted})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in good]
            if not values:
                continue
            stats = summarise(values)
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            spread = stats.get("spread")
            note = "" if spread is None else (
                f"  spread {spread:.3f} (bound {bounds[name]})"
                + ("  OVER BOUND" if spread > bounds[name] else ""))
            print(f"   {name:<18} {stats['median']:14.6f} {metric['unit']:<5}{note}")
        # printed by run.py but not a metric (see README.md): no bound applies
        values = [r["latency_p50_ms"] for r in good if r["latency_p50_ms"] is not None]
        if values:
            entry["latency_p50_ms"] = summarise(values)
            print(f"   {'latency_p50_ms':<18} {entry['latency_p50_ms']['median']:14.6f} ms"
                  "     (printed, not a metric)")
        if args.trace:
            traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
            if "error" in traced:
                entry["per_layer"] = {"error": traced["error"]}
            else:
                entry["per_layer"] = {
                    name: m["value"] for name, m in traced["metrics"].items()}
                for name, m in traced["metrics"].items():
                    print(f"   {name:<40} {m['value']:16.6f} {m['unit']}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
