"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds).

    python3 perfbench/smoke.py

Checks that
* every workload, untraced and traced, on the default and the held-out seed,
  reports every metric BENCHMARK.json names, with its unit, and no failure;
* the traced run accounts for each query's time with layer and CLI self time;
* a deliberately corrupted output is counted as a failed query on every
  workload, never passed;
* run.py's last line of output is the result object: correct, attempted,
  failed and every end-to-end metric with its unit;
* run.py exits non-zero, printing no result, where src/ is missing.

Exits 0 if all hold, 1 otherwise, listing what failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def drop_last_line(text: str) -> str:
    return text[: text.rfind("\n", 0, len(text) - 1) + 1]


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_metrics(problems, where, metrics, declared) -> None:
    """Every metric BENCHMARK.json names, and no other, is measured as a number."""
    expect(problems, set(metrics) == set(declared),
           f"{where}: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name in declared:
        expect(problems, isinstance(metrics.get(name), (int, float)),
               f"{where}: {name} = {metrics.get(name)!r}")


def tiny_runs(problems, spec) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            where = f"{workload} seed {seed}"
            tally, metrics, _, _ = run.end_to_end(
                workload, seed, 0, 0.0, probes=0, tiny=True)
            check_metrics(problems, where, metrics, end_to_end)
            expect(problems, not tally.failures, f"{where}: {tally.failures[:1]}")
            tally, metrics, _, _ = run.traced(workload, seed, 0, tiny=True)
            check_metrics(problems, f"{where} traced", metrics, per_layer)
            expect(problems, not tally.failures, f"{where} traced: {tally.failures[:1]}")
            # tiny queries take well under a millisecond, so the harness's own
            # few microseconds per query are a visible share here
            expect(problems, 0.8 <= metrics["trace.accounted_ratio"] <= 1.0,
                   f"{where}: layers account for {metrics['trace.accounted_ratio']:.3f}"
                   " of the least-covered query's time")
        tally, *_ = run.end_to_end(workload, run.DEFAULT_SEED, 0, 0.0, probes=0,
                                   tiny=True, corrupt=drop_last_line)
        expect(problems, tally.attempted > 0 and len(tally.failures) == tally.attempted,
               f"{workload}: {len(tally.failures)} of {tally.attempted} corrupted "
               "outputs counted as failed")


def last_line_result(problems, spec) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    expect(problems, done.returncode == 0, f"run.py exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(problems, set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    expect(problems, result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, f"result {result}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(problems, units == {m["name"]: m["unit"] for m in spec["end_to_end"]},
           f"result metrics and units {units}")


def bare_directory(problems) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(problems, done.returncode != 0 and not done.stdout.strip(),
           f"without src/ run.py exited {done.returncode} and printed {done.stdout[-200:]!r}")


def main() -> int:
    if run.IMPORT_ERROR is not None:
        print(f"cannot import delseq: {run.IMPORT_ERROR}")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    tiny_runs(problems, spec)
    last_line_result(problems, spec)
    bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
