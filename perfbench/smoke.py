#!/usr/bin/env python3
"""Schema smoke test of the benchmark; no timing gates.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks the
output schema: the last line holds exactly correct/attempted/failed/metrics,
every metric BENCHMARK.json names is present with its unit, every check
passed, and the report gives a sample count for every metric (at least one
for each per-layer metric the workload exercises).  It then checks that the
benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
Not part of the tier-1 pytest suite, which collects tests/ only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_output(bench, workload, trace, done) -> list:
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{where}: attempted/failed are not counts")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: failed checks {report['failures']}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"] \
                or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {m['name']} is {got}")
    section = report["per_layer"] if trace else report["end_to_end"]
    for name, entry in section.items():
        if "samples" not in entry or "unit" not in entry:
            problems.append(f"{where}: report entry {name} lacks samples or unit")
    wanted = workloads.LAYER_METRICS[workload] if trace else [m["name"] for m in declared]
    for name in wanted:
        if section.get(name, {}).get("samples", 0) < 1:
            problems.append(f"{where}: no samples for {name}")
    return problems


def check_bare_directory() -> list:
    """The benchmark must refuse, without a result, where there is no source."""
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = run_bench(bare, "design", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["bare directory: expected a non-zero exit and no output"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.SIZES:
        for trace in (0, 1):
            found = check_output(bench, workload, trace, run_bench(ROOT, workload, trace))
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    problems += check_bare_directory()
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
