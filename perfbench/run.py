#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Workloads: pipeline, online-stop, design (see RATIONALE.md).  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  Lines before it give the full report: environment, sizes,
medians with percentiles and sample counts, and every failed check.
Reports and spans are also written under .bench_out/ in the checkout.
"""

import os

# Pin BLAS to one thread before numpy loads, so that the search's two
# worker processes use at most one core each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
WORKLOAD_NAMES = ("pipeline", "online-stop", "design")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the smoke test only")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup(workloads, args, sizes, tmp) -> list:
    """Set-up time of fresh interpreters, each timed from inside."""
    argv = [sys.executable, "-c", workloads.SETUP_CODE, str(SRC),
            *workloads.setup_args(args.workload, sizes, args.seed, tmp)]
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def untraced_median(workload, scale):
    """Median time_to_result_s over earlier untraced reports in .bench_out."""
    values = []
    for path in (OUT / "results").glob(f"{workload}-{scale}-*-trace0-*.json"):
        try:
            values.append(json.loads(path.read_text())["end_to_end"]["time_to_result_s"]["value"])
        except (OSError, ValueError, KeyError):
            continue
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "dppdesign" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a checkout holding src/dppdesign and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import machine
    import spans
    import workloads

    bench = json.loads(bench_file.read_text())
    sizes = workloads.SIZES[args.workload][args.scale]
    run_id = uuid.uuid4().hex[:12]
    tmp = OUT / "tmp" / f"{args.workload}-{run_id}"
    tmp.mkdir(parents=True)
    try:
        tracer = spans.Tracer(run_id, enabled=bool(args.trace))
        run = workloads.Run(args.seed, args.seconds, tracer, tmp, sizes)
        workloads.WORKLOADS[args.workload](run)
        run.collect_spans(m["name"] for m in bench["per_layer"])
        # The set-up probes run last: until then the only children this
        # process has reaped are pool workers, which peak RSS counts.
        setup = measure_setup(workloads, args, sizes, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if run.traced:
        run.layers["traced.time_to_result_s"] = run.e2e.get("time_to_result_s", [])
    layers, missing = {}, []
    for metric in bench["per_layer"]:
        name = metric["name"]
        samples = run.layers.get(name)
        if samples:
            layers[name] = {**spans.summarize(samples), "unit": metric["unit"]}
            continue
        # Layers this workload does not exercise read 0 with no samples.
        layers[name] = {"value": 0.0, "samples": 0, "unit": metric["unit"]}
        if run.traced and name in workloads.LAYER_METRICS[args.workload]:
            missing.append(name)
    if missing:
        run.ledger.fail("per-layer measurement", f"no samples for {', '.join(missing)}")

    attempted, failed = run.ledger.attempted, run.ledger.failed
    e2e = {name: spans.summarize(v) for name, v in sorted(run.e2e.items())}
    e2e["setup_s"] = spans.summarize(setup)
    e2e["peak_rss_mb"] = {"value": run.peak_rss_mb, "samples": 1}
    e2e["error_ratio"] = {"value": failed / attempted, "samples": attempted}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(error_ratio="1", time_to_report_s="s", time_to_stop_s="s",
                 draws_per_s="1/s", exchange_design_s="s", backward_design_s="s",
                 ga_design_s="s")
    for name, entry in e2e.items():
        entry["unit"] = units[name]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "run_id": run_id,
        "sizes": sizes, "workers": workloads.WORKERS, "environment": machine.environment(),
        "end_to_end": e2e, "per_layer": layers if run.traced else None,
        "notes": run.notes,
        "failures": [op for op in run.ledger.ops if op["errors"]],
    }
    if run.traced:
        baseline = untraced_median(args.workload, args.scale)
        traced = e2e.get("time_to_result_s", {}).get("value")
        report["tracing_overhead_s"] = (
            None if baseline is None or traced is None else traced - baseline
        )
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}-{run_id}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if run.traced:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{stem}.json")

    unmeasured = [m["name"] for m in bench["end_to_end"]
                  if e2e.get(m["name"], {}).get("value") is None]
    if unmeasured:
        print(f"error: no successful repetition to measure {', '.join(unmeasured)}; "
              f"failures: {report['failures']}", file=sys.stderr)
        return 1
    if run.traced:
        metrics = {name: {"value": v["value"], "unit": v["unit"]} for name, v in layers.items()}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
