"""The benchmark's workloads: pipeline, online-stop and design.

Each workload makes its inputs from the seed, runs its operations, checks
every output and records metrics on a Run.  End-to-end numbers come from
untraced runs.  A traced run adds spans around every call into a package
layer and replays single layers through the package's public API; the
per-layer numbers come from those spans.

An operation is one CLI stage, one search call or one design method.  It
fails when it raises, exits non-zero or fails an output check.
"""

import io
import json
import pickle
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from dppdesign import cli
from dppdesign.errors import DesignError
from dppdesign.dpp import elementary_table, sample_k_dpp
from dppdesign.kernels import eigendecompose, load_kernel, log_det_submatrix, save_kernel, synth_kernel
from dppdesign.records import JitterConfig, extract_records, jitter_trace
from dppdesign.search import (
    GaConfig,
    dpp_search,
    exchange_refine,
    genetic_search,
    greedy_backward,
    greedy_forward,
)
from dppdesign.stopping import (
    DEFAULT_EPSILONS,
    StoppingPolicy,
    build_stopping_report,
    evaluate_latest_record,
    should_stop,
)
from dppdesign.streams import DOMAIN_SEARCH, StreamDealer
from dppdesign.tails import (
    fit_censored_weibull,
    fit_comparators,
    fit_gpd_pot,
    fitted_cdf_from_cens_weibull,
    fitted_cdf_from_gpd,
    qq_points,
    write_density_overlay,
)
from dppdesign.trace import SampleTrace, read_trace, write_trace
from machine import peak_rss_mb

# dpp_search runs with as many workers as the benchmark machine has cores.
WORKERS = 2
THRESHOLD_QUANTILE = 0.9
FAMILIES = ("gpd", "cens_weibull", "weibull", "lognormal")
LOGDET_TOL = 1e-12

_SAMPLER_KERNEL = {"n": 30, "lengthscale": 2.0, "nugget": 1e-6, "k": 10}
_DESIGN_KERNEL = {"n": 200, "lengthscale": 0.5, "nugget": 1e-6, "k": 40}
# exchange_refine's sweep count depends on the kernel (8 to 19 accepted
# swaps over site seeds 0-6, 2.8 s to 8.4 s), so design keeps one kernel
# and the workload seed drives the GA and the log-det replays.
DESIGN_SITE_SEED = 0

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for
# the smoke test, which checks the output schema and nothing else.
SIZES = {
    "pipeline": {
        "full": {**_SAMPLER_KERNEL, "iters": 50_000, "check_rows": 2000,
                 "replay_draws": 2000, "throughput_draws": 8000},
        "tiny": {**_SAMPLER_KERNEL, "iters": 3000, "check_rows": 300,
                 "replay_draws": 200, "throughput_draws": 600},
    },
    "online-stop": {
        "full": {**_SAMPLER_KERNEL, "iters": 40_000, "check_rows": 2000,
                 "replay_draws": 2000},
        "tiny": {**_SAMPLER_KERNEL, "iters": 3000, "check_rows": 300,
                 "replay_draws": 200},
    },
    "design": {
        "full": {**_DESIGN_KERNEL, "generations": 50, "replay_logdets": 2000},
        "tiny": {**_DESIGN_KERNEL, "n": 40, "k": 8, "generations": 3,
                 "replay_logdets": 200},
    },
}

# Per-layer metrics each workload's traced run measures.  A workload
# reports every other per-layer metric as 0 with no samples.
LAYER_METRICS = {
    "pipeline": (
        "cli.solve_s", "cli.analyze_records_s", "cli.fit_tail_s",
        "cli.stopping_report_s", "streams.rng_reset_us", "dpp.sample_us",
        "kernels.logdet_k10_us", "search.draws_per_s_w1",
        "search.draws_per_s_w2", "search.scaling_eff", "search.futures",
        "search.pickled_bytes", "search.distinct_ratio", "trace.construct_ms",
        "trace.write_ms", "trace.read_ms", "trace.file_bytes",
        "records.jitter_ms", "records.extract_ms", "records.count",
        "tails.gpd_fit_ms", "tails.gpd_cdf_ms", "tails.cens_weibull_fit_ms",
        "tails.comparators_ms", "tails.qq_gpd_ms", "tails.qq_cens_weibull_ms",
        "tails.density_ms", "stopping.report_ms", "traced.time_to_result_s",
    ),
    "online-stop": (
        "streams.rng_reset_us", "dpp.sample_us", "kernels.logdet_k10_us",
        "search.draws_per_s_w2", "search.futures", "search.pickled_bytes",
        "search.policy_overhead_s", "trace.construct_ms", "trace.write_ms",
        "trace.read_ms", "trace.file_bytes", "records.jitter_ms",
        "records.extract_ms", "records.count", "tails.gpd_fit_ms",
        "tails.gpd_cdf_ms", "stopping.latest_row_us", "traced.time_to_result_s",
    ),
    "design": (
        "kernels.logdet_k40_us", "search.greedy_forward_ms", "search.exchange_s",
        "search.greedy_backward_s", "search.ga_generation_ms",
        "traced.time_to_result_s",
    ),
}

# A timed per-layer metric is named after its span plus a unit suffix,
# e.g. spans "tails.qq_gpd" give "tails.qq_gpd_ms".
_NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}

# Set-up as a user pays it: import the package (and the CLI), build the
# kernel and, for the CLI workload, write it to the file the CLI reads.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dppdesign, dppdesign.cli
K = dppdesign.synth_kernel(int(sys.argv[2]), float(sys.argv[3]),
                           float(sys.argv[4]), seed=int(sys.argv[5]))
if len(sys.argv) > 6:
    dppdesign.save_kernel(K, sys.argv[6])
print(time.perf_counter() - t0)
"""


class Ledger:
    """Operations attempted and the reasons any of them failed."""

    def __init__(self):
        self.ops = []

    def run(self, name, fn, *args, **kwargs):
        """Run one operation; returns (op, result), result None if it raised."""
        op = {"name": name, "errors": []}
        self.ops.append(op)
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is counted as failed
            op["errors"].append(f"raised {type(exc).__name__}: {exc}")
            return op, None

    def fail(self, name, what):
        """Count an operation that failed outside any call, e.g. a metric
        the run could not measure."""
        self.ops.append({"name": name, "errors": [what]})

    @staticmethod
    def verify(op, what, fn):
        """Record `what` as a failure of op unless fn() returns true."""
        if op is None:
            return
        try:
            ok = bool(fn())
        except Exception as exc:  # an unreadable output fails its check
            ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            op["errors"].append(what)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])


class Run:
    """State of one benchmark run: inputs, budget, tracer and results."""

    def __init__(self, seed, seconds, tracer, tmp, sizes):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.sizes = sizes
        self.ledger = Ledger()
        self.e2e = {}      # metric -> samples, one per repetition
        self.layers = {}   # per-layer metric -> samples
        self.notes = {}
        self.peak_rss_mb = None

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def span(self, name):
        return self.tracer.span(name)

    def repeat(self, fn) -> list:
        """Call fn(rep) until the time budget would be exceeded, at least
        once; a traced run repeats nothing.  Peak RSS is read after the
        first repetition, so it does not depend on how many fit."""
        results, t0 = [], time.perf_counter()
        while True:
            start = time.perf_counter()
            results.append(fn(len(results)))
            if len(results) == 1:
                self.peak_rss_mb = peak_rss_mb(WORKERS)
            now = time.perf_counter()
            if self.traced or now - t0 + (now - start) > self.seconds:
                return results

    def add(self, table, name, value):
        getattr(self, table).setdefault(name, []).append(value)

    def collect_spans(self, metrics):
        """Fill each timed metric from the self times of its spans."""
        for metric in metrics:
            span, _, unit = metric.rpartition("_")
            if unit in _NS_PER_UNIT and metric not in self.layers:
                times = self.tracer.self_times_ns(span)
                if times:
                    self.layers[metric] = [t / _NS_PER_UNIT[unit] for t in times]


def setup_args(workload, sizes, seed, tmp) -> list:
    """Arguments after the source path for SETUP_CODE."""
    site_seed = DESIGN_SITE_SEED if workload == "design" else seed
    args = [sizes["n"], sizes["lengthscale"], sizes["nugget"], site_seed]
    if workload == "pipeline":
        args.append(tmp / "setup_kernel.csv")
    return [str(a) for a in args]


# ---------------------------------------------------------------------------
# Shared pieces


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _cli_stage(run, name, argv):
    """One in-process CLI call; returns (op, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err), run.span(f"cli.{name}"):
            return cli.main([str(a) for a in argv])

    t0 = time.perf_counter()
    op, code = run.ledger.run(f"cli.{name}", call)
    wall = time.perf_counter() - t0
    if code is not None:
        run.ledger.verify(op, f"exit code {code}: {err.getvalue().strip()}",
                          lambda: code == 0)
    return op, wall


def _replay_draws(run, K, k, count, metric):
    """Draw iterations 1..count through the public sampler, as dpp_search
    does, with a span around each layer call; returns [(indices, log_det)]."""
    eig = eigendecompose(K)
    table = elementary_table(eig.eigenvalues, k)
    dealer = StreamDealer(run.seed, DOMAIN_SEARCH)
    rows = []
    for i in range(1, count + 1):
        with run.span("replay.draw"):
            with run.span("streams.rng_reset"):
                rng = dealer.rng(i)
            with run.span("dpp.sample"):
                sample = sample_k_dpp(eig, k, rng, table)
            with run.span(metric):
                value = log_det_submatrix(K, sample.indices)
        rows.append((tuple(sample.indices), value))
    return rows


def _note_replay(run, replay, rows):
    """How many replayed draws differ from the program's rows.  A note, not
    a check: only worker-count invariance is promised, and a batched
    sampler may round a boundary draw differently from sample_k_dpp."""
    run.notes["replayed_draws_differing"] = sum(a != b for a, b in zip(replay, rows))


def _future_ranges(total, block, workers):
    """The (lo, hi) ranges dpp_search submits: blocks of `block` iterations,
    each split evenly over at most `workers` futures."""
    lo = 1
    while lo <= total:
        hi = min(lo + block - 1, total)
        size = hi - lo + 1
        parts = max(1, min(workers, size))
        start = lo
        for p in range(parts):
            width = size // parts + (1 if p < size % parts else 0)
            yield start, start + width - 1
            start += width
        lo = hi + 1


def _record_futures(run, K, k, total, block):
    """Computed counts: futures submitted and bytes of pickled arguments."""
    eig = eigendecompose(K)
    table = elementary_table(eig.eigenvalues, k)
    ranges = list(_future_ranges(total, block, WORKERS))
    nbytes = sum(
        len(pickle.dumps((K.entries, eig, table, k, run.seed, lo, hi)))
        for lo, hi in ranges
    )
    run.add("layers", "search.futures", len(ranges))
    run.add("layers", "search.pickled_bytes", nbytes)
    run.notes["search.futures"] = "computed from sizes, not observed"


def _replay_trace_io(run, trace, path, reps):
    """Construct, write and read a trace through the trace layer."""
    subsets = np.asarray(trace.subsets).tolist()
    for _ in range(reps):
        with run.span("trace.construct"):
            built = SampleTrace(trace.iterations, trace.values, subsets)
        with run.span("trace.write"):
            write_trace(built, path)
        with run.span("trace.read"):
            back = read_trace(path)
    run.add("layers", "trace.file_bytes", path.stat().st_size)
    return back


def _trace_rows(lines):
    """(indices, value) of each data row of a trace CSV given as bytes lines."""
    rows = []
    for line in lines[1:]:
        _, value, _, subset = line.decode().strip().split(",")
        rows.append((tuple(int(s) for s in subset.split(";")), float(value)))
    return rows


def _reference_lines(run, kernel_path, rows):
    """Header plus the first `rows` rows of a workers=1 solve, checked
    against a workers=2 solve of the same length, which splits the rows
    over two pool workers."""
    lines = {}
    for workers in (1, WORKERS):
        out = run.tmp / f"solve_w{workers}"
        op, _ = _cli_stage(run, f"solve_w{workers}", [
            "solve", "--kernel", kernel_path, "--k", run.sizes["k"],
            "--method", "dpp", "--max-iters", rows, "--seed", run.seed,
            "--workers", workers, "--out-dir", out,
        ])
        if not op["errors"]:
            lines[workers] = (out / "trace.csv").read_bytes().splitlines()
    run.ledger.verify(op, "workers=2 trace differs from the workers=1 trace",
                      lambda: lines[1] == lines[WORKERS])
    return lines.get(1)


# ---------------------------------------------------------------------------
# pipeline: solve -> greedy reference -> analyze-records -> fit-tail ->
# stopping-report, each an in-process CLI call.


_PIPELINE_STAGES = ("solve", "solve_reference", "analyze_records", "fit_tail",
                    "stopping_report")


def _pipeline_sequence(run, kernel_path, out):
    z = run.sizes
    seed = run.seed
    trace = out / "dpp" / "trace.csv"
    fits = ",".join(str(out / "fit" / f"fit_{f}.json") for f in ("gpd", "cens_weibull"))
    stages = (
        ("solve", ["solve", "--kernel", kernel_path, "--k", z["k"], "--method", "dpp",
                   "--max-iters", z["iters"], "--seed", seed, "--workers", WORKERS,
                   "--out-dir", out / "dpp"]),
        ("solve_reference", ["solve", "--kernel", kernel_path, "--k", z["k"],
                             "--method", "greedy", "--out-dir", out / "greedy"]),
        ("analyze_records", ["analyze-records", "--trace", trace, "--seed", seed,
                             "--out-dir", out / "records"]),
        ("fit_tail", ["fit-tail", "--trace", trace, "--threshold-quantile",
                      THRESHOLD_QUANTILE, "--families", ",".join(FAMILIES),
                      "--seed", seed, "--out-dir", out / "fit"]),
        ("stopping_report", ["stopping-report", "--trace", trace, "--fits", fits,
                             "--reference-json", out / "greedy" / "best.json",
                             "--out-dir", out / "report"]),
    )
    ops = {}
    with run.span("pipeline.sequence"):
        for name, argv in stages:
            ops[name], wall = _cli_stage(run, name, argv)
            run.add("e2e", f"{name}_s", wall)
    return out, ops


def _check_pipeline(run, K, out, ops, reference):
    z = run.sizes
    verify = run.ledger.verify
    solve = ops["solve"]
    lines = (out / "dpp" / "trace.csv").read_bytes().splitlines() if not solve["errors"] else []
    verify(solve, f"trace does not have {z['iters']} rows", lambda: len(lines) - 1 == z["iters"])
    verify(solve, "first rows differ from a workers=1 run",
           lambda: reference is not None and lines[:len(reference)] == reference)

    def best_matches():
        best = json.loads((out / "dpp" / "best.json").read_text())
        return abs(best["log_det"] - log_det_submatrix(K, best["indices"])) <= LOGDET_TOL
    verify(solve, "best.json log_det differs from log_det_submatrix", best_matches)

    def records_increase():
        rows = (out / "records" / "records.csv").read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        times = np.array([int(r.split(",")[2]) for r in rows])
        return rows and np.all(np.diff(values) > 0) and np.all(np.diff(times) > 0)
    verify(ops["analyze_records"], "record values or times do not strictly increase",
           records_increase)

    def reports_valid():
        summary = json.loads((out / "records" / "records_summary.json").read_text())
        for family in ("gpd", "cens_weibull"):
            rows = (out / "report" / f"stopping_{family}.csv").read_text().splitlines()
            header, body = rows[0].split(","), rows[1:]
            cols = [i for i, h in enumerate(header) if h.startswith("p_eps_")]
            if len(body) != summary["observed_records"] or not cols:
                return False
            for row in body:
                cells = row.split(",")
                if not all(0.0 <= float(cells[i]) <= 1.0 for i in cols):
                    return False
        return True
    verify(ops["stopping_report"], "stopping report rows or p_eps out of range", reports_valid)
    return lines


def _pipeline_layers(run, K, out, ops, lines):
    """Traced replays of single layers on the pipeline's own outputs."""
    z = run.sizes
    verify = run.ledger.verify
    solve = ops["solve"]
    k, seed = z["k"], run.seed

    _record_futures(run, K, k, z["iters"], z["iters"])
    if lines:
        distinct = len({line.rsplit(b",", 1)[1] for line in lines[1:]})
        run.add("layers", "search.distinct_ratio", distinct / (len(lines) - 1))

    replay = _replay_draws(run, K, k, z["replay_draws"], "kernels.logdet_k10")
    _note_replay(run, replay, _trace_rows(lines[:len(replay) + 1]))

    rates = {}
    traces = {}
    for w in (1, WORKERS):
        op, res = run.ledger.run(f"search.dpp_search_w{w}", _timed, dpp_search, K, k,
                                 z["throughput_draws"], seed=seed, workers=w)
        if res is not None:
            traces[w], wall = res
            rates[w] = z["throughput_draws"] / wall
            run.add("layers", f"search.draws_per_s_w{w}", rates[w])
    if len(traces) == 2:
        verify(op, "workers=1 and workers=2 traces differ",
               lambda: np.array_equal(traces[1].values, traces[WORKERS].values)
               and traces[1].subsets == traces[WORKERS].subsets)
        run.add("layers", "search.scaling_eff", rates[WORKERS] / (WORKERS * rates[1]))

    if solve["errors"]:
        return
    trace_path = out / "dpp" / "trace.csv"
    trace = read_trace(trace_path)
    back = _replay_trace_io(run, trace, run.tmp / "trace_replay.csv", reps=2)
    verify(solve, "trace does not round-trip through write_trace/read_trace",
           lambda: (run.tmp / "trace_replay.csv").read_bytes() == trace_path.read_bytes()
           and back.subsets == trace.subsets)

    cfg = JitterConfig(seed=seed)
    for _ in range(3):
        with run.span("records.jitter"):
            jittered = jitter_trace(trace, cfg)
    for _ in range(3):
        with run.span("records.extract"):
            records = extract_records(jittered)
    run.add("layers", "records.count", records.count)
    verify(ops["analyze_records"], "replayed record count differs from records_summary.json",
           lambda: json.loads((out / "records" / "records_summary.json").read_text())
           ["observed_records"] == records.count)

    values = jittered.values
    for _ in range(5):
        with run.span("tails.gpd_fit"):
            gpd = fit_gpd_pot(values, THRESHOLD_QUANTILE)
    for _ in range(3):
        with run.span("tails.gpd_cdf"):
            gpd_cdf = fitted_cdf_from_gpd(gpd, values)
    for _ in range(3):
        with run.span("tails.cens_weibull_fit"):
            cw = fit_censored_weibull(values, THRESHOLD_QUANTILE)
    cw_cdf = fitted_cdf_from_cens_weibull(cw)
    for _ in range(2):
        with run.span("tails.comparators"):
            fit_comparators(values)
    # One call only: its cost grows with the square of the trace length.
    with run.span("tails.qq_gpd"):
        qq_points(gpd_cdf, values)
    for _ in range(3):
        with run.span("tails.qq_cens_weibull"):
            qq_points(cw_cdf, values)
    for _ in range(3):
        with run.span("tails.density"):
            write_density_overlay(gpd_cdf, values, run.tmp / "density_replay.csv")
    verify(ops["fit_tail"], "replayed GPD fit differs from fit_gpd.json",
           lambda: json.loads((out / "fit" / "fit_gpd.json").read_text())["parameters"]
           == gpd_cdf.params)

    reference = json.loads((out / "greedy" / "best.json").read_text())["log_det"]
    for _ in range(5):
        with run.span("stopping.report"):
            reports = build_stopping_report(records, [gpd_cdf, cw_cdf],
                                            DEFAULT_EPSILONS, reference)
    verify(ops["stopping_report"], "replayed report row count differs",
           lambda: all(len(r.rows) == records.count for r in reports))


def pipeline(run):
    z = run.sizes
    kernel_path = run.tmp / "kernel.csv"
    save_kernel(synth_kernel(z["n"], z["lengthscale"], z["nugget"], seed=run.seed),
                kernel_path)
    K = load_kernel(kernel_path)
    reference = _reference_lines(run, kernel_path, z["check_rows"])
    sequences = run.repeat(lambda i: _pipeline_sequence(run, kernel_path, run.tmp / f"rep{i}"))
    # Per-stage medians, summed, as in design.
    stages = [run.e2e.pop(f"{name}_s") for name in _PIPELINE_STAGES]
    total = sum(statistics.median(s) for s in stages)
    run.e2e["time_to_result_s"] = run.e2e["time_to_report_s"] = [total]
    run.e2e["draws_per_s"] = [z["iters"] / statistics.median(stages[0])]
    # Checks run outside the timed sequences, on every repetition.
    for out, ops in sequences:
        lines = _check_pipeline(run, K, out, ops, reference)
    if run.traced:
        run.ledger.run("replay.layers", _pipeline_layers, run, K, *sequences[0], lines)


# ---------------------------------------------------------------------------
# online-stop: dpp_search with the default stopping policy checked between
# blocks of check_every iterations.


def _policy_search(run, K, policy):
    with run.span("search.dpp_search_policy"):
        return _timed(dpp_search, K, run.sizes["k"], run.sizes["iters"],
                      seed=run.seed, stop=policy, workers=WORKERS)


def _plain_search(run, K, iters, workers):
    with run.span("search.dpp_search"):
        return _timed(dpp_search, K, run.sizes["k"], iters, seed=run.seed,
                      workers=workers)


def _same_rows(a, b, rows):
    return (a.subsets[:rows] == b.subsets[:rows]
            and np.array_equal(a.values[:rows], b.values[:rows])
            and np.array_equal(a.iterations[:rows], b.iterations[:rows]))


def _check_policy_trace(run, op, trace, policy, first):
    verify = run.ledger.verify
    verify(op, "stopped_at is neither None nor a multiple of check_every",
           lambda: trace.stopped_at is None or trace.stopped_at % policy.check_every == 0)
    verify(op, "trace length disagrees with stopped_at",
           lambda: trace.n == (trace.stopped_at or run.sizes["iters"]))
    verify(op, "repetitions with one seed returned different traces",
           lambda: trace.n == first.n and _same_rows(trace, first, first.n))


def _latest_row_decision(records, fitted, policy):
    """The last step of a policy check; a DesignError means "don't stop"."""
    try:
        row = evaluate_latest_record(records, fitted, (policy.epsilon,))
    except DesignError:
        return False
    return should_stop(policy, row)


def _online_layers(run, K, policy, op, policy_wall, first, plain):
    """Traced replays at the policy's final prefix, split into the public
    calls a policy check makes."""
    z = run.sizes
    verify = run.ledger.verify
    _, plain_wall = plain
    run.add("layers", "search.policy_overhead_s", policy_wall - plain_wall)
    run.add("layers", "search.draws_per_s_w2", first.n / plain_wall)
    _record_futures(run, K, z["k"], first.n, policy.check_every)

    replay = _replay_draws(run, K, z["k"], min(z["replay_draws"], first.n),
                           "kernels.logdet_k10")
    _note_replay(run, replay, [(s, float(v)) for s, v in zip(first.subsets, first.values)])

    prefix = _replay_trace_io(run, first, run.tmp / "prefix.csv", reps=3)
    cfg = JitterConfig(seed=run.seed)
    for _ in range(3):
        with run.span("records.jitter"):
            jittered = jitter_trace(prefix, cfg)
    for _ in range(3):
        with run.span("records.extract"):
            records = extract_records(jittered)
    run.add("layers", "records.count", records.count)
    for _ in range(5):
        with run.span("tails.gpd_fit"):
            gpd = fit_gpd_pot(jittered.values, THRESHOLD_QUANTILE)
    for _ in range(3):
        with run.span("tails.gpd_cdf"):
            fitted = fitted_cdf_from_gpd(gpd, jittered.values)
    for _ in range(50):
        with run.span("stopping.latest_row"):
            fires = _latest_row_decision(records, fitted, policy)
    verify(op, "replayed policy decision at the final prefix disagrees with stopped_at",
           lambda: fires == (first.stopped_at is not None))


def online_stop(run):
    z = run.sizes
    K = synth_kernel(z["n"], z["lengthscale"], z["nugget"], seed=run.seed)
    policy = StoppingPolicy()
    kept = []  # the first repetition's trace; later ones are compared and dropped

    def search(_):
        op, res = run.ledger.run("search.dpp_search_policy", _policy_search, run, K, policy)
        if res is None:
            return op, None
        trace, wall = res
        run.add("e2e", "time_to_result_s", wall)
        run.add("e2e", "time_to_stop_s", wall)
        run.add("e2e", "draws_per_s", trace.n / wall)
        _check_policy_trace(run, op, trace, policy, kept[0] if kept else trace)
        if not kept:
            kept.append(trace)
        return op, wall

    searches = run.repeat(search)
    if not kept:
        return
    first = kept[0]
    run.notes["stopped_at"] = first.stopped_at
    run.notes["final_prefix"] = first.n
    # The same search without a policy is the pipeline's trace for this
    # kernel and seed.  An untraced run compares the first check_rows rows
    # with a workers=1 search; the traced run compares the whole prefix with
    # a workers=2 search, which also gives the policy overhead.
    rows = first.n if run.traced else min(z["check_rows"], first.n)
    workers = WORKERS if run.traced else 1
    _, plain = run.ledger.run("search.dpp_search", _plain_search, run, K, rows, workers)
    for op, _ in searches:
        run.ledger.verify(op, "policy trace is not a prefix of the plain search",
                          lambda: plain is not None and _same_rows(plain[0], first, rows))
    if run.traced and plain is not None:
        op, policy_wall = searches[0]
        run.ledger.run("replay.layers", _online_layers, run, K, policy, op,
                       policy_wall, first, plain)


# ---------------------------------------------------------------------------
# design: greedy_forward -> exchange_refine, greedy_backward and
# genetic_search on a larger kernel.  The sampler, records, tails and
# stopping layers do no work here.


def _design_methods(run, K, cfg):
    k, ledger = run.sizes["k"], run.ledger
    out = {}

    def exchange():
        with run.span("search.greedy_forward"):
            greedy = greedy_forward(K, k)
        with run.span("search.exchange"):
            return greedy, exchange_refine(K, greedy)

    def backward():
        with run.span("search.greedy_backward"):
            return greedy_backward(K, k)

    def ga():
        with run.span("search.genetic_search"):
            return genetic_search(K, k, cfg, seed=run.seed)

    for name, fn in (("exchange", exchange), ("backward", backward), ("ga", ga)):
        op, res = ledger.run(f"design.{name}", _timed, fn)
        out[name] = (op, None if res is None else res[0])
        if res is not None:
            run.add("e2e", f"{name}_design_s", res[1])
    return out


def _no_improving_swap(K, design):
    current = set(design.indices)
    for out in design.indices:
        for s in range(K.dim):
            if s not in current:
                swapped = sorted(current - {out} | {s})
                if log_det_submatrix(K, swapped) > design.log_det:
                    return False
    return True


def _recomputed(K, indices, value):
    return abs(log_det_submatrix(K, indices) - value) <= LOGDET_TOL * max(1.0, abs(value))


def _check_design(run, K, reps):
    verify = run.ledger.verify
    first = reps[0]
    for rep in reps:
        op, res = rep["exchange"]
        if res is not None:
            greedy, refined = res
            verify(op, "exchange log_det below the greedy start",
                   lambda: refined.log_det >= greedy.log_det)
            verify(op, "reported log_det differs from a recomputation",
                   lambda: _recomputed(K, greedy.indices, greedy.log_det)
                   and _recomputed(K, refined.indices, refined.log_det))
            if rep is first:
                verify(op, "an improving one-swap remains", lambda: _no_improving_swap(K, refined))
            else:
                verify(op, "repetitions returned different designs",
                       lambda: first["exchange"][1] == res)
        op, res = rep["backward"]
        if res is not None:
            verify(op, "reported log_det differs from a recomputation",
                   lambda: _recomputed(K, res.indices, res.log_det))
        op, res = rep["ga"]
        if res is not None:
            _, value, subset = res.best()
            verify(op, "GA best log_det differs from a recomputation",
                   lambda: _recomputed(K, subset, value))
            verify(op, "GA best-so-far decreases",
                   lambda: np.all(np.diff(res.values) >= 0))


def design(run):
    z = run.sizes
    K = synth_kernel(z["n"], z["lengthscale"], z["nugget"], seed=DESIGN_SITE_SEED)
    cfg = GaConfig(generations=z["generations"])
    reps = run.repeat(lambda _: _design_methods(run, K, cfg))
    # The sum of per-method medians: a slow spell of the machine during one
    # method of one repetition does not move the other methods' medians.
    methods = [run.e2e.get(f"{name}_design_s") for name in ("exchange", "backward", "ga")]
    if all(methods):
        run.e2e["time_to_result_s"] = [sum(statistics.median(m) for m in methods)]
    _check_design(run, K, reps)
    if run.traced:
        ga_ns = run.tracer.self_times_ns("search.genetic_search")
        run.layers["search.ga_generation_ms"] = [d / 1e6 / z["generations"] for d in ga_ns]
        rng = np.random.default_rng(run.seed)
        for _ in range(z["replay_logdets"]):
            subset = np.sort(rng.choice(z["n"], z["k"], replace=False))
            with run.span("kernels.logdet_k40"):
                log_det_submatrix(K, subset)


WORKLOADS = {"pipeline": pipeline, "online-stop": online_stop, "design": design}
