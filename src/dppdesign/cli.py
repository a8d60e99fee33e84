"""Command-line workflows: gen-kernel, solve, analyze-records, fit-tail,
stopping-report.

Exit codes: 0 success, 1 configuration, 2 input/output, 3 numeric, 4 budget.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    BudgetError,
    ConfigError,
    DesignError,
    InputFormatError,
    NumericError,
)
from .kernels import load_kernel, save_kernel, synth_kernel
from .records import JitterConfig, expected_record_count, extract_records, jitter_trace, write_record_log
from .search import (
    GaConfig,
    best_subset,
    default_workers,
    dpp_search,
    exchange_refine,
    exhaustive_search,
    genetic_search,
    greedy_backward,
    greedy_forward,
)
from .stopping import DEFAULT_EPSILONS, StoppingPolicy, build_stopping_report, write_stopping_csv
from .tails import (
    fit_censored_weibull,
    fit_comparators,
    fit_gpd_pot,
    fitted_cdf_from_cens_weibull,
    fitted_cdf_from_gpd,
    fitted_cdf_from_params,
    qq_points,
    write_density_overlay,
    write_fit_report,
    write_qq_csv,
)
from .trace import SampleTrace, read_trace, write_trace

FAMILIES = ("gpd", "cens_weibull", "weibull", "lognormal")

# solve key (flag dest and config-file key) -> (cast, default)
_SOLVE_KEYS = {
    "kernel": (str, None), "synth_n": (int, None), "lengthscale": (float, 0.5),
    "nugget": (float, 1e-6), "kernel_seed": (int, 0), "k": (int, None),
    "method": (str, None), "max_iters": (int, 10_000), "seed": (int, 0),
    "workers": (int, default_workers()), "stop_epsilon": (float, None),
    "stop_delta": (float, None), "stop_max_wait": (float, None),
    "stop_check_every": (int, None),
}
# solve flag dest -> StoppingPolicy field
_STOP_FIELDS = {
    "stop_epsilon": "epsilon", "stop_delta": "delta",
    "stop_max_wait": "max_expected_wait", "stop_check_every": "check_every",
}


def _one_row(design):
    return SampleTrace([1], [design.log_det], [design.indices])


def _ga(K, args, policy):
    cfg = GaConfig(
        population=args.ga_population,
        p_cross=args.ga_pcross,
        p_mutprop=args.ga_pmutprop,
        p_mut=args.ga_pmut,
        elite_fraction=args.ga_elite,
        tournament_size=args.ga_tournament,
        generations=args.max_iters,
    )
    return genetic_search(K, args.k, cfg, seed=args.seed)


# method -> search(K, args, stopping policy) returning its trace
METHODS = {
    "dpp": lambda K, a, policy: dpp_search(K, a.k, a.max_iters, seed=a.seed,
                                           stop=policy, workers=a.workers),
    "greedy": lambda K, a, policy: _one_row(greedy_forward(K, a.k)),
    "greedy-backward": lambda K, a, policy: _one_row(greedy_backward(K, a.k)),
    "exchange": lambda K, a, policy: _one_row(exchange_refine(K, greedy_forward(K, a.k))),
    "ga": _ga,
    "exhaustive": lambda K, a, policy: _one_row(exhaustive_search(K, a.k)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_config_file(path) -> dict:
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln in fh:
                ln = ln.strip()
                if not ln or ln.startswith("#"):
                    continue
                if "=" not in ln:
                    raise ConfigError(f"bad config line: {ln!r}")
                key, val = ln.split("=", 1)
                cfg[key.strip()] = val.strip()
    except OSError as exc:
        raise InputFormatError(f"cannot read config {path}: {exc}") from None
    return cfg


def _read_json_object(path, what, keys) -> dict:
    """JSON object from path holding every key in keys; anything else is
    an input error that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise InputFormatError(f"bad {what} JSON {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise InputFormatError(f"{what} {path} is not a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise InputFormatError(f"{what} {path} lacks {', '.join(missing)}")
    return payload


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_fit_scalars(path, payload) -> None:
    """Reject fit JSON scalars of the wrong type before they reach the
    jitter stream or the fitted model."""
    sigma, seed = payload["jitter_sigma"], payload["jitter_seed"]
    if not (_is_number(sigma) and sigma >= 0):
        raise InputFormatError(f"fit {path}: jitter_sigma must be a number >= 0")
    # Any integer seeds a stream (fit-tail --seed accepts negative ones).
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputFormatError(f"fit {path}: jitter_seed must be an integer")
    if "shift" in payload and not _is_number(payload["shift"]):
        raise InputFormatError(f"fit {path}: shift must be a number")
    if payload.get("threshold") is not None and not _is_number(payload["threshold"]):
        raise InputFormatError(f"fit {path}: threshold must be a number or null")


def _load_solve_kernel(args):
    if (args.kernel is None) == (args.synth_n is None):
        raise ConfigError("exactly one of --kernel or --synth-n is required")
    if args.kernel is not None:
        return load_kernel(args.kernel), {"kernel": str(args.kernel)}
    params = {
        "synth_n": args.synth_n,
        "lengthscale": args.lengthscale,
        "nugget": args.nugget,
        "kernel_seed": args.kernel_seed,
    }
    K = synth_kernel(args.synth_n, args.lengthscale, args.nugget, args.kernel_seed)
    return K, params


def _run_id(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def cmd_gen_kernel(args) -> int:
    K = synth_kernel(args.n, args.lengthscale, args.nugget, args.seed)
    save_kernel(K, args.out)
    print(f"wrote {args.n}x{args.n} kernel to {args.out}")
    return 0


def cmd_solve(args) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    for key, (cast, default) in _SOLVE_KEYS.items():
        if getattr(args, key) is None:
            setattr(args, key, cast(file_cfg[key]) if key in file_cfg else default)
    if args.k is None or args.method is None:
        raise ConfigError("--k and --method are required")
    if args.method not in METHODS:
        raise ConfigError(f"unknown method {args.method!r}")

    K, kernel_params = _load_solve_kernel(args)
    if not 1 <= args.k <= K.dim:
        raise ConfigError(f"k must be in [1, {K.dim}], got {args.k}")
    if args.method in ("dpp", "ga") and args.max_iters < 1:
        raise ConfigError(f"max_iters must be positive, got {args.max_iters}")

    stop_kwargs = {field: getattr(args, flag) for flag, field in _STOP_FIELDS.items()
                   if getattr(args, flag) is not None}
    policy = StoppingPolicy(**stop_kwargs) if args.stop or stop_kwargs else None

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    trace = METHODS[args.method](K, args, policy)
    best = best_subset(K, trace)
    stopped_at = getattr(trace, "stopped_at", None)
    wall = time.perf_counter() - t0

    config_payload = {
        "command": "solve", "method": args.method, "k": args.k,
        "max_iters": args.max_iters, "seed": args.seed, **kernel_params,
    }
    run_id = _run_id(config_payload)

    write_trace(trace, out / "trace.csv")
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump({
            "method": args.method, "k": args.k, "n": K.dim,
            "indices": list(best.indices), "log_det": best.log_det,
            "seed": args.seed, "run_id": run_id,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump({
            "run_id": run_id, "config": config_payload,
            "version": __version__, "workers": args.workers,
            "stopped_at": stopped_at, "wall_time_s": wall,
            "timestamp": time.time(),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.method}: log_det {best.log_det:.6f} at {list(best.indices)}")
    if stopped_at is not None:
        print(f"stopping policy fired at iteration {stopped_at}")
    return 0


def _jittered_trace(path, sigma, seed):
    trace = read_trace(path)
    if sigma == 0:
        return trace
    return jitter_trace(trace, JitterConfig(sigma=sigma, seed=seed))


def cmd_analyze_records(args) -> int:
    jittered = _jittered_trace(args.trace, args.sigma, args.seed)
    records = extract_records(jittered)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_record_log(records, out / "records.csv")
    mean, var = expected_record_count(jittered.n)
    with open(out / "records_summary.json", "w", encoding="utf-8") as fh:
        json.dump({
            "observed_records": records.count,
            "expected_records": mean,
            "record_count_variance": var,
            "trace_length": jittered.n,
            "jitter_sigma": args.sigma,
            "jitter_seed": args.seed,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"records: observed {records.count}, expected {mean:.2f} "
          f"over {jittered.n} iterations")
    return 0


def cmd_fit_tail(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ConfigError(f"unknown families: {unknown}")
    jittered = _jittered_trace(args.trace, args.sigma, args.seed)
    values = jittered.values
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "trace_sha256": _sha256(args.trace),
        "jitter_sigma": args.sigma,
        "jitter_seed": args.seed,
        "threshold_quantile": args.threshold_quantile,
    }

    comparators = None
    for family in families:
        if family == "gpd":
            fitted = fitted_cdf_from_gpd(
                fit_gpd_pot(values, args.threshold_quantile), values
            )
        elif family == "cens_weibull":
            fitted = fitted_cdf_from_cens_weibull(
                fit_censored_weibull(values, args.threshold_quantile)
            )
        else:
            if comparators is None:
                comparators = {f.family: f for f in fit_comparators(values)}
            fitted = comparators[family]
        write_fit_report(fitted, out / f"fit_{family}.json", meta)
        write_qq_csv(qq_points(fitted, values), out / f"qq_{family}_full.csv")
        if fitted.threshold is not None:
            write_qq_csv(qq_points(fitted, values, upper_tail_only=True),
                         out / f"qq_{family}_tail.csv")
        write_density_overlay(fitted, values, out / f"density_{family}.csv")
        print(f"fit {family}: {json.dumps(fitted.params, sort_keys=True)}")
    return 0


def cmd_stopping_report(args) -> int:
    fit_paths = [p.strip() for p in args.fits.split(",") if p.strip()]
    if not fit_paths:
        raise ConfigError("at least one fit JSON is required")
    digest = _sha256(args.trace)
    fit_keys = ("jitter_sigma", "jitter_seed", "family", "parameters")
    payloads = [_read_json_object(path, "fit", fit_keys) for path in fit_paths]
    for path, payload in zip(fit_paths, payloads):
        if payload.get("trace_sha256") != digest:
            raise ConfigError(
                f"run-id mismatch: fit {path} was not produced from {args.trace}"
            )
        _check_fit_scalars(path, payload)
    sigmas = {payload["jitter_sigma"] for payload in payloads}
    seeds = {payload["jitter_seed"] for payload in payloads}
    if len(sigmas) != 1 or len(seeds) != 1:
        raise ConfigError("fits disagree on jitter parameters")

    jittered = _jittered_trace(args.trace, sigmas.pop(), seeds.pop())
    records = extract_records(jittered)

    reference = args.reference
    if args.reference_json is not None:
        if reference is not None:
            raise ConfigError("give either --reference or --reference-json")
        path = args.reference_json
        log_det = _read_json_object(path, "reference", ("log_det",))["log_det"]
        if not isinstance(log_det, (int, float)):
            raise InputFormatError(f"reference {path}: log_det is not a number")
        reference = float(log_det)

    fits = []
    for path, payload in zip(fit_paths, payloads):
        params = payload["parameters"]
        if not isinstance(params, dict) or not all(
            isinstance(v, (int, float)) for v in params.values()
        ):
            raise InputFormatError(
                f"fit {path}: parameters must be a JSON object of numbers"
            )
        try:
            fits.append(fitted_cdf_from_params(
                payload["family"], params, values=jittered.values,
                shift=payload.get("shift", 0.0), threshold=payload.get("threshold"),
                loglik=payload.get("loglik"), n_used=payload.get("n_used", 0),
            ))
        except ValueError as exc:
            raise InputFormatError(f"fit {path}: {exc}") from None
    epsilons = DEFAULT_EPSILONS
    if args.epsilons:
        epsilons = tuple(float(e) for e in args.epsilons.split(","))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seen = {}
    for report in build_stopping_report(records, fits, epsilons, reference):
        tag = report.model
        if tag in seen:
            seen[tag] += 1
            tag = f"{tag}_{seen[report.model]}"
        else:
            seen[tag] = 1
        write_stopping_csv(report, out / f"stopping_{tag}.csv")
        last = report.rows[-1]
        wait = "inf" if last.expected_wait == float("inf") else f"{last.expected_wait:.4g}"
        print(f"{report.model}: {records.count} records, "
              f"final expected wait {wait} ({report.increment_mode} increments)")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="dppdesign", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-kernel", help="write a synthetic kernel matrix")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--lengthscale", type=float, default=0.5)
    g.add_argument("--nugget", type=float, default=1e-6)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_kernel)

    s = sub.add_parser("solve", help="run one search method")
    s.add_argument("--config", help="flat key=value config file; flags override")
    s.add_argument("--kernel", help="matrix file path")
    s.add_argument("--synth-n", dest="synth_n", type=int)
    s.add_argument("--lengthscale", type=float)
    s.add_argument("--nugget", type=float)
    s.add_argument("--kernel-seed", dest="kernel_seed", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--method", choices=tuple(METHODS))
    s.add_argument("--max-iters", dest="max_iters", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--stop", action="store_true",
                   help="enable the stopping policy with default fields")
    s.add_argument("--stop-epsilon", dest="stop_epsilon", type=float)
    s.add_argument("--stop-delta", dest="stop_delta", type=float)
    s.add_argument("--stop-max-wait", dest="stop_max_wait", type=float)
    s.add_argument("--stop-check-every", dest="stop_check_every", type=int)
    s.add_argument("--ga-population", dest="ga_population", type=int, default=100)
    s.add_argument("--ga-pcross", dest="ga_pcross", type=float, default=0.75)
    s.add_argument("--ga-pmutprop", dest="ga_pmutprop", type=float, default=0.2)
    s.add_argument("--ga-pmut", dest="ga_pmut", type=float, default=0.05)
    s.add_argument("--ga-elite", dest="ga_elite", type=float, default=0.1)
    s.add_argument("--ga-tournament", dest="ga_tournament", type=int, default=4)
    s.add_argument("--out-dir", dest="out_dir", required=True)
    s.set_defaults(func=cmd_solve)

    a = sub.add_parser("analyze-records", help="extract records from a trace")
    a.add_argument("--trace", required=True)
    a.add_argument("--sigma", type=float, default=1e-8,
                   help="jitter noise scale; 0 skips jittering")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out-dir", dest="out_dir", required=True)
    a.set_defaults(func=cmd_analyze_records)

    f = sub.add_parser("fit-tail", help="fit tail models to a jittered trace")
    f.add_argument("--trace", required=True)
    f.add_argument("--threshold-quantile", dest="threshold_quantile",
                   type=float, default=0.9)
    f.add_argument("--families", default=",".join(FAMILIES))
    f.add_argument("--sigma", type=float, default=1e-8)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out-dir", dest="out_dir", required=True)
    f.set_defaults(func=cmd_fit_tail)

    r = sub.add_parser("stopping-report", help="Tables-style stopping report")
    r.add_argument("--trace", required=True)
    r.add_argument("--fits", required=True,
                   help="comma-separated fit JSON paths from fit-tail")
    r.add_argument("--epsilons", help="comma-separated increment fractions")
    r.add_argument("--reference", type=float,
                   help="reference value, e.g. the greedy objective")
    r.add_argument("--reference-json",
                   dest="reference_json", help="best.json holding the reference")
    r.add_argument("--out-dir", dest="out_dir", required=True)
    r.set_defaults(func=cmd_stopping_report)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        hint = ""
        if "tie" in str(exc):
            hint = " (re-run with a positive --sigma to jitter the trace)"
        print(f"numeric error: {exc}{hint}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
