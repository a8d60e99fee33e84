"""Command-line workflows: gen-kernel, solve, analyze-records, fit-tail,
stopping-report.

Exit codes: 0 success, 1 configuration, 2 input/output, 3 numeric, 4 budget.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .errors import (
    BudgetError,
    ConfigError,
    DesignError,
    InputFormatError,
    NumericError,
    TieError,
)
from .kernels import load_kernel, save_kernel, synth_kernel
from .records import JitterConfig, expected_record_count, extract_records, jitter_trace, write_record_log
from .search import (
    GaConfig,
    best_subset,
    dpp_search,
    exchange_refine,
    exhaustive_search,
    genetic_search,
    greedy_backward,
    greedy_forward,
)
from .stopping import (
    DEFAULT_EPSILONS,
    StoppingPolicy,
    build_stopping_report,
    write_policy_csv,
    write_stopping_csv,
)
from .tails import (
    FittedCdf,
    _is_number,
    _write_qq,
    fit_censored_weibull,
    fit_comparators,
    fit_gpd_pot,
    fitted_cdf_from_cens_weibull,
    fitted_cdf_from_gpd,
    qq_points,
    write_density_overlay,
    write_fit_report,
)
from .textio import read_text, write_json
from .trace import SampleTrace, read_trace, write_trace

FAMILIES = ("gpd", "cens_weibull", "weibull", "lognormal")

# solve key (flag dest and config-file key) -> (cast, default)
_SOLVE_KEYS = {
    "kernel": (str, None), "k": (int, None), "method": (str, None),
    "max_iters": (int, 10_000), "seed": (int, 0), "workers": (int, os.cpu_count() or 1),
    "stop_epsilon": (float, None), "stop_delta": (float, None),
    "stop_max_wait": (float, None), "stop_check_every": (int, None),
}
# solve flag dest -> StoppingPolicy field
_STOP_FIELDS = {
    "stop_epsilon": "epsilon", "stop_delta": "delta",
    "stop_max_wait": "max_expected_wait", "stop_check_every": "check_every",
}
# solve flag dest -> GaConfig field; each flag takes the field's default
_GA_FIELDS = {
    "ga_population": "population", "ga_pcross": "p_cross", "ga_pmutprop": "p_mutprop",
    "ga_pmut": "p_mut", "ga_elite": "elite_fraction", "ga_tournament": "tournament_size",
}


def _one_row(design):
    return SampleTrace([1], [design.log_det], [design.indices])


# method -> search(K, args, stopping policy) returning its trace
METHODS = {
    "dpp": lambda K, a, policy: dpp_search(K, a.k, a.max_iters, seed=a.seed,
                                           stop=policy, workers=a.workers),
    "greedy": lambda K, a, policy: _one_row(greedy_forward(K, a.k)),
    "greedy-backward": lambda K, a, policy: _one_row(greedy_backward(K, a.k)),
    "exchange": lambda K, a, policy: _one_row(exchange_refine(K, greedy_forward(K, a.k))),
    "ga": lambda K, a, policy: genetic_search(K, a.k, GaConfig(
        generations=a.max_iters, **{field: getattr(a, flag) for flag, field in _GA_FIELDS.items()}
    ), seed=a.seed),
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
    """Flat key=value lines, each key one of _SOLVE_KEYS; # lines are comments."""
    cfg = {}
    for ln in read_text(path, "config").split("\n"):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ConfigError(f"bad config line: {ln!r}")
        key, val = (part.strip() for part in ln.split("=", 1))
        if key not in _SOLVE_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        try:
            cfg[key] = _SOLVE_KEYS[key][0](val)
        except ValueError:
            raise ConfigError(f"bad value {val!r} for config key {key!r} in {path}") from None
    return cfg


def _read_json_object(path, what, keys) -> dict:
    """JSON object from path holding every key in keys; anything else is
    an input error that names the file."""
    try:
        payload = json.loads(read_text(path, what))
    except ValueError as exc:
        raise InputFormatError(f"bad {what} JSON {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise InputFormatError(f"{what} {path} is not a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise InputFormatError(f"{what} {path} lacks {', '.join(missing)}")
    return payload


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
    for key, (_, default) in _SOLVE_KEYS.items():
        if getattr(args, key) is None:
            setattr(args, key, file_cfg.get(key, default))
    if args.kernel is None or args.k is None or args.method is None:
        raise ConfigError("--kernel, --k and --method are required")
    if args.method not in METHODS:
        raise ConfigError(f"unknown method {args.method!r}")

    K = load_kernel(args.kernel)
    if args.method in ("dpp", "ga") and args.max_iters < 1:
        raise ConfigError(f"max_iters must be positive, got {args.max_iters}")

    stop_kwargs = {field: getattr(args, flag) for flag, field in _STOP_FIELDS.items()
                   if getattr(args, flag) is not None}
    policy = StoppingPolicy(**stop_kwargs) if args.stop or stop_kwargs else None

    t0 = time.perf_counter()
    trace = METHODS[args.method](K, args, policy)
    best = best_subset(K, trace)
    wall = time.perf_counter() - t0

    # Every setting that can change the output, even one the method ignores; the
    # kernel counts by its bytes, the stop flags by the policy they resolve to,
    # and workers not, as traces do not depend on it.
    config = {key: getattr(args, key) for key in (*_SOLVE_KEYS, *_GA_FIELDS)
              if key not in ("kernel", "workers", *_STOP_FIELDS)}
    config["stop"] = None if policy is None else dataclasses.asdict(policy)
    config["kernel_sha256"] = _sha256(args.kernel)
    run_id = _run_id(config)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(trace, out / "trace.csv")
    write_json(out / "best.json", {
        "method": args.method, "k": args.k, "n": K.dim,
        "indices": list(best.indices), "log_det": best.log_det,
        "seed": args.seed, "run_id": run_id,
    })
    meta = {
        "run_id": run_id, "config": config, "kernel": args.kernel,
        "version": __version__, "workers": args.workers,
        "stopped_at": trace.stopped_at, "wall_time_s": wall,
        "timestamp": time.time(),
    }
    if trace.policy_checks is not None:
        write_policy_csv(trace.policy_checks, out / "policy.csv")
        meta["policy_checks"] = len(trace.policy_checks)
    write_json(out / "run_meta.json", meta)
    print(f"{args.method}: log_det {best.log_det:.6f} at {list(best.indices)}")
    if trace.stopped_at is not None:
        print(f"stopping policy fired at iteration {trace.stopped_at}")
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
    write_json(out / "records_summary.json", {
        "observed_records": records.count,
        "expected_records": mean,
        "record_count_variance": var,
        "trace_length": jittered.n,
        "jitter_sigma": args.sigma,
        "jitter_seed": args.seed,
    })
    print(f"records: observed {records.count}, expected {mean:.2f} "
          f"over {jittered.n} iterations")
    return 0


def cmd_fit_tail(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ConfigError("at least one family is required")
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

    q = args.threshold_quantile
    comparators = {}
    sample = None  # the sorted sample and its cells, formatted once for every QQ file
    for family in families:
        if family == "gpd":
            fitted = fitted_cdf_from_gpd(fit_gpd_pot(values, q), values)
        elif family == "cens_weibull":
            fitted = fitted_cdf_from_cens_weibull(fit_censored_weibull(values, q))
        else:
            comparators = comparators or {f.family: f for f in fit_comparators(values)}
            fitted = comparators[family]
        write_fit_report(fitted, out / f"fit_{family}.json", meta)
        sample = _write_qq(qq_points(fitted, values), out / f"qq_{family}_full.csv", sample)
        if fitted.threshold is not None:
            _write_qq(qq_points(fitted, values, upper_tail_only=True),
                      out / f"qq_{family}_tail.csv", sample)
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
            raise ConfigError(f"trace mismatch: fit {path} was made from a "
                              f"different trace file than {args.trace}")
        # Jitter scalars are checked before they reach the jitter stream;
        # FittedCdf checks the model's own.
        sigma, seed = payload["jitter_sigma"], payload["jitter_seed"]
        if not (_is_number(sigma) and sigma >= 0):
            raise InputFormatError(f"fit {path}: jitter_sigma must be a number >= 0")
        # Any integer seeds a stream (fit-tail --seed accepts negative ones).
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InputFormatError(f"fit {path}: jitter_seed must be an integer")
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
        if not _is_number(log_det):
            raise InputFormatError(f"reference {path}: log_det is not a finite number")
        reference = float(log_det)

    fits = []
    for path, payload in zip(fit_paths, payloads):
        params = payload["parameters"]
        if not isinstance(params, dict):
            raise InputFormatError(f"fit {path}: parameters must be a JSON object")
        try:
            fits.append(FittedCdf(
                payload["family"], params, shift=payload.get("shift", 0.0),
                threshold=payload.get("threshold"), loglik=payload.get("loglik"),
                n_used=payload.get("n_used", 0), sample=jittered.values,
            ))
        except ValueError as exc:
            raise InputFormatError(f"fit {path}: {exc}") from None
    epsilons = DEFAULT_EPSILONS
    if args.epsilons:
        epsilons = tuple(float(e) for e in args.epsilons.split(","))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seen = Counter()
    for report in build_stopping_report(records, fits, epsilons, reference):
        seen[report.model] += 1
        tag = report.model if seen[report.model] == 1 else f"{report.model}_{seen[report.model]}"
        write_stopping_csv(report, out / f"stopping_{tag}.csv")
        last = report.rows[-1]
        print(f"{report.model}: {records.count} records, final expected wait "
              f"{last.expected_wait:.4g} ({report.increment_mode} increments)")
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
    extra = {"kernel": {"help": "matrix file path"}, "method": {"choices": tuple(METHODS)}}
    for key, (cast, _) in _SOLVE_KEYS.items():
        s.add_argument("--" + key.replace("_", "-"), type=cast, **extra.get(key, {}))
    s.add_argument("--stop", action="store_true",
                   help="enable the stopping policy with default fields")
    for flag, field in _GA_FIELDS.items():
        default = getattr(GaConfig, field)
        s.add_argument("--" + flag.replace("_", "-"), type=type(default), default=default)
    s.add_argument("--out-dir", dest="out_dir", required=True)
    s.set_defaults(func=cmd_solve)

    # flags shared by the trace commands
    trace_io = argparse.ArgumentParser(add_help=False)
    trace_io.add_argument("--trace", required=True)
    trace_io.add_argument("--out-dir", dest="out_dir", required=True)
    jitter = argparse.ArgumentParser(add_help=False)
    jitter.add_argument("--sigma", type=float, default=JitterConfig.sigma,
                        help="jitter noise scale; 0 skips jittering")
    jitter.add_argument("--seed", type=int, default=JitterConfig.seed)

    a = sub.add_parser("analyze-records", parents=[trace_io, jitter],
                       help="extract records from a trace")
    a.set_defaults(func=cmd_analyze_records)

    f = sub.add_parser("fit-tail", parents=[trace_io, jitter],
                       help="fit tail models to a jittered trace")
    f.add_argument("--threshold-quantile", dest="threshold_quantile",
                   type=float, default=0.9)
    f.add_argument("--families", default=",".join(FAMILIES))
    f.set_defaults(func=cmd_fit_tail)

    r = sub.add_parser("stopping-report", parents=[trace_io],
                       help="Tables-style stopping report")
    r.add_argument("--fits", required=True,
                   help="comma-separated fit JSON paths from fit-tail")
    r.add_argument("--epsilons", help="comma-separated increment fractions")
    r.add_argument("--reference", type=float,
                   help="reference value, e.g. the greedy objective")
    r.add_argument("--reference-json",
                   dest="reference_json", help="best.json holding the reference")
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
        if isinstance(exc, TieError):
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
