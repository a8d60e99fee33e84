"""Search strategies for the max-log-determinant subset problem.

Exact desk-scale enumeration, deterministic greedy construction (forward
and backward), one-swap exchange refinement, a genetic algorithm, and the
sampling search that repeatedly draws fixed-size DPP subsets and tracks
the best objective seen.  Ties break toward the lexicographically
smallest subset everywhere so results are reproducible.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .dpp import batch_log_dets, elementary_table, sample_k_batch, _combination_chunks
from .errors import CombinatorialBudgetError, RankDeficientError
from .kernels import (
    DesignSubset,
    KernelMatrix,
    design_subset,
    eigendecompose,
    _logdet_psd,
    _logdet_psd_stack,
)
from .trace import SampleTrace

_EXHAUSTIVE_BUDGET = 10**7
# Bytes of the (B, k, n) basis stack that one sampler chunk may use.
_SAMPLER_WORKSPACE = 2**19


def _logdet(entries: np.ndarray, idx) -> float:
    return _logdet_psd(entries[np.ix_(idx, idx)])


def greedy_forward(K: KernelMatrix, k: int) -> DesignSubset:
    """Grow a subset one site at a time, maximizing the objective each step."""
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries
    chosen: list = []
    for _ in range(k):
        best_val, best_s = -np.inf, None
        for s in range(n):
            if s in chosen:
                continue
            val = _logdet(entries, sorted(chosen + [s]))
            if val > best_val:
                best_val, best_s = val, s
        chosen.append(best_s)
    return design_subset(K, sorted(chosen))


def greedy_backward(K: KernelMatrix, k: int) -> DesignSubset:
    """Start from all sites and repeatedly delete the least valuable one.

    Ties remove the highest index, so the kept set is lexicographically
    smallest.
    """
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries
    kept = list(range(n))
    for _ in range(n - k):
        best_val, best_l = -np.inf, None
        for l in kept:
            val = _logdet(entries, [i for i in kept if i != l])
            if val > best_val or (val == best_val and l > best_l):
                best_val, best_l = val, l
        kept.remove(best_l)
    return design_subset(K, kept)


def exchange_refine(K: KernelMatrix, start: DesignSubset) -> DesignSubset:
    """Apply improving one-swaps until none exists.

    Each accepted swap strictly increases the objective, so the loop
    terminates; the result is a one-swap local optimum.
    """
    n = K.dim
    entries = K.entries
    current = list(start.indices)
    current_val = start.log_det
    improved = True
    while improved:
        improved = False
        inside = set(current)
        best_gain, best_move = 0.0, None
        for l in current:
            for s in range(n):
                if s in inside:
                    continue
                cand = sorted([i for i in current if i != l] + [s])
                val = _logdet(entries, cand)
                gain = val - current_val
                if gain > best_gain:
                    best_gain, best_move = gain, (l, s, val)
        if best_move is not None:
            l, s, val = best_move
            current = sorted([i for i in current if i != l] + [s])
            current_val = val
            improved = True
    return design_subset(K, current)


def exhaustive_search(K: KernelMatrix, k: int) -> DesignSubset:
    """Global optimum by full enumeration; guarded at C(n, k) <= 1e7."""
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    total = math.comb(n, k)
    if total > _EXHAUSTIVE_BUDGET:
        raise CombinatorialBudgetError(
            f"budget exceeded: C({n},{k}) = {total} > {_EXHAUSTIVE_BUDGET}"
        )
    best_val, best_subset = -np.inf, None
    for combos in _combination_chunks(n, k, 100_000):
        ld = batch_log_dets(K.entries, combos)
        i = int(np.argmax(ld))
        # Strict > keeps the earliest maximizer, i.e. the lexicographically
        # smallest subset, since enumeration is in lexicographic order.
        if ld[i] > best_val:
            best_val, best_subset = float(ld[i]), tuple(int(x) for x in combos[i])
    if best_subset is None or not np.isfinite(best_val):
        raise RankDeficientError("every size-k principal minor is singular")
    return design_subset(K, best_subset)


# ---------------------------------------------------------------------------
# Genetic algorithm


@dataclass
class GaConfig:
    """Tuning knobs for the genetic search.

    Defaults follow common practice for this problem family: population
    100, crossover proportion 0.75, per-site mutation rate 0.05, tournament
    of four; mutation-pool proportion 0.2 and elite fraction 0.1.
    """

    population: int = 100
    p_cross: float = 0.75
    p_mutprop: float = 0.2
    p_mut: float = 0.05
    elite_fraction: float = 0.1
    tournament_size: int = 4
    generations: int = 100

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        for name in ("p_cross", "p_mutprop", "p_mut", "elite_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")
        if self.population < self.tournament_size:
            raise ValueError("population must be >= tournament_size")
        if self.generations < 1:
            raise ValueError("generations must be positive")


def _tournament(rng, fitness: np.ndarray, size: int) -> int:
    contenders = rng.integers(0, fitness.size, size=size)
    return int(contenders[int(np.argmax(fitness[contenders]))])


def _crossover(rng, a: tuple, b: tuple, k: int) -> tuple:
    shared = sorted(set(a) & set(b))
    pool = sorted(set(a) ^ set(b))
    need = k - len(shared)
    if need:
        picks = rng.permutation(len(pool))[:need]
        shared += [pool[i] for i in picks]
    return tuple(sorted(shared))


def _mutate(rng, individual: tuple, n: int, p_mut: float) -> tuple:
    inside = list(individual)
    outside = sorted(set(range(n)) - set(inside))
    if not outside:
        return individual
    for pos in range(len(inside)):
        if rng.random() < p_mut:
            oi = int(rng.integers(len(outside)))
            inside[pos], outside[oi] = outside[oi], inside[pos]
    return tuple(sorted(inside))


def genetic_search(K: KernelMatrix, k: int, cfg: GaConfig | None = None,
                   seed: int = 0, initial_population=None) -> SampleTrace:
    """Evolve a population of k-subsets; returns the per-generation trace.

    Trace entry 1 is the best of the initial population, entry g+1 the
    best after generation g.  Elitism makes the per-generation best
    non-decreasing.
    """
    cfg = cfg or GaConfig()
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries

    def fit_of(s):
        return _logdet(entries, list(s))

    init_rng = streams.stream(seed, streams.DOMAIN_GA, 0)
    if initial_population is not None:
        pop = [tuple(sorted(int(i) for i in ind)) for ind in initial_population]
        if len(pop) != cfg.population or any(len(set(p)) != k for p in pop):
            raise ValueError("initial population must hold distinct k-subsets")
    else:
        pop = [
            tuple(sorted(init_rng.permutation(n)[:k].tolist()))
            for _ in range(cfg.population)
        ]
    fitness = np.array([fit_of(p) for p in pop])

    iters, vals, subs = [1], [], []
    best_i = int(np.argmax(fitness))
    vals.append(float(fitness[best_i]))
    subs.append(pop[best_i])

    n_elite = max(1, round(cfg.elite_fraction * cfg.population))
    for gen in range(1, cfg.generations + 1):
        rng = streams.stream(seed, streams.DOMAIN_GA, gen)

        # Crossover: tournament-select a p_cross proportion, pair them up.
        n_cross = round(cfg.p_cross * cfg.population)
        parents = [
            pop[_tournament(rng, fitness, cfg.tournament_size)]
            for _ in range(n_cross)
        ]
        children = []
        for a, b in zip(parents[0::2], parents[1::2]):
            children.append(_crossover(rng, a, b, k))
            children.append(_crossover(rng, b, a, k))

        # Mutation: an equal-probability p_mutprop proportion of the
        # population spawns mutated copies.
        n_mut = round(cfg.p_mutprop * cfg.population)
        mut_idx = rng.permutation(cfg.population)[:n_mut]
        mutants = [_mutate(rng, pop[i], n, cfg.p_mut) for i in mut_idx]

        aug = pop + children + mutants
        aug_fit = np.concatenate(
            [fitness, np.array([fit_of(s) for s in children + mutants])]
        ) if children or mutants else fitness.copy()

        # Selection: elites pass through, the rest come from tournaments.
        order = sorted(range(len(aug)), key=lambda i: (-aug_fit[i], aug[i]))
        new_pop = [aug[i] for i in order[:n_elite]]
        new_fit = [aug_fit[i] for i in order[:n_elite]]
        while len(new_pop) < cfg.population:
            i = _tournament(rng, aug_fit, cfg.tournament_size)
            new_pop.append(aug[i])
            new_fit.append(aug_fit[i])
        pop = new_pop
        fitness = np.array(new_fit)

        best_i = int(np.argmax(fitness))
        iters.append(gen + 1)
        vals.append(float(fitness[best_i]))
        subs.append(pop[best_i])

    return SampleTrace(iters, vals, subs)


# ---------------------------------------------------------------------------
# Sampling-based search


def _run_range(entries, eig, table, k, seed, lo, hi):
    """Sample iterations lo..hi inclusive; each owns stream (seed, i).

    Iterations are drawn in chunks of B rows, sized so the sampler's basis
    stack stays within _SAMPLER_WORKSPACE; rows are independent, so the
    chunking never changes a draw.
    """
    iters = np.arange(lo, hi + 1, dtype=np.int64)
    vals = np.empty(iters.size)
    subs = np.empty((iters.size, k), dtype=np.int64)
    dealer = streams.StreamDealer(seed, streams.DOMAIN_SEARCH)
    B = max(1, min(iters.size, _SAMPLER_WORKSPACE // (8 * k * eig.n)))
    U = np.empty((B, eig.n + k))
    for a in range(0, iters.size, B):
        b = min(a + B, iters.size)
        u = U[:b - a]
        for row, i in enumerate(range(lo + a, lo + b)):
            dealer.rng(i).random(out=u[row])
        idx = subs[a:b] = sample_k_batch(eig, k, u, table)
        vals[a:b] = _logdet_psd_stack(entries[idx[:, :, None], idx[:, None, :]])
    return iters, vals, subs


def _split_ranges(lo: int, hi: int, parts: int):
    total = hi - lo + 1
    parts = max(1, min(parts, total))
    step = total // parts
    extra = total % parts
    start = lo
    for p in range(parts):
        size = step + (1 if p < extra else 0)
        yield start, start + size - 1
        start += size


def _policy_fires(iterations, values, subsets, seed, policy) -> bool:
    """Evaluate the stopping policy on the trace prefix collected so far.

    A prefix the policy cannot evaluate (too few exceedances, a failed
    fit) does not stop the run; the reason is logged at DEBUG.
    """
    import logging

    from .records import JitterConfig, extract_records, jitter_trace
    from .stopping import evaluate_latest_record, should_stop
    from .tails import fit_gpd_pot, fitted_cdf_from_gpd
    from .errors import DesignError

    try:
        prefix = SampleTrace(iterations, values, subsets)
        jittered = jitter_trace(prefix, JitterConfig(seed=seed))
        records = extract_records(jittered)
        fit = fit_gpd_pot(jittered.values, 0.9)
        fitted = fitted_cdf_from_gpd(fit, jittered.values)
        row = evaluate_latest_record(records, fitted, (policy.epsilon,))
        return should_stop(policy, row)
    except DesignError as exc:
        logging.getLogger(__name__).debug(
            "stopping policy not evaluated at prefix length %d: %s", len(values), exc
        )
        return False


def dpp_search(K: KernelMatrix, k: int, max_iters: int, seed: int = 0,
               stop=None, workers: int = 1) -> SampleTrace:
    """Repeatedly sample fixed-size DPP subsets and score each one.

    Every iteration draws from its own counter-derived stream, so the
    trace is identical for any worker count and any partitioning.  When a
    stopping policy is supplied it is evaluated on the accumulated trace
    every `check_every` iterations and the trace is truncated at the
    checkpoint where the policy fires.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    eig = eigendecompose(K)
    if int(np.count_nonzero(eig.eigenvalues > 0)) < k:
        raise RankDeficientError(
            f"rank deficient: fewer than {k} positive eigenvalues"
        )
    table = elementary_table(eig.eigenvalues, k)
    entries = K.entries

    block = stop.check_every if stop is not None else max_iters
    all_iters, all_vals, all_subs = [], [], []
    stopped_at = None

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        lo = 1
        while lo <= max_iters:
            hi = min(lo + block - 1, max_iters)
            if pool is None:
                results = [_run_range(entries, eig, table, k, seed, lo, hi)]
            else:
                futures = [
                    pool.submit(_run_range, entries, eig, table, k, seed, a, b)
                    for a, b in _split_ranges(lo, hi, workers)
                ]
                results = [f.result() for f in futures]
            for iters, vals, subs in results:
                all_iters.append(iters)
                all_vals.append(vals)
                all_subs.append(subs)
            if stop is not None and _policy_fires(
                np.concatenate(all_iters), np.concatenate(all_vals),
                np.concatenate(all_subs).tolist(), seed, stop,
            ):
                stopped_at = hi
                break
            lo = hi + 1
    finally:
        if pool is not None:
            pool.shutdown()

    trace = SampleTrace(
        np.concatenate(all_iters),
        np.concatenate(all_vals),
        np.concatenate(all_subs).tolist(),
    )
    trace.stopped_at = stopped_at
    return trace


def best_subset(K: KernelMatrix, trace: SampleTrace) -> DesignSubset:
    """DesignSubset for the best entry of a trace."""
    _, _, sub = trace.best()
    return design_subset(K, sub)


def default_workers() -> int:
    return os.cpu_count() or 1
