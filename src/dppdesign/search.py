"""Search strategies for the max-log-determinant subset problem.

Exact desk-scale enumeration, deterministic greedy construction (forward
and backward), one-swap exchange refinement, a genetic algorithm, and the
sampling search that repeatedly draws fixed-size DPP subsets and tracks
the best objective seen.  Ties break toward the lexicographically
smallest subset everywhere so results are reproducible.

Forward, backward and exchange score candidates by rank-one determinant
updates but choose exactly as if each candidate's sorted index set had
been scored by _logdet_psd: forward adds the lowest index among ties,
backward deletes the highest, and exchange takes the first (removed,
added) pair in index order and accepts it only if its exact gain is
positive.  The candidates whose rank-one score lies within a gap of the
best (_RESCORE_RTOL times the kernel's condition estimate, far above the
updates' rounding) are scored again by _logdet_psd and compared by that
rule; a lone candidate in the gap needs no re-score, except in exchange,
which needs its exact gain.  Rank-one scores are used only when _certify
shows that no principal submatrix can fail _logdet_psd's pivot check;
otherwise every candidate is scored exactly, so SingularSubmatrixError
arises on the same inputs as under per-candidate scoring.
"""

import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .dpp import batch_log_dets, elementary_table, sample_k_batch, _combination_chunks
from .errors import CombinatorialBudgetError, DesignError, RankDeficientError
from .kernels import (
    _PIVOT_RTOL,
    DesignSubset,
    KernelMatrix,
    design_subset,
    eigendecompose,
    _logdet_psd_stack,
    _validate_subset,
)
from .records import JitterConfig, RunningPrefix, jitter_noise
from .stopping import PolicyCheck, evaluate_latest_record, should_stop
from .tails import fit_gpd_sorted, fitted_cdf_from_gpd
from .trace import SampleTrace

_EXHAUSTIVE_BUDGET = 10**7
# Bytes of a sampler chunk's (B, k, n) item stack; its (B, k, k) directions add k/n.
_SAMPLER_WORKSPACE = 2**19
# Bytes of candidate submatrices that one exact scoring call may build.
_RESCORE_WORKSPACE = 2**18
# A kernel certifies its principal submatrices when every pivot of its
# index-order Cholesky factor exceeds this multiple of _PIVOT_RTOL times
# its largest diagonal entry.
_CERTIFY_MARGIN = 1e3
# Rank-one scores within this many units of the certified condition
# estimate (largest diagonal entry over smallest pivot) of the best, in
# log-determinant, are re-scored exactly.
_RESCORE_RTOL = 1e-10
# Blocks dpp_search keeps in its pool past the one it awaits.
_AHEAD = 2
# Deletions greedy_backward accumulates before applying them to its
# inverse in one matrix product.
_DOWNDATE_BLOCK = 32


def _certify(a: np.ndarray):
    """Lower Cholesky factor of a and the re-score tolerance, or
    (None, None) when a principal submatrix of a may fail _logdet_psd.

    In a principal submatrix taken in index order, the pivot of site t is
    its residual variance given some of the sites before it, so it is at
    least t's pivot in the factor of a, which conditions on all of them.
    Pivots above the margin therefore certify that _logdet_psd accepts
    every principal submatrix of a.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None, None
    pivot = float((np.diagonal(chol) ** 2).min())
    top = float(a.diagonal().max())
    if not pivot >= _CERTIFY_MARGIN * _PIVOT_RTOL * top:
        return None, None
    return chol, _RESCORE_RTOL * top / pivot


def _exact_scores(entries: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """_logdet_psd of entries[T, T] for each increasing row T of sets."""
    m, j = sets.shape
    step = max(1, _RESCORE_WORKSPACE // (8 * j * j))
    return np.concatenate([
        _logdet_psd_stack(entries[c[:, :, None], c[:, None, :]])
        for c in (sets[a:a + step] for a in range(0, m, step))
    ])


def _near(ratio: np.ndarray, tol: float) -> np.ndarray:
    """Positions whose determinant ratio is within tol (in log) of the best."""
    top = ratio.max()
    return np.flatnonzero(ratio >= top * math.exp(-tol)) if top > 0 else np.arange(ratio.size)


def _drop_each(kept: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """One row per position p: kept without its p-th entry."""
    cols = np.arange(kept.size - 1)
    return kept[cols + (cols >= pos[:, None])]


def greedy_forward(K: KernelMatrix, k: int) -> DesignSubset:
    """Grow a subset one site at a time, maximizing the objective each step.

    Ties take the lowest index.  The gain of site s is the residual
    variance d2[s] of s given the chosen sites, kept by one incremental
    Cholesky row per pick (Chen, Zhang & Zhou 2018): O(n k^2) in total.
    """
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries
    _, tol = _certify(entries)
    c = np.empty((k, n))
    d2 = entries.diagonal().copy()
    free = np.ones(n, dtype=bool)
    chosen = np.empty(0, dtype=np.intp)
    for j in range(k):
        cands = np.flatnonzero(free)
        if tol is not None:
            cands = cands[_near(d2[cands], tol)]
        if cands.size > 1:
            sets = np.sort(np.column_stack([np.broadcast_to(chosen, (cands.size, j)), cands]), axis=1)
            cands = cands[[int(np.argmax(_exact_scores(entries, sets)))]]
        s = int(cands[0])
        chosen = np.append(chosen, s)
        free[s] = False
        if tol is not None and d2[s] > 0:
            c[j] = (entries[s] - c[:j, s] @ c[:j]) / math.sqrt(d2[s])
            d2 -= c[j] * c[j]
        else:
            tol = None  # rounding ate the residual: score exactly from here
    return design_subset(K, chosen)


def _deletion(entries: np.ndarray, kept: np.ndarray, pos: np.ndarray) -> int:
    """The position in pos whose deletion from kept leaves the largest
    exact log-det; ties take the highest position."""
    if pos.size == 1:
        return int(pos[0])
    vals = _exact_scores(entries, _drop_each(kept, pos))
    return int(pos[vals.size - 1 - int(np.argmax(vals[::-1]))])


def greedy_backward(K: KernelMatrix, k: int) -> DesignSubset:
    """Start from all sites and repeatedly delete the least valuable one.

    Ties remove the highest index, so the kept set is lexicographically
    smallest.  det(K[S - l]) = det(K[S]) * A[l, l] with A = K[S]^-1, so
    the deletion is the argmax of A's diagonal.  Each deletion downdates
    A by one Schur complement: the diagonal at once, the rest in blocks
    of _DOWNDATE_BLOCK deletions applied as one matrix product.  O(n^3)
    in total.
    """
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries
    kept = np.arange(n)
    chol, tol = _certify(entries)
    while chol is None and kept.size > k:
        kept = np.delete(kept, _deletion(entries, kept, np.arange(kept.size)))
        chol, tol = _certify(entries[np.ix_(kept, kept)])
    if kept.size > k:
        half = np.linalg.solve(chol, np.eye(kept.size))
        inv = half.T @ half
        del chol, half
    while kept.size > k:
        # Within a block, inv stays fixed and the deletions so far are the
        # columns of cols over pivots piv: A = inv - cols diag(1/piv) cols'.
        steps = min(_DOWNDATE_BLOCK, kept.size - k)
        cols, piv = np.empty((kept.size, steps)), np.empty(steps)
        diag = inv.diagonal().copy()
        alive = np.ones(kept.size, dtype=bool)
        for t in range(steps):
            live = np.flatnonzero(alive)
            pos = _deletion(entries, kept[live], _near(diag[live], tol))
            p = int(live[pos])
            cols[:, t] = inv[:, p] - cols[:, :t] @ (cols[p, :t] / piv[:t])
            piv[t] = cols[p, t]
            diag -= cols[:, t] ** 2 / piv[t]
            alive[p] = False
        kept, scaled = kept[alive], cols[alive] / piv
        inv = inv[np.ix_(alive, alive)]
        inv -= scaled @ cols[alive].T
    return design_subset(K, kept)


def exchange_refine(K: KernelMatrix, start: DesignSubset) -> DesignSubset:
    """Apply improving one-swaps until none exists.

    Each accepted swap strictly increases the objective, so the loop
    terminates; the result is a one-swap local optimum.  Among the swaps
    with the largest gain, the first in (removed site, added site) order
    wins.  Each sweep scores all k (n - k) swaps at once from A = K[S]^-1
    (Fedorov's exchange): det(K[S - l + s]) / det(K[S]) =
    A[l, l] (K[s, s] - k_s' A k_s) + (a_l' k_s)^2.
    """
    n = K.dim
    entries = K.entries
    start = design_subset(K, start.indices)
    current, current_val = np.array(start.indices), start.log_det
    _, tol = _certify(entries)
    while current.size < n:
        outside = np.setdiff1d(np.arange(n), current)
        m = current.size
        if tol is None:
            near = np.arange(m * outside.size)
        else:
            # With L the Cholesky factor of K[S], [L^-1 | L^-1 K[S, out]]
            # gives A's diagonal as column norms, and both terms of the ratio.
            half = np.linalg.solve(np.linalg.cholesky(entries[np.ix_(current, current)]),
                                   np.hstack([np.eye(m), entries[np.ix_(current, outside)]]))
            inv_half, w = half[:, :m], half[:, m:]
            resid = entries.diagonal()[outside] - (w * w).sum(axis=0)
            cross = inv_half.T @ w
            near = _near(np.outer((inv_half * inv_half).sum(axis=0), resid) + cross * cross, tol)
        l, s = np.divmod(near, outside.size)
        sets = np.sort(np.column_stack([_drop_each(current, l), outside[s]]), axis=1)
        vals = _exact_scores(entries, sets)
        gains = vals - current_val
        b = int(np.argmax(gains))
        if not gains[b] > 0.0:
            break
        current, current_val = sets[b], float(vals[b])
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
        for name, low in (("population", 2), ("tournament_size", 1), ("generations", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("p_cross", "p_mutprop", "p_mut", "elite_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.population < self.tournament_size:
            raise ValueError("population must be >= tournament_size")


def _tournaments(rng, fitness: np.ndarray, count: int, size: int) -> np.ndarray:
    """Winners of count tournaments among size uniform contenders each; a
    tie goes to the first contender drawn.  One draw of count * size
    integers below 2**32 equals count draws of size, so the winners are
    those of count tournaments held one after another."""
    contenders = rng.integers(0, fitness.size, size=(count, size))
    return contenders[np.arange(count), np.argmax(fitness[contenders], axis=1)]


def _distinct_scores(entries: np.ndarray, sets: np.ndarray, known: np.ndarray) -> np.ndarray:
    """_exact_scores of every row of sets, of which the first known.size
    score known; a row's score does not depend on the rows scored with it,
    so only the first row of each kind outside those is scored."""
    rows = np.ascontiguousarray(sets)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    vals = np.empty(first.size)
    new = first >= known.size
    vals[~new] = known[first[~new]]
    if new.any():
        vals[new] = _exact_scores(entries, sets[first[new]])
    return vals[inverse]


def genetic_search(K: KernelMatrix, k: int, cfg: GaConfig | None = None,
                   seed: int = 0, initial_population=None) -> SampleTrace:
    """Evolve a population of k-subsets; returns the per-generation trace.

    Trace entry 1 is the best of the initial population, entry g+1 the
    best after generation g.  Elitism makes the per-generation best
    non-decreasing.

    Generation g draws from stream (seed, DOMAIN_GA, g), and the elites
    rank by value, then by subset.  The population is a (P, n) membership
    array; a generation scores its distinct offspring that are not in the
    population, in one Cholesky stack.
    """
    cfg = cfg or GaConfig()
    n, size, t = K.dim, cfg.population, cfg.tournament_size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    entries = K.entries

    if initial_population is None:
        init_rng = streams.stream(seed, streams.DOMAIN_GA, 0)
        initial_population = [init_rng.permutation(n)[:k] for _ in range(size)]
    rows = [_validate_subset(n, list(ind)) for ind in initial_population]
    if len(rows) != size or any(row.size != k for row in rows):
        raise ValueError("initial population must hold distinct k-subsets")
    index = np.sort(rows, axis=1)
    member = np.zeros((size, n), dtype=bool)
    np.put_along_axis(member, index, True, axis=1)
    fitness = _distinct_scores(entries, index, np.empty(0))

    best_i = int(np.argmax(fitness))
    vals, subs = [fitness[best_i]], [index[best_i].tolist()]
    n_cross = round(cfg.p_cross * size)
    n_mut = round(cfg.p_mutprop * size)
    n_elite = max(1, round(cfg.elite_fraction * size))
    for gen in range(1, cfg.generations + 1):
        rng = streams.stream(seed, streams.DOMAIN_GA, gen)

        # Crossover: tournament-select n_cross parents and pair them up in
        # order; an odd last parent has no partner.
        parents = _tournaments(rng, fitness, n_cross, t)
        pairs = n_cross // 2
        a, b = member[parents[0:2 * pairs:2]], member[parents[1:2 * pairs:2]]
        children = np.repeat(a & b, 2, axis=0)
        pools = [np.flatnonzero(row) for row in a ^ b]
        for c, child in enumerate(children):
            pool = pools[c // 2]
            if pool.size:
                child[pool[rng.permutation(pool.size)[:pool.size // 2]]] = True

        # Mutation: an equal-probability p_mutprop proportion of the
        # population spawns mutated copies.
        mut_idx = rng.permutation(size)[:n_mut]
        mutants = member[mut_idx]
        # With no site outside, a mutant is its parent and draws nothing.
        for row, i in zip(mutants, mut_idx if n > k else ()):
            inside, outside = index[i].tolist(), np.flatnonzero(~row).tolist()
            for pos in range(k):
                if rng.random() < cfg.p_mut:
                    oi = int(rng.integers(n - k))
                    inside[pos], outside[oi] = outside[oi], inside[pos]
            row[:] = False
            row[inside] = True

        aug = np.concatenate([member, children, mutants])
        aug_index = np.nonzero(aug)[1].reshape(-1, k)
        aug_fit = _distinct_scores(entries, aug_index, fitness)

        # Selection: elites pass through, the rest come from tournaments.
        order = np.lexsort((*aug_index.T[::-1], -aug_fit))
        chosen = np.concatenate([order[:n_elite],
                                 _tournaments(rng, aug_fit, size - n_elite, t)])
        member, index, fitness = aug[chosen], aug_index[chosen], aug_fit[chosen]

        best_i = int(np.argmax(fitness))
        vals.append(fitness[best_i])
        subs.append(index[best_i].tolist())

    return SampleTrace(np.arange(1, cfg.generations + 2), vals, subs)


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


# (entries, eig, table) of the search a pool worker serves: set once in
# each worker process by the pool's initializer, so futures carry only
# their iteration range.
_worker_kernel = None


def _init_worker(entries, eig, table):
    global _worker_kernel
    _worker_kernel = (entries, eig, table)


def _run_range_in_worker(k, seed, lo, hi):
    return _run_range(*_worker_kernel, k, seed, lo, hi)


class _PolicyState:
    """Running state of a stopping policy over one search.

    Each check draws jitter for its new block only, from the stream
    jitter_trace uses, and extends a RunningPrefix with it; the records,
    threshold and exceedances are read from that state, so a check costs
    O(block) plus one GPD fit on the exceedances.  A prefix the policy
    cannot evaluate (a tie, too few exceedances, a failed fit) does not
    stop the run; the reason is logged at DEBUG and kept in the check's row.
    """

    def __init__(self, policy, seed: int):
        self.policy = policy
        self.checks = []
        self._noise = jitter_noise(JitterConfig(seed=seed))
        self._prefix = RunningPrefix()

    def fires(self, block: np.ndarray) -> bool:
        """Append the next block of raw values and check the policy on the
        whole prefix."""
        prefix = self._prefix
        prefix.extend(block + self._noise(block.size))
        srt = prefix.sorted
        fit = row = None
        try:
            records = prefix.records()
            fit = fit_gpd_sorted(srt, 0.9)
            row = evaluate_latest_record(records, fitted_cdf_from_gpd(fit, srt),
                                         (self.policy.epsilon,))
            stop = should_stop(self.policy, row)
            decision, reason = ("stop" if stop else "continue"), ""
        except DesignError as exc:
            logging.getLogger(__name__).debug(
                "stopping policy not evaluated at prefix length %d: %s", srt.size, exc
            )
            stop, decision, reason = False, "unevaluable", str(exc)
        self.checks.append(PolicyCheck(
            iteration=srt.size,
            threshold=None if fit is None else fit.mu,
            xi=None if fit is None else fit.xi,
            p_eps=None if row is None else row.eps_probs[self.policy.epsilon],
            expected_wait=None if row is None else row.expected_wait,
            decision=decision,
            reason=reason,
        ))
        return stop


def dpp_search(K: KernelMatrix, k: int, max_iters: int, seed: int = 0,
               stop=None, workers: int = 1) -> SampleTrace:
    """Repeatedly sample fixed-size DPP subsets and score each one.

    Every iteration draws from its own counter-derived stream, so the
    trace is identical for any worker count and any partitioning.  When a
    stopping policy is supplied it is evaluated on the accumulated trace
    every `check_every` iterations and the trace is truncated at the
    checkpoint where the policy fires.  With a pool, the _AHEAD blocks
    after the one being checked are already submitted, so the workers
    keep sampling while the policy checks; results are taken in block
    order, and a stop discards the blocks in flight.  The returned trace
    carries `stopped_at` (None if the policy never fired or none was
    given) and `policy_checks`: one PolicyCheck per evaluation, None
    without a policy.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    eig = eigendecompose(K)
    if int(np.count_nonzero(eig.eigenvalues > 0)) < k:
        raise RankDeficientError(f"rank deficient: fewer than {k} positive eigenvalues")
    table = elementary_table(eig.eigenvalues, k)
    entries = K.entries

    block = stop.check_every if stop is not None else max_iters
    state = None if stop is None else _PolicyState(stop, seed)
    sampled = []  # (iterations, values, subsets) of each sampled range, in order
    stopped_at = None

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(entries, eig, table)) if workers > 1 else None

    def start(lo):
        """Begin sampling the block from lo; the returned callable gives the
        results.  Without a pool the sampling runs when it is called."""
        hi = min(lo + block - 1, max_iters)
        if pool is None:
            return lambda: [_run_range(entries, eig, table, k, seed, lo, hi)]
        # Contiguous ranges whose sizes differ by at most one, as ints, so
        # the iteration array is freed before the first submit forks workers.
        ranges = [(int(r[0]), int(r[-1])) for r in
                  np.array_split(np.arange(lo, hi + 1), min(workers, hi - lo + 1))]
        futures = [pool.submit(_run_range_in_worker, k, seed, a, b) for a, b in ranges]
        return lambda: [f.result() for f in futures]

    los = range(1, max_iters + 1, block)
    pending = []  # started blocks, oldest first
    try:
        for j, lo in enumerate(los):
            pending += map(start, los[j + len(pending):j + _AHEAD + 1])
            results = pending.pop(0)()
            sampled += results
            if state is not None and state.fires(
                np.concatenate([vals for _, vals, _ in results])
            ):
                stopped_at = min(lo + block - 1, max_iters)
                if pool is not None and pending:
                    logging.getLogger(__name__).debug("policy stopped at %d: discarding %d "
                                                      "submitted blocks", stopped_at, len(pending))
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    trace = SampleTrace(*(np.concatenate(column) for column in zip(*sampled)))
    trace.stopped_at = stopped_at
    trace.policy_checks = None if state is None else tuple(state.checks)
    return trace


def best_subset(K: KernelMatrix, trace: SampleTrace) -> DesignSubset:
    """DesignSubset for the best entry of a trace."""
    _, _, sub = trace.best()
    return design_subset(K, sub)


def default_workers() -> int:
    return os.cpu_count() or 1
