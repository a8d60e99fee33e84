import itertools
import math
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from dppdesign import (
    CombinatorialBudgetError,
    DesignSubset,
    GaConfig,
    KernelMatrix,
    RankDeficientError,
    SingularSubmatrixError,
    StoppingPolicy,
    best_subset,
    design_subset,
    dpp_search,
    exchange_refine,
    exhaustive_search,
    genetic_search,
    greedy_backward,
    greedy_forward,
    log_det_submatrix,
    synth_kernel,
)
from dppdesign import search, streams
from dppdesign.kernels import _logdet_psd
from dppdesign.trace import SampleTrace, read_trace, write_trace
from conftest import random_pd_kernel


def brute_force_greedy(K, k):
    """Independent re-implementation: grow the set, best increment first."""
    chosen = []
    for _ in range(k):
        best_val, best_s = -np.inf, None
        for s in range(K.dim):
            if s in chosen:
                continue
            val = log_det_submatrix(K, sorted(chosen + [s]))
            if val > best_val:
                best_val, best_s = val, s
        chosen.append(best_s)
    return tuple(sorted(chosen))


class TestGreedy:
    def test_forward_diagonal(self):
        K = KernelMatrix(np.diag([5.0, 3.0, 1.0]))
        res = greedy_forward(K, 2)
        assert res.indices == (0, 1)
        assert res.log_det == pytest.approx(math.log(15), abs=1e-12)

    def test_forward_identity_tie_break(self):
        res = greedy_forward(KernelMatrix(np.eye(5)), 3)
        assert res.indices == (0, 1, 2)
        assert res.log_det == 0.0

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_forward_matches_brute_force(self, seed):
        K = random_pd_kernel(10, seed=seed)
        assert greedy_forward(K, 3).indices == brute_force_greedy(K, 3)

    def test_backward_diagonal(self):
        K = KernelMatrix(np.diag([5.0, 3.0, 1.0]))
        # removing index 2 maximizes the remaining determinant at each step
        assert greedy_backward(K, 2).indices == (0, 1)

    def test_backward_k_equals_n(self, pd6):
        assert greedy_backward(pd6, 6).indices == (0, 1, 2, 3, 4, 5)

    def test_backward_identity_tie_break(self):
        assert greedy_backward(KernelMatrix(np.eye(4)), 2).indices == (0, 1)

    def test_greedy_never_beats_exhaustive(self):
        kernels = [random_pd_kernel(9, seed=seed) for seed in (1, 4, 9)]
        kernels += [synth_kernel(11, 0.4 + 0.2 * seed, 1e-6, seed=seed) for seed in range(5)]
        for K in kernels:
            e = exhaustive_search(K, 4).log_det
            g = greedy_forward(K, 4)
            for res in (g, greedy_backward(K, 4), exchange_refine(K, g)):
                assert res.log_det <= e + 1e-12


class TestExchange:
    def test_already_optimal_unchanged(self):
        K = KernelMatrix(np.diag([5.0, 3.0, 1.0]))
        start = greedy_forward(K, 2)
        assert exchange_refine(K, start).indices == (0, 1)

    def test_improves_bad_start(self):
        K = KernelMatrix(np.diag([5.0, 3.0, 1.0]))
        start = design_subset(K, [1, 2])
        refined = exchange_refine(K, start)
        # enumerating all one-swaps: replacing 2 with 0 is the improvement
        assert refined.indices == (0, 1)

    def test_full_set_unchanged(self, pd6):
        start = design_subset(pd6, range(6))
        assert exchange_refine(pd6, start).indices == start.indices

    def test_never_decreases_and_locally_optimal(self):
        K = random_pd_kernel(8, seed=3)
        start = design_subset(K, [5, 6, 7])
        refined = exchange_refine(K, start)
        assert refined.log_det >= start.log_det
        inside = set(refined.indices)
        for l in refined.indices:
            for s in range(8):
                if s in inside:
                    continue
                swapped = sorted(set(refined.indices) - {l} | {s})
                assert log_det_submatrix(K, swapped) <= refined.log_det + 1e-12


class TestExhaustive:
    def test_diagonal(self):
        K = KernelMatrix(np.diag([5.0, 3.0, 1.0]))
        res = exhaustive_search(K, 2)
        assert res.indices == (0, 1)
        assert res.log_det == pytest.approx(math.log(15), abs=1e-12)

    def test_identity_lexicographic(self):
        assert exhaustive_search(KernelMatrix(np.eye(6)), 3).indices == (0, 1, 2)

    def test_tridiagonal_minors(self):
        K = KernelMatrix([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        # minors: {0,1}: 3, {0,2}: 4, {1,2}: 3
        res = exhaustive_search(K, 2)
        assert res.indices == (0, 2)
        assert res.log_det == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_full_enumeration(self, pd6):
        res = exhaustive_search(pd6, 3)
        vals = {
            s: log_det_submatrix(pd6, s)
            for s in itertools.combinations(range(6), 3)
        }
        assert res.indices == max(sorted(vals), key=lambda s: vals[s])

    def test_budget_guard(self):
        K = KernelMatrix(np.eye(40))
        with pytest.raises(CombinatorialBudgetError):
            exhaustive_search(K, 20)

    def test_all_singular_minors_raise(self):
        with pytest.raises(RankDeficientError, match="every size-k principal minor"):
            exhaustive_search(KernelMatrix(np.ones((4, 4))), 2)


@pytest.mark.parametrize("search", [
    greedy_forward, greedy_backward, exhaustive_search, genetic_search,
    lambda K, k: dpp_search(K, k, 10),
], ids=["greedy_forward", "greedy_backward", "exhaustive_search", "genetic_search",
        "dpp_search"])
@pytest.mark.parametrize("k", [0, 6])
def test_k_outside_one_to_n_raises_value_error(search, k):
    # dpp_search checks k before its eigendecomposition, as the others do
    with pytest.raises(ValueError, match=rf"k must be in \[1, 5\], got {k}$"):
        search(synth_kernel(5, 0.5, 1e-6), k)


class TestGeneticSearch:
    def test_finds_top_diagonal(self):
        K = KernelMatrix(np.diag(np.arange(1.0, 11.0)))
        trace = genetic_search(K, 3, GaConfig(generations=50), seed=1)
        assert trace.best()[1] == pytest.approx(math.log(10 * 9 * 8), abs=1e-10)

    def test_no_variation_keeps_population(self):
        K = random_pd_kernel(8, seed=2)
        cfg = GaConfig(population=10, p_mutprop=0.0, p_mut=0.0, generations=15)
        same = [(0, 2, 5)] * 10
        trace = genetic_search(K, 3, cfg, seed=0, initial_population=same)
        assert np.all(trace.values == trace.values[0])
        assert all(s == (0, 2, 5) for s in trace.subsets)

    def test_elitism_makes_best_non_decreasing(self):
        K = random_pd_kernel(12, seed=5)
        trace = genetic_search(K, 4, GaConfig(generations=30), seed=3)
        assert np.all(np.diff(trace.values) >= 0)

    def test_deterministic(self):
        K = random_pd_kernel(9, seed=6)
        cfg = GaConfig(population=20, generations=10)
        a = genetic_search(K, 3, cfg, seed=11)
        b = genetic_search(K, 3, cfg, seed=11)
        assert np.array_equal(a.values, b.values)
        assert a.subsets == b.subsets

    def test_reference_default_tuning(self):
        cfg = GaConfig()
        assert cfg.population == 100
        assert cfg.p_cross == 0.75
        assert cfg.p_mut == 0.05
        assert cfg.tournament_size == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)
        with pytest.raises(ValueError):
            GaConfig(p_cross=1.5)
        with pytest.raises(ValueError):
            GaConfig(population=3, tournament_size=4)
        for bad in ({"population": 4.5}, {"generations": 2.5}, {"tournament_size": 2.0},
                    {"population": True}, {"generations": False}, {"tournament_size": "4"},
                    {"generations": 0}, {"tournament_size": 0}, {"population": np.float64(10)}):
            with pytest.raises(ValueError, match="must be an integer"):
                GaConfig(**bad)
        cfg = GaConfig(population=np.int64(10), tournament_size=np.int32(3), generations=np.uint8(2))
        trace = genetic_search(random_pd_kernel(8, seed=1), 3, cfg, seed=0)
        assert trace.n == 3

    @pytest.mark.parametrize("bad", [(-1, 0, 3), (0, 3, 10), (0, 3, 99), (0, 1.5, 3),
                                     (0.0, 1.0, 3.0), (0, 3), (0, 3, 3), ("0", "1", "3"),
                                     (True, 2, 3), (0, np.True_, 3)])
    def test_initial_population_indices_are_checked(self, bad):
        K = synth_kernel(10, 1.0, 1e-6, 1)
        population = [(0, 1, 2)] * 3 + [bad]
        with pytest.raises(ValueError):
            genetic_search(K, 3, GaConfig(population=4, generations=2), seed=0,
                           initial_population=population)

    def test_initial_population_size_is_checked(self):
        K = synth_kernel(10, 1.0, 1e-6, 1)
        with pytest.raises(ValueError, match="distinct k-subsets"):
            genetic_search(K, 3, GaConfig(population=4, generations=2),
                           initial_population=[(0, 1, 2)] * 3)

    def test_initial_population_in_any_integer_form(self):
        K = synth_kernel(10, 1.0, 1e-6, 1)
        cfg = GaConfig(population=4, generations=3)
        rows = [(3, 0, 7), (1, 2, 9), (4, 5, 6), (9, 8, 0)]
        forms = [rows, np.array(rows), np.array(rows, dtype=np.int32), [set(r) for r in rows]]
        traces = [genetic_search(K, 3, cfg, seed=2, initial_population=f) for f in forms]
        ref = reference_genetic_search(K, 3, cfg, seed=2, initial_population=rows)
        assert all(_trace_rows(t) == _trace_rows(ref) for t in traces)


class TestDppSearch:
    def test_single_iteration(self, pd6):
        trace = dpp_search(pd6, 2, 1, seed=0)
        assert trace.n == 1
        assert trace.iterations[0] == 1
        assert trace.best()[2] == trace.subsets[0]

    def test_identity_kernel_all_zero(self):
        trace = dpp_search(KernelMatrix(np.eye(8)), 3, 50, seed=1)
        assert np.all(trace.values == 0.0)

    def test_best_so_far_is_running_max(self, pd6):
        trace = dpp_search(pd6, 3, 300, seed=2)
        assert np.array_equal(trace.best_so_far, np.maximum.accumulate(trace.values))
        assert np.all(np.diff(trace.best_so_far) >= 0)

    def test_reaches_exhaustive_optimum_small(self):
        K = synth_kernel(10, 0.5, 1e-6, seed=7)
        opt = exhaustive_search(K, 3)
        trace = dpp_search(K, 3, 5000, seed=0)
        assert best_subset(K, trace).indices == opt.indices

    def test_bit_reproducible(self, pd6):
        a = dpp_search(pd6, 2, 400, seed=9)
        b = dpp_search(pd6, 2, 400, seed=9)
        assert np.array_equal(a.values, b.values)
        assert a.subsets == b.subsets

    def test_worker_count_invariance(self):
        K = synth_kernel(9, 0.5, 1e-6, seed=2)
        seq = dpp_search(K, 3, 600, seed=4, workers=1)
        par = dpp_search(K, 3, 600, seed=4, workers=2)
        assert np.array_equal(seq.values, par.values)
        assert seq.subsets == par.subsets

    @staticmethod
    def old_split_ranges(lo, hi, parts):
        """The worker ranges of one block before np.array_split, verbatim."""
        total = hi - lo + 1
        parts = max(1, min(parts, total))
        step = total // parts
        extra = total % parts
        start = lo
        for p in range(parts):
            size = step + (1 if p < extra else 0)
            yield start, start + size - 1
            start += size

    @pytest.mark.parametrize("workers,max_iters,check_every",
                             [(2, 7, None), (4, 3, None), (3, 10, 4), (5, 23, 7)])
    def test_worker_ranges_match_old_split(self, monkeypatch, workers, max_iters,
                                           check_every):
        submitted = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                assert max_workers == workers
                initializer(*initargs)

            def submit(self, fn, *args):
                submitted.append(args[-2:])
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
        K = synth_kernel(9, 0.5, 1e-6, seed=2)
        stop = None if check_every is None else StoppingPolicy(check_every=check_every)
        par = dpp_search(K, 3, max_iters, seed=4, stop=stop, workers=workers)
        block = check_every or max_iters
        expect = [r for lo in range(1, max_iters + 1, block)
                  for r in self.old_split_ranges(lo, min(lo + block - 1, max_iters), workers)]
        assert submitted == expect
        assert all(type(i) is int for r in submitted for i in r)
        seq = dpp_search(K, 3, max_iters, seed=4, stop=stop, workers=1)
        assert np.array_equal(par.values, seq.values) and np.array_equal(par.index, seq.index)

    def test_validation(self, pd6):
        with pytest.raises(ValueError):
            dpp_search(pd6, 2, 0, seed=0)
        with pytest.raises(ValueError):
            dpp_search(pd6, 2, 10, seed=0, workers=0)


class TestTraceRoundTrip:
    def test_lossless_csv(self, tmp_path, pd6):
        trace = dpp_search(pd6, 2, 50, seed=3)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.values, trace.values)
        assert np.array_equal(back.iterations, trace.iterations)
        assert back.subsets == trace.subsets

    def test_record_flags_column(self, tmp_path):
        trace = SampleTrace([1, 2, 3, 4], [1.0, 3.0, 2.0, 5.0], [(0,)] * 4)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        flags = [row.split(",")[2] for row in path.read_text().splitlines()[1:]]
        assert flags == ["1", "1", "0", "1"]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SampleTrace([], [], [])
        with pytest.raises(ValueError):
            SampleTrace([2, 3], [0.0, 1.0], [(0,), (1,)])
        with pytest.raises(ValueError):
            SampleTrace([1, 1], [0.0, 1.0], [(0,), (1,)])
        with pytest.raises(ValueError):
            SampleTrace([1, 2], [0.0, 1.0], [(0, 1), (2,)])
        with pytest.raises(ValueError):
            SampleTrace([1, 2], [0.0, 1.0], [0, 1])

    def test_read_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        from dppdesign import InputFormatError

        with pytest.raises(InputFormatError):
            read_trace(p)


# ---------------------------------------------------------------------------
# Oracle: the per-candidate searches that the rank-one searches replaced,
# kept verbatim.  Each scores every candidate with its own Cholesky
# factorization, so its choices, tie rules and SingularSubmatrixError are
# the specification the rank-one searches must reproduce exactly.


def _logdet(entries: np.ndarray, idx) -> float:
    return _logdet_psd(entries[np.ix_(idx, idx)])


def reference_forward(K: KernelMatrix, k: int) -> DesignSubset:
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


def reference_backward(K: KernelMatrix, k: int) -> DesignSubset:
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


def reference_exchange(K: KernelMatrix, start: DesignSubset) -> DesignSubset:
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


# The GA's operators as they were before the generation loop was batched;
# reference_genetic_search calls these, so its draws are the oracle's.

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


def reference_genetic_search(K: KernelMatrix, k: int, cfg: GaConfig | None = None,
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


def _low_rank_kernel(n, rank, nugget, seed):
    x = np.random.default_rng(seed).normal(size=(n, rank))
    return KernelMatrix(x @ x.T + nugget * np.eye(n))


def _duplicated_site_kernel():
    """synth_kernel(12, 1.0, 1e-6) with site 3 repeated as site 12."""
    idx = list(range(12)) + [3]
    return KernelMatrix(synth_kernel(12, 1.0, 1e-6).entries[np.ix_(idx, idx)])


# name -> (kernel, k values).  random_pd_kernel covers n = 8..30 with
# k = 1 and k = n; the synth kernels are the criterion-style exponential
# kernels with a 1e-6 nugget; the identity and diagonal kernels tie
# exactly; the low-rank kernels are ill-conditioned (the first two pass
# the submatrix certificate, the last does not, so every candidate is
# scored exactly); the duplicated-site kernel is exactly singular.
ORACLE_KERNELS = {
    **{f"random_pd_n{n}": (lambda n=n: random_pd_kernel(n, seed=100 + n), (1, 3, n // 2, n))
       for n in range(8, 31, 2)},
    **{f"synth60_seed{seed}": (lambda seed=seed: synth_kernel(60, 0.5 + 0.3 * seed, 1e-6, seed=seed), (12,))
       for seed in range(14)},
    "identity": (lambda: KernelMatrix(np.eye(9)), (1, 4, 9)),
    "diagonal_ties": (lambda: KernelMatrix(np.diag([3.0, 1, 3, 2, 2, 3, 1, 1])), (1, 3, 5, 8)),
    "low_rank_1e-6": (lambda: _low_rank_kernel(40, 10, 1e-6, seed=1), (5, 10, 15)),
    "low_rank_1e-7": (lambda: _low_rank_kernel(50, 12, 1e-7, seed=2), (6, 17)),
    "low_rank_1e-10": (lambda: _low_rank_kernel(30, 8, 1e-10, seed=3), (4, 8, 12)),
    "duplicated_site": (_duplicated_site_kernel, (1, 2, 4, 6, 11, 12)),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularSubmatrixError as exc:
        return ("SingularSubmatrixError", str(exc))


def _trace_rows(trace):
    if not isinstance(trace, SampleTrace):
        return trace
    return trace.iterations.tolist(), trace.values.tolist(), trace.subsets


class TestRankOneOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_searches_match_reference(self, name):
        make, ks = ORACLE_KERNELS[name]
        K = make()
        for k in ks:
            assert _outcome(greedy_forward, K, k) == _outcome(reference_forward, K, k), k
            assert _outcome(greedy_backward, K, k) == _outcome(reference_backward, K, k), k
            start = _outcome(reference_forward, K, k)
            if isinstance(start, DesignSubset):
                assert _outcome(exchange_refine, K, start) == _outcome(reference_exchange, K, start), k
            worst = _outcome(design_subset, K, range(K.dim - k, K.dim))
            if isinstance(worst, DesignSubset):
                assert _outcome(exchange_refine, K, worst) == _outcome(reference_exchange, K, worst), k

    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_ga_matches_reference(self, name):
        make, ks = ORACLE_KERNELS[name]
        K = make()
        cfg = GaConfig(population=20, generations=6)
        for k in ks:
            if k == K.dim:
                continue
            new = _outcome(genetic_search, K, k, cfg, k)
            ref = _outcome(reference_genetic_search, K, k, cfg, k)
            assert _trace_rows(new) == _trace_rows(ref), k

    def test_design_size_ga_matches_reference(self):
        K = synth_kernel(60, 0.5, 1e-6, seed=4)
        new = genetic_search(K, 12, GaConfig(generations=4), seed=2)
        ref = reference_genetic_search(K, 12, GaConfig(generations=4), seed=2)
        assert np.array_equal(new.values, ref.values)
        assert new.subsets == ref.subsets

    def test_design_kernel_ga_matches_reference(self):
        # The design workload's kernel and k, with the default population.
        K = synth_kernel(200, 0.5, 1e-6, seed=0)
        cfg = GaConfig(generations=15)
        for seed in range(2):
            new = genetic_search(K, 40, cfg, seed=seed)
            assert _trace_rows(new) == _trace_rows(reference_genetic_search(K, 40, cfg, seed))

    @pytest.mark.parametrize("k,cfg", [
        (5, GaConfig(population=21, p_cross=0.8, generations=8)),  # 17 parents: one unpaired
        (5, GaConfig(population=20, p_cross=0.0, generations=8)),
        (5, GaConfig(population=20, p_mutprop=0.0, generations=8)),
        (5, GaConfig(population=20, elite_fraction=1.0, generations=8)),
        (5, GaConfig(population=20, p_mut=1.0, tournament_size=1, generations=8)),
        (1, GaConfig(population=20, generations=8)),
        (14, GaConfig(population=20, generations=8)),  # k = n: no site outside
    ], ids=["odd-n-cross", "no-crossover", "no-mutation", "all-elite", "all-sites-mutate",
            "k1", "k-equals-n"])
    def test_ga_edge_configs_match_reference(self, k, cfg):
        K = random_pd_kernel(14, seed=3)
        for seed in range(3):
            new = genetic_search(K, k, cfg, seed)
            assert _trace_rows(new) == _trace_rows(reference_genetic_search(K, k, cfg, seed))

    def test_scores_only_offspring_new_to_the_population(self, monkeypatch):
        # Four distinct subsets fill the population of 20, so most offspring
        # repeat a member.  The reference records every offspring it makes;
        # after the four initial scores, generation 1 may score only those
        # that differ from the four, each once.
        K = synth_kernel(30, 2.0, 1e-6, seed=7)
        rng = np.random.default_rng(0)
        four = [tuple(sorted(rng.choice(30, 10, replace=False).tolist())) for _ in range(4)]
        initial = four * 5
        cfg = GaConfig(population=20, p_mut=0.02, generations=1)
        offspring = []
        module = sys.modules[__name__]
        for name in ("_crossover", "_mutate"):
            op = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, op=op: offspring.append(op(*a)) or offspring[-1])
        ref = reference_genetic_search(K, 10, cfg, 0, initial)
        scored = []
        exact = search._exact_scores
        monkeypatch.setattr(search, "_exact_scores", lambda e, s: scored.append(s.tolist()) or exact(e, s))
        new = genetic_search(K, 10, cfg, 0, initial)
        assert _trace_rows(new) == _trace_rows(ref)
        fresh = set(offspring) - set(four)
        assert len(offspring) == 14 + 4 and 0 < len(fresh) < 18  # 7 pairs' children, 4 mutants
        assert sorted(map(tuple, scored[0])) == sorted(four)
        assert len(scored) == 2 and sorted(map(tuple, scored[1])) == sorted(fresh)

    def test_design_kernel_scores_only_new_offspring(self, monkeypatch):
        # Each generation's population holds the previous generation's best,
        # so its scored rows are at most its distinct offspring other than
        # that subset.
        K = synth_kernel(200, 0.5, 1e-6, seed=0)
        cfg = GaConfig(generations=10)
        offspring = []
        module = sys.modules[__name__]
        for name in ("_crossover", "_mutate"):
            op = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, op=op: offspring.append(op(*a)) or offspring[-1])
        ref = reference_genetic_search(K, 40, cfg, seed=1)
        scored = []
        exact = search._exact_scores
        monkeypatch.setattr(search, "_exact_scores", lambda e, s: scored.append(s.tolist()) or exact(e, s))
        new = genetic_search(K, 40, cfg, seed=1)
        assert _trace_rows(new) == _trace_rows(ref)
        per_gen = 37 * 2 + 20
        assert len(offspring) == 10 * per_gen
        bound = sum(len(set(offspring[g * per_gen:(g + 1) * per_gen]) - {ref.subsets[g]})
                    for g in range(10))
        assert all(len(set(map(tuple, rows))) == len(rows) for rows in scored)
        assert len(scored[0]) == 100 and sum(map(len, scored[1:])) <= bound < 10 * per_gen

    @pytest.mark.parametrize("seed", range(6))
    def test_exchange_leaves_no_exactly_improving_swap(self, seed):
        K = random_pd_kernel(14, seed=seed)
        refined = exchange_refine(K, design_subset(K, range(5)))
        inside = set(refined.indices)
        for l in refined.indices:
            for s in sorted(set(range(14)) - inside):
                swapped = sorted(inside - {l} | {s})
                assert log_det_submatrix(K, swapped) <= refined.log_det

    def test_duplicated_site(self):
        # Site 12 repeats site 3, so every submatrix holding both is
        # singular.  Backward starts from the full set and raises at once;
        # forward and exchange never hold both sites and return.
        K = _duplicated_site_kernel()
        with pytest.raises(SingularSubmatrixError):
            greedy_backward(K, 4)
        fwd = greedy_forward(K, 4)
        assert fwd == reference_forward(K, 4)
        assert exchange_refine(K, fwd) == reference_exchange(K, fwd)
        assert 3 not in fwd.indices and 12 not in fwd.indices


class TestExchangeStart:
    def test_inflated_start_log_det_is_rescored(self):
        K = random_pd_kernel(10, seed=8)
        start = design_subset(K, [0, 1, 2])
        inflated = DesignSubset(start.indices, start.log_det + 5.0)
        assert exchange_refine(K, inflated) == exchange_refine(K, start)
        assert exchange_refine(K, start).log_det > start.log_det

    def test_out_of_range_start_raises_value_error(self):
        K = random_pd_kernel(10, seed=8)
        with pytest.raises(ValueError, match="out of bounds"):
            exchange_refine(K, DesignSubset((0, 25), 0.0))
