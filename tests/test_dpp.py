import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppdesign import (
    CombinatorialBudgetError,
    EigenSystem,
    KernelMatrix,
    NumericError,
    RankDeficientError,
    eigendecompose,
    elementary_table,
    exact_k_dpp_pmf,
    sample_k_batch,
    sample_k_dpp,
    synth_kernel,
)
from dppdesign.streams import DOMAIN_SEARCH, StreamDealer, stream
from conftest import random_pd_kernel


def poly_coefficients(lam):
    """Coefficients of prod (1 + lam_i t) by direct convolution."""
    coeffs = [1.0]
    for v in lam:
        coeffs = [
            c + v * (coeffs[i - 1] if i > 0 else 0.0)
            for i, c in enumerate(coeffs)
        ] + [v * coeffs[-1]]
    return coeffs


class TestElementaryTable:
    def test_hand_expansion(self):
        t = elementary_table([1.0, 2.0, 3.0], 2)
        # e_2(1,2,3) = 1*2 + 1*3 + 2*3 = 11
        assert t.value(3, 2) == pytest.approx(11.0, abs=1e-12)
        assert t.value(3, 1) == pytest.approx(6.0, abs=1e-12)

    def test_all_ones_product(self):
        t = elementary_table([1.0] * 4, 4)
        assert t.value(4, 4) == 1.0

    def test_degree_zero_column(self):
        t = elementary_table([0.3, 0.7, 2.0], 0)
        assert np.array_equal(t.table[:, 0], np.ones(4))

    def test_recurrence_holds(self):
        lam = [0.5, 1.5, 2.5, 4.0]
        t = elementary_table(lam, 3)
        for m in range(1, 5):
            for j in range(1, 4):
                expect = t.table[m - 1, j] + lam[m - 1] * t.table[m - 1, j - 1]
                assert t.table[m, j] == expect

    @given(
        lam=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_coefficients(self, lam, data):
        k = data.draw(st.integers(0, len(lam)))
        t = elementary_table(lam, k)
        coeffs = poly_coefficients(lam)
        for j in range(k + 1):
            assert t.value(len(lam), j) == pytest.approx(coeffs[j], rel=1e-9, abs=1e-12)

    def test_rescaling_guard_keeps_values(self):
        lam = np.full(60, 1e60)
        t = elementary_table(lam, 10)
        assert t.scale == 1e60
        assert np.all(np.isfinite(t.table))
        # log e_10 = log C(60,10) + 10*log(1e60)
        expect = math.log(math.comb(60, 10)) + 10 * math.log(1e60)
        got = math.log(t.table[60, 10]) + 10 * math.log(t.scale)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            elementary_table([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            elementary_table([1.0, -2.0], 1)


class TestSampler:
    def test_diag_two_one_frequencies(self):
        eig = eigendecompose(KernelMatrix(np.diag([2.0, 1.0])))
        counts = Counter()
        dealer = StreamDealer(1, DOMAIN_SEARCH)
        n = 30_000
        for i in range(n):
            counts[sample_k_dpp(eig, 1, dealer.rng(i)).indices] += 1
        # exact law: P({0}) = 2/3, P({1}) = 1/3
        assert counts[(0,)] / n == pytest.approx(2 / 3, abs=0.02)
        assert counts[(1,)] / n == pytest.approx(1 / 3, abs=0.02)

    def test_identity_pairs_uniform(self):
        eig = eigendecompose(KernelMatrix(np.eye(3)))
        counts = Counter()
        dealer = StreamDealer(2, DOMAIN_SEARCH)
        n = 30_000
        for i in range(n):
            counts[sample_k_dpp(eig, 2, dealer.rng(i)).indices] += 1
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert counts[pair] / n == pytest.approx(1 / 3, abs=0.02)

    def test_k_equals_n_full_set(self, pd6):
        eig = eigendecompose(pd6)
        for i in range(5):
            s = sample_k_dpp(eig, 6, stream(0, DOMAIN_SEARCH, i))
            assert s.indices == (0, 1, 2, 3, 4, 5)

    def test_k_zero_empty(self, pd6):
        eig = eigendecompose(pd6)
        assert sample_k_dpp(eig, 0, stream(0, DOMAIN_SEARCH, 0)).indices == ()

    def test_rank_deficient(self):
        ones = np.ones((3, 3))
        eig = eigendecompose(KernelMatrix(ones))
        with pytest.raises(RankDeficientError, match="rank deficient"):
            sample_k_dpp(eig, 2, stream(0, DOMAIN_SEARCH, 0))

    def test_deterministic_per_stream(self, pd6):
        eig = eigendecompose(pd6)
        a = [sample_k_dpp(eig, 3, stream(9, DOMAIN_SEARCH, i)).indices for i in range(50)]
        b = [sample_k_dpp(eig, 3, stream(9, DOMAIN_SEARCH, i)).indices for i in range(50)]
        assert a == b

    def test_k_distinct_indices(self, pd6):
        eig = eigendecompose(pd6)
        for i in range(200):
            s = sample_k_dpp(eig, 4, stream(3, DOMAIN_SEARCH, i))
            assert len(set(s.indices)) == 4

    def test_empirical_tv_against_exact_pmf(self):
        K = random_pd_kernel(4, seed=8)
        eig = eigendecompose(K)
        pmf = exact_k_dpp_pmf(K, 2)
        table = elementary_table(eig.eigenvalues, 2)
        counts = Counter()
        dealer = StreamDealer(4, DOMAIN_SEARCH)
        n = 40_000
        for i in range(n):
            counts[sample_k_dpp(eig, 2, dealer.rng(i), table).indices] += 1
        tv = 0.5 * sum(abs(counts.get(s, 0) / n - p) for s, p in pmf.items())
        assert tv < 0.02

    def test_empirical_marginals_match_pmf(self):
        K = random_pd_kernel(5, seed=15)
        eig = eigendecompose(K)
        pmf = exact_k_dpp_pmf(K, 2)
        marg = np.zeros(5)
        for s, p in pmf.items():
            for i in s:
                marg[i] += p
        counts = np.zeros(5)
        dealer = StreamDealer(6, DOMAIN_SEARCH)
        n = 50_000
        table = elementary_table(eig.eigenvalues, 2)
        for i in range(n):
            for j in sample_k_dpp(eig, 2, dealer.rng(i), table).indices:
                counts[j] += 1
        assert np.abs(counts / n - marg).max() < 0.01


def loop_draw(eig, k, table, rng):
    """The per-draw loop the batched sampler replaced: the reference."""
    n = eig.n
    e = table.table.tolist()
    lam = (eig.eigenvalues / table.scale).tolist()
    u = rng.random(n).tolist()
    chosen, kk = [], k
    for m in range(n, 0, -1):
        if kk and u[n - m] < lam[m - 1] * e[m - 1][kk - 1] / e[m][kk]:
            chosen.append(m - 1)
            kk -= 1
    vt = np.ascontiguousarray(eig.eigenvectors[:, chosen].T)
    items = []
    for step in range(k):
        act = vt[step:]
        p = np.cumsum((act * act).sum(axis=0))
        i = min(int(np.searchsorted(p, rng.random() * p[-1], side="right")), n - 1)
        items.append(i)
        if step == k - 1:
            break
        c = act[:, i].copy()
        c[0] += math.copysign(math.sqrt(c @ c), c[0])
        act -= (2.0 / (c @ c) * c)[:, None] * (c @ act)[None, :]
        act[1:, i] = 0.0
    return tuple(sorted(items))


def batch_rows(eig, k, table, seed, lo, hi, cuts=()):
    """sample_k_batch over iterations lo..hi, one chunk per pair of cuts."""
    dealer = StreamDealer(seed, DOMAIN_SEARCH)
    U = np.empty((hi - lo + 1, eig.n + k))
    for row, i in enumerate(range(lo, hi + 1)):
        dealer.rng(i).random(out=U[row])
    edges = [0, *cuts, len(U)]
    return np.concatenate([
        sample_k_batch(eig, k, U[a:b], table) for a, b in zip(edges, edges[1:])
    ])


def exactly_k_positive(n, k, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    w = np.zeros(n)
    w[:k] = np.sort(np.random.default_rng(seed + 1).uniform(0.5, 3.0, k))[::-1]
    return EigenSystem(w, q)


class TestBatchSampler:
    @pytest.mark.parametrize("case", ["criterion7", "rescaled", "k_positive"])
    def test_rows_equal_single_draws(self, case):
        k = 10 if case != "k_positive" else 4
        if case == "k_positive":
            eig = exactly_k_positive(12, k, seed=3)
        else:
            K = synth_kernel(30, 2.0, 1e-6, seed=7)
            if case == "rescaled":
                K = KernelMatrix(K.entries * 1e40)
            eig = eigendecompose(K)
        table = elementary_table(eig.eigenvalues, k)
        assert (table.scale != 1.0) == (case == "rescaled")
        seed, hi = 5, 600
        whole = batch_rows(eig, k, table, seed, 1, hi)
        assert whole.shape == (hi, k) and whole.dtype == np.int64
        for cuts in [(1, 2, 37), (218, 436), (5, 299, 300, 599)]:
            assert np.array_equal(batch_rows(eig, k, table, seed, 1, hi, cuts), whole)
        singles = [sample_k_dpp(eig, k, stream(seed, DOMAIN_SEARCH, i), table).indices
                   for i in range(1, hi + 1)]
        loops = [loop_draw(eig, k, table, stream(seed, DOMAIN_SEARCH, i))
                 for i in range(1, hi + 1)]
        assert [tuple(r) for r in whole.tolist()] == singles == loops

    @pytest.mark.parametrize("n, k, rows", [(30, 10, 5000), (200, 40, 300)])
    def test_rows_equal_householder_reference(self, n, k, rows):
        # Phase two keeps running marginals where the reference recomputes
        # them from a reflected basis; the rounding differs, the draws may not.
        eig = eigendecompose(synth_kernel(n, 0.5, 1e-6, seed=11))
        table = elementary_table(eig.eigenvalues, k)
        whole = batch_rows(eig, k, table, 8, 0, rows - 1)
        loops = [loop_draw(eig, k, table, stream(8, DOMAIN_SEARCH, i)) for i in range(rows)]
        assert [tuple(r) for r in whole.tolist()] == loops

    @pytest.mark.parametrize("columns, k, match", [
        # Three copies of e_0: after item 0 no item has mass left, so the
        # second pick finds nothing outside the span already taken.
        ((0, 0, 0, 1), 3, "orthogonal complement collapsed"),
        # Two copies of e_3: item 3 takes all the mass, and the last pick,
        # with none left, falls on item 3 again.
        ((3, 3, 0, 1), 2, "not return k distinct items"),
    ])
    def test_degenerate_bases_raise(self, columns, k, match):
        eig = EigenSystem([1.0] * k + [0.0] * (4 - k), np.eye(4)[:, columns])
        table = elementary_table(eig.eigenvalues, k)
        with pytest.raises(NumericError, match=match):
            sample_k_batch(eig, k, np.full((3, 4 + k), 0.5), table)

    def test_unfinished_selection_raises(self):
        # A table of rank 1 cannot supply two eigenvectors: every degree-2
        # ratio divides by e_2 = 0, which must end in NumericError rather
        # than in a NaN comparison that silently picks nothing.
        eig = eigendecompose(KernelMatrix(np.eye(3)))
        table = elementary_table([1.0, 0.0, 0.0], 2)
        with pytest.raises(NumericError, match="eigenvalue selection"):
            sample_k_batch(eig, 2, np.full((4, 5), 0.5), table)


class TestExactPmf:
    def test_diag_two_one(self):
        pmf = exact_k_dpp_pmf(KernelMatrix(np.diag([2.0, 1.0])), 1)
        assert pmf[(0,)] == pytest.approx(2 / 3, abs=1e-12)
        assert pmf[(1,)] == pytest.approx(1 / 3, abs=1e-12)

    def test_identity_uniform(self):
        pmf = exact_k_dpp_pmf(KernelMatrix(np.eye(4)), 2)
        assert len(pmf) == 6
        for p in pmf.values():
            assert p == pytest.approx(1 / 6, abs=1e-12)

    def test_single_subset(self):
        pmf = exact_k_dpp_pmf(KernelMatrix([[2.0, 1.0], [1.0, 2.0]]), 2)
        assert pmf == {(0, 1): pytest.approx(1.0, abs=1e-12)}

    def test_sums_to_one(self, pd6):
        pmf = exact_k_dpp_pmf(pd6, 3)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-10)

    def test_normalizer_equals_elementary_polynomial(self, pd6):
        # sum over |Y| = k of det K[Y] is e_k of the eigenvalues
        from conftest import cofactor_det
        import itertools

        k = 2
        total = sum(
            cofactor_det(pd6.entries[np.ix_(s, s)])
            for s in itertools.combinations(range(6), k)
        )
        eig = eigendecompose(pd6)
        t = elementary_table(eig.eigenvalues, k)
        assert total == pytest.approx(t.value(6, k), rel=1e-9)
        # and the pmf of any subset is det / that total
        pmf = exact_k_dpp_pmf(pd6, k)
        det01 = cofactor_det(pd6.entries[np.ix_([0, 1], [0, 1])])
        assert pmf[(0, 1)] == pytest.approx(det01 / total, rel=1e-9)

    def test_budget_guard(self):
        K = KernelMatrix(np.eye(50))
        with pytest.raises(CombinatorialBudgetError, match="budget"):
            exact_k_dpp_pmf(K, 25)
