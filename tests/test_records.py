import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from dppdesign import (
    JitterConfig,
    TieError,
    expected_record_count,
    exponential_cdf,
    extract_records,
    inter_record_time_pmf,
    inter_record_time_tail,
    jitter_trace,
    record_count_pmf,
    record_time_pmf,
    record_value_pdf,
)
from dppdesign.records import RecordSequence, RunningPrefix, write_record_log
from dppdesign.trace import SampleTrace


def make_trace(values):
    n = len(values)
    return SampleTrace(range(1, n + 1), values, [(0,)] * n)


def count_records(values):
    best = -np.inf
    c = 0
    for v in values:
        if v > best:
            c += 1
            best = v
    return c


class TestJitter:
    def test_single_value_still_one_record(self):
        jt = jitter_trace(make_trace([4.2]), JitterConfig(seed=0))
        assert extract_records(jt).count == 1

    def test_fixed_seed_identical(self):
        tr = make_trace([1.0, 2.0, 3.0])
        a = jitter_trace(tr, JitterConfig(seed=5))
        b = jitter_trace(tr, JitterConfig(seed=5))
        assert np.array_equal(a.values, b.values)

    def test_constant_trace_becomes_distinct(self):
        # constant at 0 keeps the float grid far finer than sigma; at large
        # magnitudes the grid coarsens and collisions become seed-dependent
        tr = make_trace([0.0] * 10_000)
        jt = jitter_trace(tr, JitterConfig(sigma=1e-8, seed=1))
        assert np.unique(jt.values).size == 10_000

    def test_prefix_stability(self):
        # jittering a prefix must give a prefix of the jittered trace,
        # so online stopping checks agree with offline analysis
        tr = make_trace(list(range(100)))
        pre = SampleTrace(range(1, 41), tr.values[:40], tr.subsets[:40])
        full = jitter_trace(tr, JitterConfig(seed=3))
        part = jitter_trace(pre, JitterConfig(seed=3))
        assert np.array_equal(full.values[:40], part.values)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            JitterConfig(sigma=0.0)


class TestExtractRecords:
    def test_hand_traced_example(self):
        rs = extract_records(make_trace([1.0, 3.0, 2.0, 5.0]))
        assert rs.values.tolist() == [1.0, 3.0, 5.0]
        assert rs.times.tolist() == [1, 2, 4]
        assert rs.gaps.tolist() == [1, 2]
        assert rs.increments.tolist() == [1.0, 2.0, 2.0]

    def test_decreasing_single_trivial_record(self):
        rs = extract_records(make_trace([5.0, 4.0, 3.0]))
        assert rs.count == 1
        assert rs.times.tolist() == [1]

    def test_increasing_all_records(self):
        rs = extract_records(make_trace([1.0, 2.0, 3.0, 4.0]))
        assert rs.count == 4

    def test_tie_raises(self):
        with pytest.raises(TieError, match="tie"):
            extract_records(make_trace([1.0, 1.0, 2.0]))

    def test_low_sigma_jitter_preserves_record_times(self):
        rng = np.random.default_rng(12)
        vals = np.round(rng.random(500), 2) * 10  # gaps are multiples of 0.01
        vals += np.arange(500) * 1e-4             # break exact ties, keep order
        tr = make_trace(vals)
        raw = extract_records(tr)
        jt = jitter_trace(tr, JitterConfig(sigma=1e-8, seed=4))
        assert extract_records(jt).times.tolist() == raw.times.tolist()

    def test_extract_after_jitter_never_errors(self):
        tr = make_trace([1.0] * 300)
        jt = jitter_trace(tr, JitterConfig(seed=9))
        extract_records(jt)


class TestRunningPrefix:
    def test_matches_extract_records_after_every_block(self):
        values = np.random.default_rng(0).normal(size=3000)
        prefix = RunningPrefix()
        cuts = [0, 1, 2, 39, 1000, 2999, 3000]
        for a, b in zip(cuts, cuts[1:]):
            prefix.extend(values[a:b])
            ref = extract_records(SampleTrace(range(1, b + 1), values[:b], [(0,)] * b))
            got = prefix.records()
            assert np.array_equal(prefix.sorted, np.sort(values[:b]))
            assert np.array_equal(got.values, ref.values)
            assert np.array_equal(got.times, ref.times)
            assert (got.trace_iqr, got.total_observations) == (ref.trace_iqr, b)

    @pytest.mark.parametrize("blocks", [[[1.0, 2.0, 1.0]], [[1.0, 2.0], [3.0, 2.0]],
                                        [[1.0, 2.0], [0.5], [2.0]], [[2.0], [2.0, 5.0]]])
    def test_a_tie_makes_every_later_prefix_unevaluable(self, blocks):
        prefix = RunningPrefix()
        for block in blocks:
            prefix.extend(np.array(block))
        with pytest.raises(TieError, match="jitter"):
            prefix.records()
        prefix.extend(np.array([10.0, 11.0]))
        with pytest.raises(TieError):
            prefix.records()


class TestRecordSubsets:
    def test_subsets_are_the_record_rows_of_the_index(self):
        values = np.random.default_rng(3).normal(size=500)
        index = np.sort(np.random.default_rng(4).choice(40, (500, 3)), axis=1)
        records = extract_records(SampleTrace(range(1, 501), values, index))
        subs = records.subsets
        assert subs.dtype == np.int64 and subs.shape == (records.count, 3)
        assert not subs.flags.writeable
        assert np.array_equal(subs, index[records.times - 1])

    def test_caller_array_stays_writable(self):
        subsets = np.array([[0, 1], [2, 3]])
        records = RecordSequence([1.0, 2.0], [1, 2], subsets, 2, 1.0)
        assert subsets.flags.writeable and not records.subsets.flags.writeable

    def test_without_subsets_is_none(self):
        assert RecordSequence([1.0, 2.0], [1, 3], None, 3, 1.0).subsets is None

    @pytest.mark.parametrize("subsets", [[(0, 1)], [(0, 1), (2,)], [0, 1]])
    def test_misaligned_subsets_raise(self, subsets):
        with pytest.raises(ValueError):
            RecordSequence([1.0, 2.0], [1, 3], subsets, 3, 1.0)


class TestExpectedRecordCount:
    def test_single_observation(self):
        assert expected_record_count(1) == (1.0, 0.0)

    def test_harmonic_thousand(self):
        mean, var = expected_record_count(1000)
        assert mean == pytest.approx(sum(1 / i for i in range(1, 1001)), abs=1e-12)
        assert mean == pytest.approx(7.485, abs=5e-4)
        assert var == pytest.approx(
            sum((1 / i) * (1 - 1 / i) for i in range(1, 1001)), abs=1e-12
        )

    def test_hundred_thousand(self):
        mean, _ = expected_record_count(100_000)
        assert mean == pytest.approx(12.09, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_record_count(0)


class TestRecordCountPmf:
    def test_single(self):
        assert record_count_pmf(1, 1) == 1.0

    def test_n3_by_enumeration(self):
        # all 3! orderings of three distinct values
        counts = {1: 0, 2: 0, 3: 0}
        for perm in itertools.permutations([1.0, 2.0, 3.0]):
            counts[count_records(perm)] += 1
        for j in (1, 2, 3):
            assert record_count_pmf(3, j) == pytest.approx(counts[j] / 6, abs=1e-15)
        assert record_count_pmf(3, 2) == 0.5
        assert record_count_pmf(3, 3) == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", [2, 4, 5, 6])
    def test_small_n_by_enumeration(self, n):
        counts = {}
        for perm in itertools.permutations(range(n)):
            c = count_records(perm)
            counts[c] = counts.get(c, 0) + 1
        for j in range(1, n + 1):
            expect = counts.get(j, 0) / math.factorial(n)
            assert record_count_pmf(n, j) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 50, 170])
    def test_sums_to_one(self, n):
        total = sum(record_count_pmf(n, j) for j in range(1, n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_large_n_approximation_path(self):
        p = record_count_pmf(1000, 7)
        # Poisson-style approximation log(n)^j / (n j!)
        expect = math.log(1000) ** 7 / (1000 * math.factorial(7))
        assert p == pytest.approx(expect, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            record_count_pmf(3, 0)
        with pytest.raises(ValueError):
            record_count_pmf(3, 4)


class TestRecordTimePmf:
    def test_first_record_at_two(self):
        # second observation beats the first with probability 1/2
        assert record_time_pmf(1, 2) == 0.5

    def test_first_record_at_three(self):
        assert record_time_pmf(1, 3) == pytest.approx(1 / 6, abs=1e-15)

    def test_telescoping_partial_sum(self):
        total = sum(record_time_pmf(1, n) for n in range(2, 10**6 + 1))
        assert abs(total - 1.0) <= 1e-6

    def test_identity_with_count_pmf(self):
        for k in (1, 2, 3, 4):
            for n in range(k + 1, 30):
                assert record_time_pmf(k, n) == pytest.approx(
                    record_count_pmf(n - 1, k) / n, abs=1e-15
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            record_time_pmf(0, 2)
        with pytest.raises(ValueError):
            record_time_pmf(2, 2)


class TestInterRecordTimes:
    def test_gap_zero_probability_one(self):
        for k in (1, 2, 5):
            assert inter_record_time_tail(k, 0) == 1.0

    def test_hand_values(self):
        assert inter_record_time_tail(1, 1) == 0.5
        assert inter_record_time_tail(2, 1) == 0.75

    def test_first_gap_closed_form(self):
        # P(gap_1 > j) telescopes to 1/(j+1); j > 64 exercises quadrature
        for j in (1, 5, 64, 65, 200):
            assert inter_record_time_tail(1, j) == pytest.approx(
                1 / (j + 1), rel=1e-8
            )

    def test_first_gap_pmf_past_the_exact_limit(self):
        # P(gap_1 = j) = 1/(j(j+1)), a difference of two quadrature tails once j > 65
        for j in (66, 100, 1000):
            assert inter_record_time_pmf(1, j) == pytest.approx(1 / (j * (j + 1)), rel=1e-12)

    @pytest.mark.parametrize("kth,j", [(50, 66), (50, 100), (64, 100), (100, 66), (30, 200),
                                       (2, 66), (5, 300), (1, 70), (10, 1000)])
    def test_pmf_past_the_exact_limit_against_the_rational_sum(self, kth, j):
        # A difference of two tails near 1 gave 8.881784197001252e-16 at
        # (50, 66) and 0.0 at (64, 100).
        exact = sum(Fraction((-1) ** m * math.comb(j - 1, m), (m + 2) ** kth) for m in range(j))
        assert inter_record_time_pmf(kth, j) == pytest.approx(float(exact), rel=1e-7, abs=0)

    @pytest.mark.parametrize("kth,j", [(0, 5), (0, 100), (1, 0), (3, -2)])
    def test_pmf_validation(self, kth, j):
        with pytest.raises(ValueError):
            inter_record_time_pmf(kth, j)

    def test_monotone_in_gap(self):
        for k in (1, 2, 4):
            vals = [inter_record_time_tail(k, j) for j in range(0, 120, 7)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_quadrature_matches_rational_at_boundary(self):
        # Gamma(k)-weighted integral oracle against the exact rational sum
        for k in (2, 3):
            exact = float(
                sum(
                    Fraction((-1) ** m * math.comb(64, m), (1 + m) ** k)
                    for m in range(65)
                )
            )
            lg = math.lgamma(k)

            def integrand(x, j=64, kk=k):
                if x <= 0:
                    return 0.0
                return math.exp(
                    (kk - 1) * math.log(x) - x + j * math.log1p(-math.exp(-x)) - lg
                )

            quad, _ = integrate.quad(integrand, 0, np.inf, limit=200)
            assert quad == pytest.approx(exact, rel=1e-8)
            assert inter_record_time_tail(k, 64) == pytest.approx(exact, rel=1e-12)
            assert inter_record_time_tail(k, 65) == pytest.approx(
                integrate.quad(
                    lambda x: integrand(x, j=65, kk=k), 0, np.inf, limit=200
                )[0],
                rel=1e-10,
            )

    def test_quadrature_tails_are_probabilities(self):
        # quad gave 1.0000000000000098 at (64, 66) and 1.0000000000000133 at kth = 100
        for k in range(1, 121, 7):
            for j in (66, 67, 100, 1000, 10**4, 10**5, 10**6):
                assert 0.0 <= inter_record_time_tail(k, j) <= 1.0
                assert inter_record_time_pmf(k, j) >= 0.0
        assert inter_record_time_tail(100, 65) == 1.0

    def test_pmf_consistent_with_tail(self):
        for k in (1, 2, 3):
            for j in (1, 2, 10, 40):
                diff = inter_record_time_tail(k, j - 1) - inter_record_time_tail(k, j)
                assert inter_record_time_pmf(k, j) == pytest.approx(diff, abs=1e-12)


class TestRecordValuePdf:
    def test_zeroth_record_is_density(self):
        F = exponential_cdf()
        assert record_value_pdf(F, 0, 1.3) == pytest.approx(F.pdf(1.3))

    def test_exponential_first_record(self):
        F = exponential_cdf()
        # -log(1 - F(r)) = r for the unit exponential
        assert record_value_pdf(F, 1, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_integrates_to_one(self):
        F = exponential_cdf()
        val, _ = integrate.quad(lambda r: record_value_pdf(F, 2, r), 0, 50)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_beyond_support_zero(self):
        class Point:
            def cdf(self, r):
                return 1.0

            def pdf(self, r):
                return 0.0

        assert record_value_pdf(Point(), 3, 10.0) == 0.0


class TestClassicalLaws:
    def test_record_indicator_probability(self):
        # P(I_n = 1) = 1/n, checked within 3 standard errors
        reps, length = 10_000, 50
        rng = np.random.default_rng(2024)
        x = rng.random((reps, length))
        cummax = np.maximum.accumulate(x, axis=1)
        is_rec = np.empty_like(x, dtype=bool)
        is_rec[:, 0] = True
        is_rec[:, 1:] = x[:, 1:] > cummax[:, :-1]
        for n in (2, 5, 10, 50):
            p_hat = is_rec[:, n - 1].mean()
            p = 1 / n
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(p_hat - p) <= 3 * se

    def test_mean_record_count(self):
        reps, length = 4000, 200
        rng = np.random.default_rng(99)
        x = rng.random((reps, length))
        cummax = np.maximum.accumulate(x, axis=1)
        counts = 1 + (x[:, 1:] > cummax[:, :-1]).sum(axis=1)
        mean, var = expected_record_count(length)
        se = math.sqrt(var / reps)
        assert abs(counts.mean() - mean) <= 3 * se

    def test_exponential_increments_memoryless(self):
        # increments of records from unit-exponential data are again
        # unit exponential; pooled KS statistic under the 1% critical value
        reps, length = 10_000, 100
        rng = np.random.default_rng(7)
        pooled = []
        for _ in range(reps):
            x = rng.exponential(size=length)
            rec = x[0]
            prev = x[0]
            for v in x[1:]:
                if v > prev:
                    pooled.append(v - prev)
                    prev = v
        pooled = np.asarray(pooled)
        stat = stats.kstest(pooled, "expon").statistic
        assert stat < 1.628 / math.sqrt(pooled.size)


class TestRecordLog:
    def test_csv_format(self, tmp_path):
        rs = extract_records(make_trace([1.0, 3.0, 2.0, 5.0]))
        path = tmp_path / "records.csv"
        write_record_log(rs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d,record_value,record_time,gap,increment,subset"
        assert lines[1].startswith("0,1,1,,1,")
        assert lines[3].startswith("2,5,4,2,2,")
