import math

import numpy as np
import pytest

from dppdesign import (
    StoppingPolicy,
    beat_reference_prob,
    build_stopping_report,
    expected_wait_next_record,
    exponential_cdf,
    extract_records,
    fit_gpd_pot,
    fitted_cdf_from_gpd,
    record_increment_prob,
    should_stop,
    wait_tail_prob,
    write_stopping_csv,
)
from dppdesign.stopping import StoppingRow, evaluate_latest_record
from dppdesign.trace import SampleTrace


def make_records(values):
    n = len(values)
    trace = SampleTrace(range(1, n + 1), values, [(0,)] * n)
    return extract_records(trace)


class TestIncrementProb:
    def test_zero_epsilon_is_exactly_one(self):
        F = exponential_cdf()
        assert record_increment_prob(F, 3.7, 0.0) == 1.0

    def test_exponential_survival_ratio(self):
        F = exponential_cdf()
        # survival ratio e^-11 / e^-10
        assert record_increment_prob(F, 10.0, 0.1) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_monotone_in_epsilon(self):
        F = exponential_cdf()
        grid = [record_increment_prob(F, 5.0, e) for e in np.linspace(0, 0.5, 21)]
        assert all(b <= a + 1e-15 for a, b in zip(grid, grid[1:]))

    def test_monotone_in_epsilon_for_composite_model(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.normal(5, 1, 5000), 8 + rng.exponential(0.5, 500)])
        model = fitted_cdf_from_gpd(fit_gpd_pot(x, 0.9), x)
        for r in (6.0, float(np.quantile(x, 0.95))):
            grid = [record_increment_prob(model, r, e)
                    for e in np.linspace(0, 0.3, 31)]
            assert all(b <= a + 1e-15 for a, b in zip(grid, grid[1:]))

    def test_beyond_support_returns_zero(self):
        F = exponential_cdf()
        assert record_increment_prob(F, 1e9, 0.1) == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            record_increment_prob(exponential_cdf(), 1.0, -0.1)


class TestBeatReference:
    def test_equal_reference_is_one(self):
        F = exponential_cdf()
        assert beat_reference_prob(F, 2.0, 2.0) == 1.0

    def test_exponential_value(self):
        F = exponential_cdf()
        assert beat_reference_prob(F, 1.0, 2.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_already_beaten_exceeds_one(self):
        F = exponential_cdf()
        assert beat_reference_prob(F, 3.0, 1.0) > 1.0


class TestWaitingTimes:
    def test_expected_wait_values(self):
        F = exponential_cdf()
        assert expected_wait_next_record(F, -5.0) == 1.0  # F = 0 below support
        r_half = math.log(2.0)
        assert expected_wait_next_record(F, r_half) == pytest.approx(2.0, rel=1e-12)
        r99 = -math.log(0.01)
        assert expected_wait_next_record(F, r99) == pytest.approx(100.0, rel=1e-9)

    def test_beyond_support_is_infinite(self):
        assert expected_wait_next_record(exponential_cdf(), 1e9) == math.inf

    def test_tail_probabilities(self):
        F = exponential_cdf()
        assert wait_tail_prob(F, 5.0, 0) == 1.0
        r_half = math.log(2.0)
        assert wait_tail_prob(F, r_half, 2) == pytest.approx(0.25, rel=1e-12)
        r09 = -math.log(0.1)
        assert wait_tail_prob(F, r09, 10) == pytest.approx(0.9**10, rel=1e-9)

    def test_geometric_identity(self):
        # sum of tail probabilities equals the expected wait
        F = exponential_cdf()
        for r in (0.5, 2.0, math.log(1000)):
            wait = expected_wait_next_record(F, r)
            total, j = 0.0, 0
            while True:
                t = wait_tail_prob(F, r, j)
                total += t
                j += 1
                if t < 1e-14:
                    break
            assert total == pytest.approx(wait, abs=1e-8)


class TestShouldStop:
    def make_row(self, prob, wait):
        return StoppingRow(
            n_sims=10, record=1.0, eps_probs={0.001: prob},
            beat_reference=None, expected_wait=wait, beyond_support=False,
        )

    def test_truth_table(self):
        policy = StoppingPolicy(epsilon=0.001, delta=0.01, max_expected_wait=1e4)
        assert should_stop(policy, self.make_row(0.0, math.inf))
        assert not should_stop(policy, self.make_row(0.9, 2.0))
        # conjunction: unlikely improvement but short wait keeps sampling
        assert not should_stop(policy, self.make_row(0.001, 5000.0))
        assert not should_stop(policy, self.make_row(0.5, 1e9))

    def test_missing_epsilon_is_an_error(self):
        policy = StoppingPolicy(epsilon=0.07)
        with pytest.raises(ValueError):
            should_stop(policy, self.make_row(0.5, 10.0))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StoppingPolicy(epsilon=0.0)
        with pytest.raises(ValueError):
            StoppingPolicy(delta=1.0)
        with pytest.raises(ValueError):
            StoppingPolicy(check_every=0)


class TestBuildReport:
    def test_single_trivial_record(self):
        records = make_records([4.0])
        F = exponential_cdf()
        reports = build_stopping_report(records, [F], epsilons=(0.1,))
        assert len(reports) == 1
        row = reports[0].rows[0]
        assert row.n_sims == 1
        assert row.expected_wait >= 1.0

    def test_rows_match_hand_computed_ratios(self):
        records = make_records([1.0, 0.5, 2.0, 1.7, 3.1])
        F = exponential_cdf()
        eps = (0.001, 0.01)
        report = build_stopping_report(records, [F], epsilons=eps)[0]
        assert report.increment_mode == "multiplicative"
        for row in report.rows:
            for e in eps:
                expect = F.survival((1 + e) * row.record) / F.survival(row.record)
                assert row.eps_probs[e] == pytest.approx(expect, abs=1e-10)
            assert row.expected_wait == pytest.approx(
                1.0 / F.survival(row.record), rel=1e-12
            )

    def test_gpd_truth_rows_match_hand_computed_ratios(self):
        # composite model with known tail parameters; recompute every
        # reported probability from the closed-form survival function
        from dppdesign import fitted_cdf_from_params

        rng = np.random.default_rng(6)
        sample = np.sort(rng.uniform(0.0, 10.0, 1000))
        mu, sigma, xi, p_tail = 9.0, 0.8, -0.25, 0.1
        model = fitted_cdf_from_params(
            "gpd",
            {"mu": mu, "sigma": sigma, "xi": xi, "p_tail": p_tail},
            values=sample,
            threshold=mu,
        )

        def hand_sf(r):
            if r < mu:
                return 1.0 - np.searchsorted(sample, r, side="right") / sample.size
            w = 1.0 + xi * (r - mu) / sigma
            return p_tail * (max(w, 0.0) ** (-1.0 / xi)) if w > 0 else 0.0

        records = make_records([8.5, 9.2, 9.8, 10.1])
        eps = (0.001, 0.01)
        report = build_stopping_report(records, [model], epsilons=eps, reference=9.5)[0]
        for row in report.rows:
            for e in eps:
                expect = hand_sf((1 + e) * row.record) / hand_sf(row.record)
                assert row.eps_probs[e] == pytest.approx(expect, abs=1e-10)
            assert row.beat_reference == pytest.approx(
                hand_sf(9.5) / hand_sf(row.record), rel=1e-10
            )
            assert row.expected_wait == pytest.approx(
                1.0 / hand_sf(row.record), rel=1e-10
            )

    def test_epsilons_sorted_ascending(self):
        records = make_records([1.0, 2.0])
        report = build_stopping_report(
            records, [exponential_cdf()], epsilons=(0.01, 0.0001, 0.005)
        )[0]
        assert report.epsilons == (0.0001, 0.005, 0.01)

    def test_additive_switch_for_non_positive_records(self):
        records = make_records([-3.0, -2.5, -2.0, -1.0])
        F = exponential_cdf(rate=1.0, loc=-10.0)
        report = build_stopping_report(records, [F], epsilons=(0.1,))[0]
        assert report.increment_mode == "additive"
        assert report.increment_scale == pytest.approx(records.trace_iqr)
        row = report.rows[0]
        target = row.record + 0.1 * report.increment_scale
        expect = F.survival(target) / F.survival(row.record)
        assert row.eps_probs[0.1] == pytest.approx(expect, rel=1e-12)

    def test_one_report_per_model(self):
        records = make_records([1.0, 2.0, 3.0])
        fits = [exponential_cdf(), exponential_cdf(rate=2.0)]
        reports = build_stopping_report(records, fits)
        assert [r.model for r in reports] == ["exponential", "exponential"]

    def test_exponential_column_is_non_increasing(self):
        # log-concave survival: increment probabilities fall as records rise
        records = make_records([0.5, 1.5, 2.0, 4.0, 4.5])
        report = build_stopping_report(records, [exponential_cdf()])[0]
        for e in report.epsilons:
            col = [r.eps_probs[e] for r in report.rows]
            assert all(b <= a + 1e-15 for a, b in zip(col, col[1:]))

    def test_evaluate_latest_record(self):
        records = make_records([1.0, 2.0, 5.0])
        F = exponential_cdf()
        row = evaluate_latest_record(records, F, (0.01,))
        assert row.record == 5.0
        assert row.n_sims == 3


class TestReportCsv:
    def test_sentinels_and_layout(self, tmp_path):
        records = make_records([1.0, 2.0])
        F = exponential_cdf()
        reports = build_stopping_report(
            records, [F], epsilons=(0.001, 0.01), reference=1.5
        )
        path = tmp_path / "stopping.csv"
        write_stopping_csv(reports[0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n_sims,record,p_eps_1,p_eps_2,beat_reference,expected_wait"
        # final record 2.0 already beats the 1.5 reference
        assert lines[2].split(",")[4] == ">1"

    def test_infinite_wait_sentinel(self, tmp_path):
        records = make_records([1.0, 1e9])
        reports = build_stopping_report(records, [exponential_cdf()])
        path = tmp_path / "stopping.csv"
        write_stopping_csv(reports[0], path)
        assert path.read_text().splitlines()[2].split(",")[-1] == "inf"

    def test_no_reference_prints_na(self, tmp_path):
        records = make_records([1.0])
        reports = build_stopping_report(records, [exponential_cdf()])
        path = tmp_path / "stopping.csv"
        write_stopping_csv(reports[0], path)
        assert path.read_text().splitlines()[1].split(",")[-2] == "n/a"


class TestOnlinePolicyIntegration:
    def test_search_stops_early_on_plateau(self):
        import dppdesign as d

        # a rank-structured kernel where the search converges quickly
        K = d.synth_kernel(12, 2.0, 1e-6, seed=1)
        policy = StoppingPolicy(
            epsilon=0.001, delta=0.5, max_expected_wait=50.0, check_every=500
        )
        trace = d.dpp_search(K, 4, 20_000, seed=0, stop=policy, workers=1)
        assert trace.stopped_at is not None
        assert trace.n == trace.stopped_at
        assert trace.n % 500 == 0
        assert trace.n < 20_000

    def test_unevaluable_check_logged_at_debug(self, caplog):
        import dppdesign as d

        K = d.synth_kernel(10, 0.5, 1e-6, seed=2)
        policy = StoppingPolicy(check_every=10)
        with caplog.at_level("DEBUG", logger="dppdesign.search"):
            trace = d.dpp_search(K, 3, 20, seed=3, stop=policy, workers=1)
        assert trace.stopped_at is None and trace.n == 20
        messages = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(messages) == 2
        assert "prefix length 10:" in messages[0] and "prefix length 20:" in messages[1]

    def test_stopped_trace_is_prefix_of_full_run(self):
        import dppdesign as d

        K = d.synth_kernel(10, 0.5, 1e-6, seed=2)
        policy = StoppingPolicy(
            epsilon=0.001, delta=0.9, max_expected_wait=10.0, check_every=400
        )
        stopped = d.dpp_search(K, 3, 5000, seed=3, stop=policy, workers=1)
        full = d.dpp_search(K, 3, 5000, seed=3, workers=1)
        m = stopped.n
        assert np.array_equal(stopped.values, full.values[:m])
        assert stopped.subsets == full.subsets[:m]
