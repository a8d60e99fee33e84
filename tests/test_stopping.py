import dataclasses
import logging
import math

import numpy as np
import pytest

from dppdesign import (
    FittedCdf,
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
from dppdesign.errors import DesignError
from dppdesign.records import JitterConfig, jitter_noise, jitter_trace
from dppdesign.search import _PolicyState
from dppdesign.stopping import (
    PolicyCheck,
    StoppingRow,
    evaluate_latest_record,
    write_policy_csv,
)
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

    def test_reference_beyond_support_is_logged(self, caplog):
        F = exponential_cdf()  # survival exp(-x) underflows to 0 past x ~ 745
        caplog.set_level(logging.DEBUG, logger="dppdesign.stopping")
        assert beat_reference_prob(F, 1.0, 2.0) > 0.0
        assert beat_reference_prob(F, 2000.0, 1000.0) == math.inf
        assert caplog.records == []
        assert beat_reference_prob(F, 1.0, 1000.0) == 0.0
        assert beat_reference_prob(F, 1000.0, 2000.0) == 0.0
        assert [r.getMessage() for r in caplog.records] == [
            f"reference {m!r} is beyond the fitted support"
            for m in (1000.0, 2000.0)
        ]


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
        for bad in (2.5, True, "10", 1000.0):
            with pytest.raises(ValueError, match="check_every"):
                StoppingPolicy(check_every=bad)
        assert StoppingPolicy(check_every=np.int64(7)).check_every == 7


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
        rng = np.random.default_rng(6)
        sample = np.sort(rng.uniform(0.0, 10.0, 1000))
        mu, sigma, xi, p_tail = 9.0, 0.8, -0.25, 0.1
        model = FittedCdf(
            "gpd",
            {"mu": mu, "sigma": sigma, "xi": xi, "p_tail": p_tail},
            threshold=mu,
            sample=sample,
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

    @pytest.mark.parametrize("values", [
        [1.0, 2.0, 5.0, 4.0, 7.5],          # multiplicative increments
        [-3.0, -1.0, 0.5, 0.2, 2.0],        # additive, scale from the IQR
    ])
    @pytest.mark.parametrize("reference", [None, 1.5])
    def test_latest_record_is_last_report_row(self, values, reference):
        x = np.random.default_rng(4).normal(size=400)
        model = fitted_cdf_from_gpd(fit_gpd_pot(x, 0.9), x)
        records = make_records(values)
        for fit in (exponential_cdf(), model):
            report = build_stopping_report(records, [fit], (0.01, 0.001), reference)[0]
            assert evaluate_latest_record(records, fit, (0.01, 0.001), reference) == report.rows[-1]

    def test_latest_record_rejects_negative_epsilon(self):
        records = make_records([1.0, 2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate_latest_record(records, exponential_cdf(), (-0.1,))

    @pytest.mark.parametrize("epsilons,reference", [
        ((math.nan, 0.001), None), ((0.001, math.inf), None),
        ((0.001,), math.nan), ((0.001,), math.inf), ((0.001,), -math.inf),
    ])
    def test_non_finite_epsilon_or_reference_rejected(self, epsilons, reference):
        records = make_records([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            build_stopping_report(records, [exponential_cdf()], epsilons, reference)
        with pytest.raises(ValueError, match="finite"):
            evaluate_latest_record(records, exponential_cdf(), epsilons, reference)


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


def from_scratch_check(full, m, seed, policy):
    """The policy check dpp_search made before its running state, kept as
    the reference: rebuild the prefix trace, jitter it whole, extract its
    records, fit and decide.  Returns the PolicyCheck the state must
    produce at prefix length m."""
    try:
        prefix = SampleTrace(full.iterations[:m], full.values[:m], full.subsets[:m])
        jittered = jitter_trace(prefix, JitterConfig(seed=seed))
        records = extract_records(jittered)
        fit = fit_gpd_pot(jittered.values, 0.9)
        fitted = fitted_cdf_from_gpd(fit, jittered.values)
        row = evaluate_latest_record(records, fitted, (policy.epsilon,))
        stop = should_stop(policy, row)
    except DesignError as exc:
        return PolicyCheck(m, None, None, None, None, "unevaluable", str(exc))
    return PolicyCheck(m, fit.mu, fit.xi, row.eps_probs[policy.epsilon],
                       row.expected_wait, "stop" if stop else "continue")


# name -> (kernel args, k, iterations, seed, policy, the decisions expected)
POLICY_CASES = {
    # a rank-structured kernel whose lax policy fires
    "plateau": ((12, 2.0, 1e-6, 1), 4, 20_000, 0,
                StoppingPolicy(epsilon=0.001, delta=0.5, max_expected_wait=50.0,
                               check_every=500), {"continue", "stop"}),
    # too few exceedances at every check
    "unevaluable": ((10, 0.5, 1e-6, 2), 3, 20, 3, StoppingPolicy(check_every=10),
                    {"unevaluable"}),
    # the acceptance criterion-7 kernel with the default policy
    "criterion-7": ((30, 2.0, 1e-6, 7), 10, 10_000, 0,
                    StoppingPolicy(check_every=1000), {"continue"}),
}


class TestIncrementalPolicy:
    @pytest.mark.parametrize("case", sorted(POLICY_CASES))
    def test_matches_from_scratch_check_at_every_checkpoint(self, case):
        import dppdesign as d

        kernel, k, iters, seed, policy, decisions = POLICY_CASES[case]
        K = d.synth_kernel(*kernel[:3], seed=kernel[3])
        full = d.dpp_search(K, k, iters, seed=seed, workers=1)
        state = _PolicyState(policy, seed)
        c = policy.check_every
        for m in range(c, iters + 1, c):
            fires = state.fires(full.values[m - c:m])
            expected = from_scratch_check(full, m, seed, policy)
            assert state.checks[-1] == expected
            assert fires == (expected.decision == "stop")
        assert {check.decision for check in state.checks} == decisions

        # the search stops at the first firing checkpoint, with those checks
        stopped = d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=1)
        fired = [check.iteration for check in state.checks if check.decision == "stop"]
        assert stopped.stopped_at == (fired[0] if fired else None)
        assert stopped.policy_checks == tuple(state.checks[:stopped.n // c])

    def test_blockwise_noise_equals_one_shot_jitter(self):
        values = np.random.default_rng(0).normal(size=3000)
        trace = SampleTrace(range(1, 3001), values, [(0,)] * 3000)
        cfg = JitterConfig(seed=5)
        noise = jitter_noise(cfg)
        cuts = [0, 1, 2, 39, 1000, 2999, 3000]
        blocks = [values[a:b] + noise(b - a) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(blocks), jitter_trace(trace, cfg).values)

    def test_policy_run_is_worker_invariant(self):
        import dppdesign as d

        kernel, k, iters, seed, policy, _ = POLICY_CASES["plateau"]
        K = d.synth_kernel(*kernel[:3], seed=kernel[3])
        one, two = (d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=w)
                    for w in (1, 2))
        assert one.stopped_at is not None and one.stopped_at == two.stopped_at
        assert np.array_equal(one.iterations, two.iterations)
        assert np.array_equal(one.values, two.values)
        assert one.subsets == two.subsets
        assert one.policy_checks == two.policy_checks

    @pytest.mark.parametrize("stop_at_last_block", [False, True])
    @pytest.mark.parametrize("workers,stop_check", [(2, None), (3, 1), (3, 2)])
    def test_stopped_pool_run_discards_the_next_block(self, stop_at_last_block, workers,
                                                       stop_check):
        import multiprocessing

        import dppdesign as d

        kernel, k, iters, seed, policy, _ = POLICY_CASES["plateau"]
        K = d.synth_kernel(*kernel[:3], seed=kernel[3])
        if stop_check is not None:
            # the plateau policy first fires at 1500, the third check of 500
            policy = dataclasses.replace(policy, check_every=1500 // stop_check)
        serial = d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=1)
        m = serial.stopped_at
        assert m is not None and m < iters
        assert stop_check is None or m == stop_check * policy.check_every
        if stop_at_last_block:
            iters = m
        trace = d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=workers)
        assert trace.stopped_at == m and trace.n == m
        assert len(trace.policy_checks) == m // policy.check_every
        assert trace.policy_checks == serial.policy_checks
        assert np.array_equal(trace.values, serial.values)
        assert multiprocessing.active_children() == []

    def test_policy_csv_rows(self, tmp_path):
        checks = [PolicyCheck(10, None, None, None, None, "unevaluable",
                              "3 exceedances above threshold, need >= 30"),
                  PolicyCheck(20, 1.5, -0.25, 0.125, math.inf, "stop")]
        path = tmp_path / "policy.csv"
        write_policy_csv(checks, path)
        assert path.read_text().splitlines() == [
            "iteration,threshold,xi,p_eps,expected_wait,decision,reason",
            '10,,,,,unevaluable,"3 exceedances above threshold, need >= 30"',
            "20,1.5,-0.25,0.125,inf,stop,",
        ]


class DeferredPool:
    """A stand-in for the search's process pool: a future runs its range
    in this process when its result is first asked for.  The pool records
    each submitted range and each awaited one, in order, and each
    shutdown's cancel_futures."""

    last = None

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)
        self.events, self.shutdowns = [], []
        DeferredPool.last = self

    def submit(self, fn, *args):
        pool, span = self, args[-2:]
        pool.events.append(("submit", span))

        class Deferred:
            def result(self):
                pool.events.append(("result", span))
                return fn(*args)

        return Deferred()

    def shutdown(self, cancel_futures):
        self.shutdowns.append(cancel_futures)


def block_ranges(iters, block, workers):
    """The (lo, hi) ranges of each block, as dpp_search splits them."""
    return [[(int(r[0]), int(r[-1])) for r in
             np.array_split(np.arange(lo, min(lo + block - 1, iters) + 1),
                            min(workers, min(lo + block - 1, iters) - lo + 1))]
            for lo in range(1, iters + 1, block)]


class TestLookAhead:
    def run(self, monkeypatch, case, workers, iters=None, **changes):
        import dppdesign as d
        from dppdesign import search

        monkeypatch.setattr(search, "ProcessPoolExecutor", DeferredPool)
        kernel, k, case_iters, seed, policy, _ = POLICY_CASES[case]
        iters = iters or case_iters
        policy = dataclasses.replace(policy, **changes)
        K = d.synth_kernel(*kernel[:3], seed=kernel[3])
        serial = d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=1)
        trace = d.dpp_search(K, k, iters, seed=seed, stop=policy, workers=workers)
        return serial, trace, DeferredPool.last, block_ranges(iters, policy.check_every, workers)

    @pytest.mark.parametrize("case,workers,changes", [
        ("plateau", 3, {}), ("plateau", 2, {"check_every": 750}),
        ("unevaluable", 3, {"check_every": 3}), ("criterion-7", 2, {"check_every": 2500}),
    ])
    def test_two_blocks_ahead_and_same_output(self, monkeypatch, case, workers, changes):
        serial, trace, pool, blocks = self.run(monkeypatch, case, workers, **changes)
        # when block j is first awaited, the blocks up to j + 2 are submitted
        submitted = []
        awaited = 0
        for kind, span in pool.events:
            if kind == "submit":
                submitted.append(span)
            elif awaited < len(blocks) and span == blocks[awaited][0]:
                expect = [r for b in blocks[:min(awaited + 3, len(blocks))] for r in b]
                assert submitted == expect
                awaited += 1
        assert awaited == len(trace.policy_checks)
        assert pool.shutdowns == [True]
        assert trace.stopped_at == serial.stopped_at
        assert np.array_equal(trace.iterations, serial.iterations)
        assert np.array_equal(trace.values, serial.values)
        assert np.array_equal(trace.index, serial.index)
        assert trace.policy_checks == serial.policy_checks

    def test_a_stop_logs_the_discarded_blocks(self, monkeypatch, caplog):
        _, trace, pool, _ = self.run(monkeypatch, "plateau", 3, check_every=750)
        assert trace.stopped_at == 1500 and pool.shutdowns == [True]
        assert [r for r in caplog.records if r.name == "dppdesign.search"] == []
        with caplog.at_level("DEBUG", logger="dppdesign.search"):
            self.run(monkeypatch, "plateau", 3, check_every=750)
        messages = [r.getMessage() for r in caplog.records if r.name == "dppdesign.search"]
        assert messages == ["policy stopped at 1500: discarding 2 submitted blocks"]
        # a stop at the last block has nothing in flight
        caplog.clear()
        with caplog.at_level("DEBUG", logger="dppdesign.search"):
            _, trace, _, _ = self.run(monkeypatch, "plateau", 3, iters=1500, check_every=750)
        assert trace.stopped_at == 1500
        assert [r for r in caplog.records if r.name == "dppdesign.search"] == []
