import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppdesign
from dppdesign import cli
from dppdesign.cli import FAMILIES, main
from dppdesign.errors import NumericError
from dppdesign.kernels import synth_kernel
from dppdesign.search import GaConfig, genetic_search
from dppdesign.stopping import POLICY_LOG_HEADER
from dppdesign.trace import TRACE_HEADER, read_trace, write_trace
from conftest import BYTE_EDITS, mutate
from golden_pipeline import run_pipeline


def write_toy_trace(path, values=(1.0, 3.0, 2.0, 5.0)):
    rows = [TRACE_HEADER]
    best = -np.inf
    for i, v in enumerate(values, start=1):
        rows.append(f"{i},{v:.17g},{int(v > best)},0;1")
        best = max(best, v)
    path.write_text("\n".join(rows) + "\n")


def run(*argv):
    return main([str(a) for a in argv])


def gen_kernel(tmp_path, n, seed=0):
    """A gen-kernel file of n sites with the default lengthscale and nugget."""
    path = tmp_path / f"kernel_{n}_{seed}.csv"
    assert run("gen-kernel", "--n", n, "--seed", seed, "--out", path) == 0
    return path


class TestGenKernel:
    def test_writes_loadable_kernel(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        assert run("gen-kernel", "--n", 8, "--seed", 3, "--out", out) == 0
        from dppdesign import load_kernel

        assert load_kernel(out).dim == 8

    def test_bad_params_exit_one(self, tmp_path, capsys):
        assert run("gen-kernel", "--n", 0, "--out", tmp_path / "k.csv") == 1


class TestSolve:
    def test_greedy_vs_exhaustive(self, tmp_path, capsys):
        kern = tmp_path / "kernel.csv"
        run("gen-kernel", "--n", 10, "--seed", 4, "--out", kern)
        g = tmp_path / "greedy"
        e = tmp_path / "exact"
        assert run("solve", "--kernel", kern, "--k", 3, "--method", "greedy",
                   "--out-dir", g) == 0
        assert run("solve", "--kernel", kern, "--k", 3, "--method", "exhaustive",
                   "--out-dir", e) == 0
        best_g = json.loads((g / "best.json").read_text())
        best_e = json.loads((e / "best.json").read_text())
        assert best_g["log_det"] <= best_e["log_det"] + 1e-12

    @pytest.mark.parametrize("text", ["1,x\n0,1\n", "1,0,0\n0,1,0\n", "1,0.5\n0,1\n"],
                             ids=["non-numeric", "non-square", "asymmetric"])
    def test_malformed_kernel_exits_two(self, tmp_path, capsys, text):
        kern = tmp_path / "kernel.csv"
        kern.write_text(text)
        capsys.readouterr()
        assert run("solve", "--kernel", kern, "--k", 1, "--method", "greedy",
                   "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err.strip()
        assert str(kern) in err and "\n" not in err

    def test_non_finite_kernel_exits_two(self, tmp_path, capsys):
        kern = tmp_path / "kernel.csv"
        kern.write_text("1,0\n0,inf\n")
        capsys.readouterr()
        assert run("solve", "--kernel", kern, "--k", 1, "--method", "greedy",
                   "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"input error: matrix contains non-finite entries: {kern}\n")

    def test_dpp_on_too_few_positive_eigenvalues_exits_three(self, tmp_path, capsys):
        kern = tmp_path / "kernel.csv"
        np.savetxt(kern, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), delimiter=",")
        capsys.readouterr()
        assert run("solve", "--kernel", kern, "--k", 3, "--method", "dpp",
                   "--out-dir", tmp_path / "o") == 3
        assert capsys.readouterr().err == (
            "numeric error: rank deficient: fewer than 3 positive eigenvalues\n")

    def test_dpp_solve_writes_trace_and_meta(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("solve", "--kernel", gen_kernel(tmp_path, 10, 7), "--k", 3,
                   "--method", "dpp", "--max-iters", 200, "--seed", 1,
                   "--workers", 1, "--out-dir", out) == 0
        trace = read_trace(out / "trace.csv")
        assert trace.n == 200
        meta = json.loads((out / "run_meta.json").read_text())
        best = json.loads((out / "best.json").read_text())
        assert meta["run_id"] == best["run_id"]
        # no policy ran, so no audit trail
        assert "policy_checks" not in meta
        assert not (out / "policy.csv").exists()
        assert best["log_det"] == pytest.approx(trace.best_so_far[-1])

    def test_idempotent_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        kern = gen_kernel(tmp_path, 9, 2)
        for out in (a, b):
            assert run("solve", "--kernel", kern, "--k", 3,
                       "--method", "dpp", "--max-iters", 150, "--seed", 5,
                       "--workers", 2, "--out-dir", out) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "best.json").read_bytes() == (b / "best.json").read_bytes()

    def test_zero_iterations_is_config_error(self, tmp_path, capsys):
        code = run("solve", "--kernel", gen_kernel(tmp_path, 8), "--k", 2, "--method", "dpp",
                   "--max-iters", 0, "--out-dir", tmp_path / "x")
        assert code == 1

    def test_kernel_file_is_the_only_kernel_source(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("solve", "--k", 2, "--method", "greedy", "--out-dir", tmp_path / "x") == 1
        assert capsys.readouterr().err == "config error: --kernel, --k and --method are required\n"
        kern = gen_kernel(tmp_path, 6)
        for flag in ("--synth-n", "--lengthscale", "--nugget", "--kernel-seed"):
            assert run("solve", "--kernel", kern, flag, 6, "--k", 2, "--method", "greedy",
                       "--out-dir", tmp_path / "y") == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and flag in err
        cfg = tmp_path / "run.cfg"
        for key in ("synth_n", "lengthscale", "nugget", "kernel_seed"):
            cfg.write_text(f"kernel={kern}\nk=2\nmethod=greedy\n{key}=6\n")
            assert run("solve", "--config", cfg, "--out-dir", tmp_path / "y") == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"'{key}'" in err
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    @pytest.mark.parametrize("method", ["dpp", "greedy", "greedy-backward", "exchange",
                                        "ga", "exhaustive"])
    def test_k_out_of_range_exits_one_without_output(self, tmp_path, capsys, method):
        kern = gen_kernel(tmp_path, 6)
        for k in (0, 7):
            capsys.readouterr()
            out = tmp_path / f"k{k}"
            assert run("solve", "--kernel", kern, "--k", k, "--method", method,
                       "--max-iters", 5, "--out-dir", out) == 1
            assert capsys.readouterr().err == f"config error: k must be in [1, 6], got {k}\n"
            assert not out.exists()

    def test_ga_method_runs(self, tmp_path, capsys):
        out = tmp_path / "ga"
        assert run("solve", "--kernel", gen_kernel(tmp_path, 10, 1), "--k", 3,
                   "--method", "ga", "--max-iters", 10, "--seed", 2,
                   "--ga-population", 20, "--out-dir", out) == 0
        assert read_trace(out / "trace.csv").n == 11

    def test_ga_flags_set_every_ga_field(self, tmp_path, capsys):
        # At this size, leaving any one field at its default or swapping any
        # two of the values changes the trace.
        out = tmp_path / "ga"
        assert run("solve", "--kernel", gen_kernel(tmp_path, 20, 1), "--k", 5,
                   "--method", "ga", "--max-iters", 6, "--seed", 2,
                   "--ga-population", 20, "--ga-pcross", 0.5, "--ga-pmutprop", 0.4,
                   "--ga-pmut", 0.2, "--ga-elite", 0.25, "--ga-tournament", 3,
                   "--out-dir", out) == 0
        cfg = GaConfig(population=20, p_cross=0.5, p_mutprop=0.4, p_mut=0.2,
                       elite_fraction=0.25, tournament_size=3, generations=6)
        expected = tmp_path / "expected.csv"
        write_trace(genetic_search(synth_kernel(20, 0.5, 1e-6, 1), 5, cfg, seed=2), expected)
        assert (out / "trace.csv").read_bytes() == expected.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={gen_kernel(tmp_path, 10, 7)}\nk=3\nmethod=greedy\n")
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--method", "exhaustive",
                   "--out-dir", out) == 0
        assert json.loads((out / "best.json").read_text())["method"] == "exhaustive"

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={gen_kernel(tmp_path, 10)}\nk=3\nmethod=dpp\nmax_iter=50\n")
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'max_iter'" in err and str(cfg) in err
        assert not out.exists()

    def test_bad_config_value_names_key_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={gen_kernel(tmp_path, 10)}\nk=two\nmethod=greedy\n")
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'k'" in err and "'two'" in err and str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        ("k=2\nmethod=foo\n", "unknown method 'foo'"),
        ("k 2\nmethod=greedy\n", "bad config line: 'k 2'"),
    ], ids=["unknown-method", "no-equals-sign"])
    def test_bad_config_line_exits_one(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={gen_kernel(tmp_path, 6)}\n{lines}")
        capsys.readouterr()
        assert run("solve", "--config", cfg, "--out-dir", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_exchange_method(self, tmp_path, capsys):
        out = tmp_path / "ex"
        assert run("solve", "--kernel", gen_kernel(tmp_path, 9, 3), "--k", 3,
                   "--method", "exchange", "--out-dir", out) == 0

    @staticmethod
    def stopped_at_checkpoint(out, max_iters):
        meta = json.loads((out / "run_meta.json").read_text())
        stopped = meta["stopped_at"]
        assert stopped is None or stopped % 500 == 0
        assert read_trace(out / "trace.csv").n == (stopped or max_iters)
        # policy.csv holds one row per check, the last at the trace's end
        with open(out / "policy.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(POLICY_LOG_HEADER)
        assert len(rows) - 1 == meta["policy_checks"] == (stopped or max_iters) // 500
        assert [int(r[0]) for r in rows[1:]] == list(range(500, (stopped or max_iters) + 1, 500))
        assert [r[5] == "stop" for r in rows[1:]] == [False] * (len(rows) - 2) + [stopped is not None]
        return stopped

    def test_stop_flags(self, tmp_path, capsys):
        out = tmp_path / "stop"
        kern = gen_kernel(tmp_path, 12, 7)
        assert run("solve", "--kernel", kern, "--k", 4,
                   "--method", "dpp", "--max-iters", 2000, "--workers", 1,
                   "--stop", "--stop-check-every", 500, "--out-dir", out) == 0
        self.stopped_at_checkpoint(out, 2000)
        assert run("solve", "--kernel", kern, "--k", 4, "--method", "dpp",
                   "--stop-delta", 2, "--out-dir", tmp_path / "bad") == 1

    def test_stop_config_keys(self, tmp_path, capsys):
        # a policy this lax fires at the first checkpoint with a usable fit
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={gen_kernel(tmp_path, 12, 7)}\nk=4\nmethod=dpp\n"
                       "max_iters=2000\nworkers=1\nstop_check_every=500\n"
                       "stop_delta=0.99\nstop_max_wait=1\n")
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--out-dir", out) == 0
        assert self.stopped_at_checkpoint(out, 2000) is not None


# Each argument list differs from TestRunIdentity.BASE in one setting that can
# change a solve's output; greedy ignores most of them, and they still count.
_ID_CHANGES = [("--stop",), ("--stop-epsilon", 0.01), ("--stop-delta", 0.5),
               ("--stop-max-wait", 1000), ("--stop-check-every", 200),
               ("--ga-population", 50), ("--ga-pcross", 0.5), ("--ga-pmutprop", 0.3),
               ("--ga-pmut", 0.1), ("--ga-elite", 0.2), ("--ga-tournament", 3),
               ("--seed", 1), ("--k", 4), ("--max-iters", 21), ("--method", "exchange")]


class TestRunIdentity:
    """run_id covers every solve setting that can change the output and the
    kernel's bytes; not the kernel's path, the worker count or the out-dir."""

    BASE = ("--k", 3, "--method", "greedy", "--max-iters", 20, "--seed", 0)

    @staticmethod
    def run_id(out, *argv):
        assert run("solve", *argv, "--out-dir", out) == 0
        return json.loads((out / "best.json").read_text())["run_id"]

    @pytest.fixture
    def base_id(self, tmp_path, capsys):
        kern = gen_kernel(tmp_path, 9, 1)
        return kern, self.run_id(tmp_path / "base", "--kernel", kern, *self.BASE)

    @pytest.mark.parametrize("change", _ID_CHANGES, ids=[c[0] for c in _ID_CHANGES])
    def test_each_setting_changes_the_id(self, tmp_path, base_id, change):
        kern, base = base_id
        assert self.run_id(tmp_path / "changed", "--kernel", kern, *self.BASE, *change) != base

    def test_kernel_counts_by_its_bytes(self, tmp_path, base_id):
        kern, base = base_id
        copy = tmp_path / "elsewhere" / "copy.csv"
        copy.parent.mkdir()
        copy.write_bytes(kern.read_bytes())
        assert self.run_id(tmp_path / "copy", "--kernel", copy, *self.BASE) == base
        assert run("gen-kernel", "--n", 9, "--seed", 2, "--out", kern) == 0
        assert self.run_id(tmp_path / "other", "--kernel", kern, *self.BASE) != base

    def test_stop_flags_count_by_the_policy_they_resolve_to(self, tmp_path, base_id):
        kern, base = base_id
        ids = {self.run_id(tmp_path / f"stop{i}", "--kernel", kern, *self.BASE, *flags)
               for i, flags in enumerate([("--stop",), ("--stop", "--stop-epsilon", 0.001),
                                          ("--stop-epsilon", 0.001)])}
        assert len(ids) == 1 and base not in ids

    def test_config_file_and_flags_give_one_id(self, tmp_path, base_id):
        kern, base = base_id
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel={kern}\nk=3\nmethod=greedy\nmax_iters=20\n")
        assert self.run_id(tmp_path / "cfg", "--config", cfg) == base

    def test_workers_leave_best_json_unchanged(self, tmp_path, capsys):
        kern = gen_kernel(tmp_path, 9, 1)
        outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
        for workers, out in zip((1, 2), outs):
            assert run("solve", "--kernel", kern, "--k", 3, "--method", "dpp",
                       "--max-iters", 300, "--workers", workers, "--out-dir", out) == 0
        assert (outs[0] / "best.json").read_bytes() == (outs[1] / "best.json").read_bytes()
        metas = [json.loads((out / "run_meta.json").read_text()) for out in outs]
        assert metas[0]["config"] == metas[1]["config"]
        assert metas[0]["config"]["kernel_sha256"] == hashlib.sha256(kern.read_bytes()).hexdigest()
        assert [meta["workers"] for meta in metas] == [1, 2]


class TestAnalyzeRecords:
    def test_hand_trace_has_three_records(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace)
        out = tmp_path / "rec"
        assert run("analyze-records", "--trace", trace, "--sigma", 0,
                   "--out-dir", out) == 0
        summary = json.loads((out / "records_summary.json").read_text())
        assert summary["observed_records"] == 3
        assert summary["expected_records"] == pytest.approx(25 / 12)

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert run("analyze-records", "--trace", tmp_path / "none.csv",
                   "--out-dir", tmp_path / "o") == 2

    def test_header_only_trace_exits_two(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text(TRACE_HEADER + "\n")
        assert run("analyze-records", "--trace", p, "--out-dir", tmp_path / "o") == 2

    @staticmethod
    def assert_trace_rejected(trace, tmp_path, capsys):
        """Both trace commands exit 2 with one line naming the trace."""
        for command in ("analyze-records", "fit-tail"):
            capsys.readouterr()
            assert run(command, "--trace", trace, "--sigma", 0,
                       "--out-dir", tmp_path / command) == 2
            err = capsys.readouterr().err.strip()
            assert str(trace) in err and "\n" not in err

    @pytest.mark.parametrize("row", ["3,9,1,0;1;2;99", "3,9,1,2;1", "3,9,1,1;1",
                                     "3,9,1,-1;2", "3,9,1,", "2,9,1,0;1", "1,9,1,0;1",
                                     "3,nan,1,0;1", "3,inf,1,0;1", "3,-inf,1,0;1",
                                     "3,9,1,0;x", "3,9,1"])
    def test_malformed_subsets_exit_two(self, tmp_path, capsys, row):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=(1.0, 2.0))
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        self.assert_trace_rejected(trace, tmp_path, capsys)

    def test_empty_subsets_exit_two(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n1,1,1,\n2,2,1,\n")
        self.assert_trace_rejected(trace, tmp_path, capsys)

    def test_ties_without_jitter_exit_three(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=(1.0, 1.0, 2.0))
        code = run("analyze-records", "--trace", trace, "--sigma", 0,
                   "--out-dir", tmp_path / "o")
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric error: unjittered tie: jitter the trace before extracting records"
            " (re-run with a positive --sigma to jitter the trace)\n")

    def test_other_numeric_errors_get_no_jitter_hint(self, tmp_path, capsys, monkeypatch):
        # The hint follows the error's type, not a word in its message.
        def fail(trace):
            raise NumericError("no tie here")
        monkeypatch.setattr(cli, "extract_records", fail)
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace)
        assert run("analyze-records", "--trace", trace, "--sigma", 0,
                   "--out-dir", tmp_path / "o") == 3
        assert capsys.readouterr().err == "numeric error: no tie here\n"


class TestFitTail:
    def test_short_trace_exits_four(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=tuple(float(i) for i in range(20)))
        assert run("fit-tail", "--trace", trace, "--out-dir", tmp_path / "o") == 4
        # the comparators need 30 points, as the plain Weibull is the censored fit
        for family in ("weibull", "lognormal"):
            assert run("fit-tail", "--trace", trace, "--families", family,
                       "--out-dir", tmp_path / "o") == 4

    def test_constant_trace_is_degenerate_for_cens_weibull(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=(3.0,) * 400)
        assert run("fit-tail", "--trace", trace, "--families", "cens_weibull",
                   "--out-dir", tmp_path / "o") == 3
        assert "degenerate sample" in capsys.readouterr().err

    @pytest.mark.parametrize("families", [",", "", " , "])
    def test_no_family_exits_one(self, tmp_path, capsys, families):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace)
        out = tmp_path / "o"
        assert run("fit-tail", "--trace", trace, "--families", families,
                   "--out-dir", out) == 1
        assert capsys.readouterr().err == "config error: at least one family is required\n"
        assert not out.exists()

    def test_unknown_family_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace)
        assert run("fit-tail", "--trace", trace, "--families", "cauchy",
                   "--out-dir", tmp_path / "o") == 1

    def test_threshold_quantile_of_one_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=np.random.default_rng(0).normal(size=400))
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("fit-tail", "--trace", trace, "--threshold-quantile", 1.0,
                   "--out-dir", out) == 1
        assert capsys.readouterr().err == "config error: threshold_quantile must lie in [0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("family", ["weibull", "lognormal"])
    @pytest.mark.parametrize("level", ["1.0", "nan"])
    def test_threshold_level_is_checked_for_every_family(self, tmp_path, capsys, family,
                                                         level):
        # the comparators do not read the level, and still refuse one out of range
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=np.random.default_rng(0).normal(size=400))
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("fit-tail", "--trace", trace, "--families", family,
                   "--threshold-quantile", level, "--out-dir", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: threshold_quantile must lie in [0, 1)\n"
        assert captured.out == "" and not out.exists()

    def test_a_failing_family_leaves_no_output(self, tmp_path, capsys):
        # the weibull fit succeeds, and nothing of it is written when the gpd fit fails
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=np.random.default_rng(0).normal(size=35))
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("fit-tail", "--trace", trace, "--families", "weibull,gpd",
                   "--out-dir", out) == 4
        captured = capsys.readouterr()
        assert captured.err == "budget error: 4 exceedances above threshold, need >= 30\n"
        assert captured.out == "" and not out.exists()

    def test_each_family_is_fitted_only_when_named(self, tmp_path, capsys):
        # 1e13 + N(0, 1) is positive, so unshifted, and its logs spread by about
        # 1e-13: degenerate for the lognormal, not for the Weibull
        values = np.round(1e13 + np.random.default_rng(0).normal(size=500), 3)
        with pytest.raises(dppdesign.DegenerateSampleError, match="on the log scale"):
            dppdesign.fit_comparators(values)
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=values)
        out = tmp_path / "o"
        assert run("fit-tail", "--trace", trace, "--families", "weibull",
                   "--out-dir", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "density_weibull.csv", "fit_weibull.json", "qq_weibull_full.csv"]
        capsys.readouterr()
        assert run("fit-tail", "--trace", trace, "--families", "lognormal",
                   "--out-dir", tmp_path / "l") == 3
        assert capsys.readouterr().err == "numeric error: degenerate sample on the log scale\n"
        assert not (tmp_path / "l").exists()

    @pytest.mark.parametrize("values,flags", [
        pytest.param(np.random.default_rng(0).gumbel(size=30_000),
                     ["--threshold-quantile", 0.999, "--families", "cens_weibull"],
                     id="near-total-censoring"),
        pytest.param(np.random.default_rng(0).gumbel(size=400) * 7.6e11,
                     ["--families", "weibull,lognormal,cens_weibull"],
                     id="minimum-below-minus-2-to-the-34"),
    ])
    def test_extreme_samples_fit(self, tmp_path, capsys, values, flags):
        trace = tmp_path / "trace.csv"
        write_toy_trace(trace, values=values)
        capsys.readouterr()
        assert run("fit-tail", "--trace", trace, *flags, "--out-dir", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""


def _without(key):
    return lambda payload: json.dumps({k: v for k, v in payload.items() if k != key})


def _with(key, value):
    return lambda payload: json.dumps({**payload, key: value})


def _with_parameter(key, value):
    return lambda payload: json.dumps({**payload,
                                       "parameters": {**payload["parameters"], key: value}})


def _without_parameter(key):
    def corrupt(payload):
        params = {k: v for k, v in payload["parameters"].items() if k != key}
        return json.dumps({**payload, "parameters": params})
    return corrupt


class TestStoppingReportInputs:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        trace = d / "trace.csv"
        write_toy_trace(trace, values=np.random.default_rng(0).normal(size=400))
        assert run("fit-tail", "--trace", trace, "--families", "gpd",
                   "--out-dir", d) == 0
        reference = d / "best.json"
        reference.write_text(json.dumps({"log_det": 1.0}))
        assert run("stopping-report", "--trace", trace, "--fits", d / "fit_gpd.json",
                   "--reference-json", reference, "--out-dir", d / "report") == 0
        return {"trace": trace, "fit": d / "fit_gpd.json", "reference": reference}

    @pytest.mark.parametrize("flag", ["--epsilons=nan,0.001", "--epsilons=0.001,inf",
                                      "--reference=nan", "--reference=inf",
                                      "--reference=-inf"])
    def test_non_finite_epsilon_or_reference_exits_one(self, inputs, tmp_path, capsys,
                                                      flag):
        capsys.readouterr()
        assert run("stopping-report", "--trace", inputs["trace"], "--fits", inputs["fit"],
                   flag, "--out-dir", tmp_path / "report") == 1
        err = capsys.readouterr().err.strip()
        assert "finite" in err and "\n" not in err
        assert not (tmp_path / "report").exists()

    def test_nan_epsilon_leaves_no_output(self, inputs, tmp_path, capsys):
        capsys.readouterr()
        assert run("stopping-report", "--trace", inputs["trace"], "--fits", inputs["fit"],
                   "--epsilons", "nan", "--out-dir", tmp_path / "report") == 1
        assert capsys.readouterr().err == (
            "config error: epsilons must be finite and nonnegative, got (nan,)\n")
        assert not (tmp_path / "report").exists()

    def test_fits_with_different_jitter_exit_one(self, inputs, tmp_path, capsys):
        other = tmp_path / "seed1"
        assert run("fit-tail", "--trace", inputs["trace"], "--families", "gpd", "--seed", 1,
                   "--out-dir", other) == 0
        capsys.readouterr()
        assert run("stopping-report", "--trace", inputs["trace"],
                   "--fits", f"{inputs['fit']},{other / 'fit_gpd.json'}",
                   "--out-dir", tmp_path / "report") == 1
        assert capsys.readouterr().err == "config error: fits disagree on jitter parameters\n"

    @pytest.mark.parametrize("flags,message", [
        (lambda i: ["--fits", ","], "at least one fit JSON is required"),
        (lambda i: ["--fits", i["fit"], "--reference", 1.0, "--reference-json", i["reference"]],
         "give either --reference or --reference-json"),
    ], ids=["no-fit", "two-references"])
    def test_bad_report_flags_exit_one(self, inputs, tmp_path, capsys, flags, message):
        capsys.readouterr()
        assert run("stopping-report", "--trace", inputs["trace"], *flags(inputs),
                   "--out-dir", tmp_path / "report") == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("target,corrupt", [
        pytest.param("fit", None, id="fit-unreadable"),
        pytest.param("fit", lambda payload: "{not json", id="fit-not-json"),
        pytest.param("fit", lambda payload: json.dumps([payload]), id="fit-list"),
        pytest.param("fit", _without("jitter_sigma"), id="fit-no-jitter_sigma"),
        pytest.param("fit", _without("jitter_seed"), id="fit-no-jitter_seed"),
        pytest.param("fit", _without("family"), id="fit-no-family"),
        pytest.param("fit", _without("parameters"), id="fit-no-parameters"),
        pytest.param("fit", lambda payload: json.dumps({**payload, "family": "cauchy"}),
                     id="fit-unknown-family"),
        pytest.param("fit", _without_parameter("sigma"), id="fit-no-sigma"),
        pytest.param("fit", lambda payload: json.dumps({**payload, "parameters": [1.0]}),
                     id="fit-parameters-list"),
        pytest.param("fit", _with("jitter_sigma", [1e-8]), id="fit-list-jitter_sigma"),
        pytest.param("fit", _with("jitter_sigma", "1e-8"), id="fit-string-jitter_sigma"),
        pytest.param("fit", _with("jitter_sigma", None), id="fit-null-jitter_sigma"),
        pytest.param("fit", _with("jitter_sigma", -1.0), id="fit-negative-jitter_sigma"),
        pytest.param("fit", _with("jitter_sigma", True), id="fit-bool-jitter_sigma"),
        pytest.param("fit", _with("jitter_seed", [0]), id="fit-list-jitter_seed"),
        pytest.param("fit", _with("jitter_seed", "0"), id="fit-string-jitter_seed"),
        pytest.param("fit", _with("jitter_seed", None), id="fit-null-jitter_seed"),
        pytest.param("fit", _with("jitter_seed", 0.5), id="fit-float-jitter_seed"),
        pytest.param("fit", _with("shift", None), id="fit-null-shift"),
        pytest.param("fit", _with("shift", "0"), id="fit-string-shift"),
        pytest.param("fit", _with("threshold", [0.0]), id="fit-list-threshold"),
        pytest.param("fit", _with("threshold", "0"), id="fit-string-threshold"),
        pytest.param("fit", _with("shift", math.inf), id="fit-inf-shift"),
        pytest.param("fit", _with("n_used", None), id="fit-null-n_used"),
        pytest.param("fit", _with("n_used", []), id="fit-list-n_used"),
        pytest.param("fit", _with("n_used", True), id="fit-bool-n_used"),
        pytest.param("fit", _with("n_used", -1), id="fit-negative-n_used"),
        pytest.param("fit", _with("n_used", "5"), id="fit-string-n_used"),
        pytest.param("fit", _with("loglik", "abc"), id="fit-string-loglik"),
        pytest.param("reference", None, id="reference-unreadable"),
        pytest.param("reference", lambda payload: "not json", id="reference-not-json"),
        pytest.param("reference", lambda payload: json.dumps([payload]),
                     id="reference-list"),
        pytest.param("reference", _without("log_det"), id="reference-no-log_det"),
        pytest.param("reference", lambda payload: json.dumps({"log_det": None}),
                     id="reference-null-log_det"),
        pytest.param("reference", _with("log_det", True), id="reference-bool-log_det"),
        pytest.param("reference", _with("log_det", math.nan), id="reference-nan-log_det"),
        pytest.param("reference", _with("log_det", math.inf), id="reference-inf-log_det"),
        pytest.param("reference", _with("log_det", 10**400), id="reference-huge-log_det"),
        pytest.param("fit", _with_parameter("xi", True), id="fit-bool-parameter"),
        pytest.param("fit", _with_parameter("xi", math.nan), id="fit-nan-parameter"),
        pytest.param("fit", _with_parameter("mu", -math.inf), id="fit-inf-parameter"),
        pytest.param("fit", _with_parameter("mu", 10**400), id="fit-huge-parameter"),
        pytest.param("fit", _with_parameter("mu", "0"), id="fit-string-parameter"),
        pytest.param("fit", _with_parameter("sigma", -1.0), id="fit-negative-sigma"),
        pytest.param("fit", _with_parameter("sigma", 0), id="fit-zero-sigma"),
    ])
    def test_malformed_input_exits_two(self, inputs, tmp_path, capsys, target, corrupt):
        bad = tmp_path / inputs[target].name
        if corrupt is not None:
            bad.write_text(corrupt(json.loads(inputs[target].read_text())))
        files = {**inputs, target: bad}
        capsys.readouterr()
        assert run("stopping-report", "--trace", files["trace"], "--fits", files["fit"],
                   "--reference-json", files["reference"],
                   "--out-dir", tmp_path / "report") == 2
        err = capsys.readouterr().err.strip()
        assert str(bad) in err and "\n" not in err

    @pytest.mark.parametrize("target", ["kernel", "config", "trace", "fit", "reference"])
    def test_non_utf8_input_exits_two(self, inputs, tmp_path, capsys, target):
        # an otherwise good file with a 0xff byte at its end
        good = {"kernel": b"1,0\n0,1\n", "config": b"k=2\nmethod=greedy\n"}
        bad = tmp_path / f"{target}.txt"
        bad.write_bytes((good[target] if target in good else inputs[target].read_bytes())
                        + b"\xff")
        files = {**inputs, target: bad}
        argv = {
            "kernel": ["solve", "--kernel", bad, "--k", 1, "--method", "greedy"],
            "config": ["solve", "--config", bad],
            "trace": ["analyze-records", "--trace", bad],
        }.get(target, ["stopping-report", "--trace", files["trace"], "--fits", files["fit"],
                       "--reference-json", files["reference"]])
        capsys.readouterr()
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"input error: cannot read {target} {bad}: ") and "\n" not in err


@pytest.fixture(scope="module")
def four_fits(tmp_path_factory):
    """A 400-row trace and its fit JSON for each family."""
    d = tmp_path_factory.mktemp("four_fits")
    write_toy_trace(d / "trace.csv", values=np.random.default_rng(0).normal(size=400))
    assert run("fit-tail", "--trace", d / "trace.csv", "--families", ",".join(FAMILIES),
               "--out-dir", d) == 0
    return d


@pytest.mark.parametrize("family", ["weibull", "cens_weibull"])
def test_huge_weibull_shape_reports_without_a_warning(four_fits, tmp_path, capsys, family):
    # z**shape overflows above the scale: the survival there is exp(-inf) = 0
    fit = tmp_path / "fit.json"
    fit.write_text(_with_parameter("shape", 1.76e16)(
        json.loads((four_fits / f"fit_{family}.json").read_text())))
    capsys.readouterr()
    assert run("stopping-report", "--trace", four_fits / "trace.csv", "--fits", fit,
               "--out-dir", tmp_path / "report") == 0
    assert capsys.readouterr().err == ""


@given(family=st.sampled_from(FAMILIES), slot=st.integers(0, 4),
       value=st.floats() | st.integers(-2**70, 2**70), edits=st.none() | BYTE_EDITS)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_mutated_fit_json_exits_with_one_line(four_fits, family, slot, value, edits):
    """stopping-report on a fit JSON with one parameter or the shift set to
    any number, then byte-edited or not, writes its report or exits 1 or 2
    with one line, and never meets a dppdesign RuntimeWarning."""
    payload = json.loads((four_fits / f"fit_{family}.json").read_text())
    names = [*sorted(payload["parameters"]), "shift"]
    name = names[slot % len(names)]
    (payload if name == "shift" else payload["parameters"])[name] = value
    fit = four_fits / "mutated.json"
    fit.write_bytes(mutate(json.dumps(payload).encode(), edits or []))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run("stopping-report", "--trace", four_fits / "trace.csv", "--fits", fit,
                   "--out-dir", four_fits / "report")
    lines = err.getvalue().splitlines(keepends=True)
    assert (code, lines) == (0, []) or (code in (1, 2) and len(lines) == 1), (code, lines)


class TestPipeline:
    @pytest.fixture
    def solved(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("solve", "--kernel", gen_kernel(tmp_path, 12, 7), "--k", 4,
                   "--method", "dpp", "--max-iters", 3000, "--seed", 0,
                   "--workers", 2, "--out-dir", out) == 0
        return out

    def test_fit_then_stopping_report(self, tmp_path, solved, capsys):
        fits = tmp_path / "fits"
        assert run("fit-tail", "--trace", solved / "trace.csv",
                   "--families", ",".join(FAMILIES), "--out-dir", fits) == 0
        for fam in FAMILIES:
            assert (fits / f"fit_{fam}.json").exists()
            assert (fits / f"qq_{fam}_full.csv").exists()
            assert (fits / f"density_{fam}.csv").exists()
        assert (fits / "qq_gpd_tail.csv").exists()

        rep = tmp_path / "report"
        code = run("stopping-report", "--trace", solved / "trace.csv",
                   "--fits", ",".join(f"{fits}/fit_{fam}.json" for fam in FAMILIES),
                   "--reference-json", solved / "best.json",
                   "--out-dir", rep)
        assert code == 0
        gpd_csv = (rep / "stopping_gpd.csv").read_text().splitlines()
        assert gpd_csv[0].startswith("n_sims,record,p_eps_1")
        # final record equals the best of the run: reference already beaten
        assert gpd_csv[-1].split(",")[-2] == ">1"

        # recompute the expected-wait column of each closed-form model from
        # its published parameters; the report rows are pure survival ratios
        def weib_sf(p, shift, r):
            return math.exp(-((max(r - shift, 0.0) / p["scale"]) ** p["shape"]))

        def lognorm_sf(p, shift, r):
            if r <= shift:
                return 1.0
            return 0.5 * math.erfc((math.log(r - shift) - p["mu"]) / (p["sigma"] * math.sqrt(2)))

        for fam, sf in (("cens_weibull", weib_sf), ("weibull", weib_sf),
                        ("lognormal", lognorm_sf)):
            fit = json.loads((fits / f"fit_{fam}.json").read_text())
            rows = (rep / f"stopping_{fam}.csv").read_text().splitlines()[1:]
            assert rows
            for row in rows:
                parts = row.split(",")
                wait = float(parts[-1])
                assert wait == pytest.approx(
                    1.0 / sf(fit["parameters"], fit["shift"], float(parts[1])), rel=1e-8)

    def test_run_id_mismatch_exits_one(self, tmp_path, solved, capsys):
        fits = tmp_path / "fits"
        assert run("fit-tail", "--trace", solved / "trace.csv",
                   "--families", "gpd", "--out-dir", fits) == 0
        other = tmp_path / "other.csv"
        write_toy_trace(other, values=tuple(float(i) for i in range(40)))
        code = run("stopping-report", "--trace", other,
                   "--fits", fits / "fit_gpd.json", "--out-dir", tmp_path / "r")
        assert code == 1
        err = capsys.readouterr().err
        assert "mismatch" in err and "different trace file" in err and err.count("\n") == 1

    def test_trace_roundtrip_through_analyze(self, tmp_path, solved, capsys):
        out = tmp_path / "rec"
        assert run("analyze-records", "--trace", solved / "trace.csv",
                   "--out-dir", out) == 0
        summary = json.loads((out / "records_summary.json").read_text())
        assert summary["trace_length"] == 3000


class TestGoldenOutputs:
    def test_pipeline_outputs_match_committed_digests(self, tmp_path):
        """Every file of a small solve -> analyze-records -> fit-tail ->
        stopping-report pipeline is byte-identical to the committed
        reference; golden_pipeline.py says how it was made."""
        golden = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
        digests = run_pipeline(tmp_path)
        assert sorted(digests) == sorted(golden)
        assert [name for name in golden if digests[name] != golden[name]] == []


# scipy is imported where a lognormal evaluation or a record-gap integral
# calls it; the tail fits and the stopping-policy check run on numpy and
# the package's own solvers.  Loading scipy.optimize, scipy.special
# and scipy.integrate with the package took about 0.4 s and 43 MB of peak
# RSS per command (measured on a 2-core VM); these tests start fresh
# interpreters, since the test modules themselves import scipy.
_LIST_SCIPY = ("print(json.dumps(sorted(m for m in sys.modules "
               "if m == 'scipy' or m.startswith('scipy.'))))")


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this checkout's package;
    returns its standard output."""
    src = str(Path(dppdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_import_leaves_scipy_unloaded():
    out = _fresh_python("import json, sys, dppdesign, dppdesign.cli; " + _LIST_SCIPY)
    assert json.loads(out) == []


def test_commands_that_fit_nothing_leave_scipy_unloaded(tmp_path, capsys):
    pre = tmp_path / "pre"
    kern = gen_kernel(tmp_path, 12, 7)
    assert run("solve", "--kernel", kern, "--k", 4, "--method", "dpp",
               "--max-iters", 2000, "--seed", 0, "--workers", 1, "--out-dir", pre) == 0
    trace = pre / "trace.csv"
    assert run("fit-tail", "--trace", trace, "--families", "gpd,cens_weibull",
               "--out-dir", pre) == 0
    solve = ["solve", "--kernel", kern, "--k", 4, "--seed", 0]
    commands = [[*solve, "--method", "dpp", "--max-iters", 2000, "--workers", 2]]
    commands += [[*solve, "--method", m, "--max-iters", 5] for m in ("greedy", "exchange", "ga")]
    commands.append(["analyze-records", "--trace", trace])
    commands += [["stopping-report", "--trace", trace, "--fits", pre / f"fit_{fam}.json"]
                 for fam in ("gpd", "cens_weibull")]
    argvs = [[*map(str, argv), "--out-dir", str(tmp_path / str(i))]
             for i, argv in enumerate(commands)]
    out = _fresh_python(
        "import json, sys\n"
        "from dppdesign.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n" + _LIST_SCIPY,
        json.dumps(argvs),
    ).splitlines()
    assert json.loads(out[-2]) == [0] * len(argvs)
    assert json.loads(out[-1]) == []
    assert (tmp_path / "6" / "stopping_cens_weibull.csv").exists()


# The fits reach the package's bounded solver and root bisection, the
# lognormal's quantile the package's ndtri, and the other calls reach a
# deferred scipy import: the lognormal survival's ndtr, and the quadrature
# beyond the exact gap limit (j = 100 > 64).
_COLD_CALLS = """
import numpy as np
from dppdesign import FittedCdf, fit_censored_weibull, fit_gpd_pot, inter_record_time_tail
x = np.random.default_rng(0).gumbel(size=500)
lognormal = FittedCdf("lognormal", {"mu": 0.2, "sigma": 0.7}, shift=-1.0)
results = (fit_gpd_pot(x), fit_censored_weibull(x),
           lognormal.survival([-2.0, 0.5, 3.0]).tolist(),
           lognormal.quantile([0.0, 0.1, 0.999]).tolist(),
           inter_record_time_tail(2, 100))
"""


def test_cold_scipy_imports_give_the_same_floats(monkeypatch):
    from dppdesign import tails

    root_calls = []
    root = tails._censored_log_y
    monkeypatch.setattr(tails, "_censored_log_y",
                        lambda *a, **kw: root_calls.append(1) or root(*a, **kw))
    namespace = {}
    exec(_COLD_CALLS, namespace)
    monkeypatch.undo()
    assert root_calls  # the sample reaches the censored fit's root solve
    out = _fresh_python(
        "import json, sys, dppdesign\n"
        "cold = not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        + _COLD_CALLS + "print(cold)\nprint(repr(results))\n"
    ).splitlines()
    assert out == ["True", repr(namespace["results"])]


def test_fits_and_policy_checks_leave_scipy_unloaded(tmp_path):
    kern = gen_kernel(tmp_path, 12, 7)
    fits = tmp_path / "fits"
    solve = ["solve", "--kernel", kern, "--k", 4, "--method", "dpp", "--max-iters", 3000,
             "--seed", 0, "--workers", 1]
    families = ("gpd", "cens_weibull", "weibull")
    commands = [
        [*solve, "--stop", "--stop-check-every", 500, "--out-dir", tmp_path / "stop"],
        [*solve, "--out-dir", tmp_path / "full"],
        ["fit-tail", "--trace", tmp_path / "full" / "trace.csv",
         "--families", ",".join(families), "--out-dir", fits],
        ["stopping-report", "--trace", tmp_path / "full" / "trace.csv",
         "--fits", ",".join(str(fits / f"fit_{fam}.json") for fam in families),
         "--out-dir", tmp_path / "report"],
    ]
    out = _fresh_python(
        "import json, sys\n"
        "from dppdesign import StoppingPolicy, dpp_search, load_kernel\n"
        "from dppdesign.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "K = load_kernel(sys.argv[2])\n"
        "checks = [[c.xi is not None for c in dpp_search(\n"
        "    K, 4, 3000, stop=StoppingPolicy(check_every=500), workers=w).policy_checks]\n"
        "    for w in (1, 2)]\n"
        "print(json.dumps([codes, checks]))\n" + _LIST_SCIPY,
        json.dumps([[*map(str, argv)] for argv in commands]), kern,
    ).splitlines()
    codes, checks = json.loads(out[-2])
    assert codes == [0] * len(commands)
    assert checks[0] == checks[1] and checks[0] and all(checks[0])  # every check fitted
    assert json.loads(out[-1]) == []
    with open(tmp_path / "stop" / "policy.csv", newline="") as fh:
        assert [row["xi"] != "" for row in csv.DictReader(fh)] == checks[0]
    assert sorted(p.name for p in (tmp_path / "report").glob("stopping_*.csv")) == [
        f"stopping_{fam}.csv" for fam in sorted(families)]

    # fit-tail with its default families, the lognormal's QQ export included,
    # loads no scipy; a lognormal survival in the stopping report loads
    # scipy.special, and nothing of scipy.optimize.
    command = ("import json, sys\n"
               "from dppdesign.cli import main\n"
               "print(main(sys.argv[1:]))\n" + _LIST_SCIPY)
    out = _fresh_python(command, "fit-tail", "--trace", tmp_path / "full" / "trace.csv",
                        "--out-dir", tmp_path / "default").splitlines()
    assert out[-2] == "0" and json.loads(out[-1]) == []
    assert sorted(p.name for p in (tmp_path / "default").glob("fit_*.json")) == [
        f"fit_{fam}.json" for fam in sorted(FAMILIES)]
    out = _fresh_python(command, "stopping-report", "--trace", tmp_path / "full" / "trace.csv",
                        "--fits", tmp_path / "default" / "fit_lognormal.json",
                        "--out-dir", tmp_path / "lognormal").splitlines()
    assert out[-2] == "0"
    loaded = json.loads(out[-1])
    assert "scipy.special" in loaded and not any(m.startswith("scipy.optimize") for m in loaded)
