"""Every report writer against the row-loop writer it replaced.

The old_* functions are verbatim copies of the per-row writers that
formatted cells by hand; the writers built on textio must produce the
same bytes on inputs that stress the cell format.
"""

import csv
import json
import math

import numpy as np
import pytest

from dppdesign import tails
from dppdesign.records import RECORD_LOG_HEADER, RecordSequence, write_record_log
from dppdesign.stopping import (
    POLICY_LOG_HEADER,
    PolicyCheck,
    StoppingReport,
    StoppingRow,
    write_policy_csv,
    write_stopping_csv,
)
from dppdesign.tails import (
    FittedCdf,
    _check_values,
    exponential_cdf,
    write_density_overlay,
    write_fit_report,
    write_qq_csv,
)
from dppdesign.textio import Cells, float_cells, write_csv, write_json
from dppdesign.trace import TRACE_HEADER, SampleTrace, record_flags, write_trace

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, -2.5, 1 / 3]


# ---------------------------------------------------------------------------
# The replaced writers, kept verbatim as the reference


def old_write_trace(trace: SampleTrace, path) -> None:
    flags = record_flags(trace.values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for it, val, flag, sub in zip(
            trace.iterations, trace.values, flags, trace.subsets
        ):
            joined = ";".join(str(i) for i in sub)
            fh.write(f"{it},{val:.17g},{int(flag)},{joined}\n")


def old_write_record_log(records: RecordSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RECORD_LOG_HEADER + "\n")
        for d in range(records.count):
            gap = "" if d == 0 else str(int(records.gaps[d - 1]))
            sub = ""
            if records.subsets is not None:
                sub = ";".join(str(i) for i in records.subsets[d])
            fh.write(
                f"{d},{records.values[d]:.17g},{records.times[d]},"
                f"{gap},{records.increments[d]:.17g},{sub}\n"
            )


def old_fmt_prob(p: float | None) -> str:
    if p is None:
        return "n/a"
    if p > 1.0:
        return ">1"
    return f"{p:.17g}"


def old_write_stopping_csv(report: StoppingReport, path) -> None:
    """Table-style CSV: n_sims,record,p_eps_*,beat_reference,expected_wait."""
    eps_cols = ",".join(f"p_eps_{i + 1}" for i in range(len(report.epsilons)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n_sims,record,{eps_cols},beat_reference,expected_wait\n")
        for row in report.rows:
            probs = ",".join(f"{row.eps_probs[e]:.17g}" for e in report.epsilons)
            wait = "inf" if math.isinf(row.expected_wait) else f"{row.expected_wait:.17g}"
            fh.write(
                f"{row.n_sims},{row.record:.17g},{probs},"
                f"{old_fmt_prob(row.beat_reference)},{wait}\n"
            )


def old_write_policy_csv(checks, path) -> None:
    """One row per policy check; empty cells where a failed check computed
    nothing, "inf" for an infinite expected wait."""
    def cell(x):
        return "" if x is None else "inf" if x == math.inf else f"{x:.17g}"

    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(POLICY_LOG_HEADER)
        for c in checks:
            out.writerow([c.iteration, cell(c.threshold), cell(c.xi), cell(c.p_eps),
                          cell(c.expected_wait), c.decision, c.reason])


def old_write_qq_csv(points: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theoretical,empirical\n")
        for theo, emp in points:
            fh.write(f"{theo:.17g},{emp:.17g}\n")


def old_write_density_overlay(fit: FittedCdf, values, path) -> None:
    """CSV of empirical histogram density and fitted density on a
    512-point grid over the sample range."""
    x = _check_values(values)
    dens, edges = np.histogram(x, bins="auto", density=True)
    grid = np.linspace(x.min(), x.max(), 512)
    idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, dens.size - 1)
    emp = dens[idx]
    fitted = fit.pdf(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,empirical_density,fitted_density\n")
        for g, e, f in zip(grid, emp, fitted):
            fh.write(f"{g:.17g},{e:.17g},{f:.17g}\n")


def old_write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------


def same_bytes(tmp_path, old, new, *args):
    old(*args, tmp_path / "old")
    new(*args, tmp_path / "new")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


class _SpecialPdf:
    """A fit whose density takes every special value along the grid."""

    def pdf(self, grid):
        return np.resize(np.array(SPECIAL), grid.size)


def test_trace(tmp_path):
    n = 3 * len(SPECIAL)
    trace = SampleTrace(np.arange(1, n + 1, dtype=np.int64) * 3 - 2,
                        SPECIAL * 3, [(i, i + 7, 10**12) for i in range(n)])
    assert isinstance(trace.iterations[0], np.int64)
    same_bytes(tmp_path, old_write_trace, write_trace, trace)


@pytest.mark.parametrize("with_subsets", [True, False])
def test_record_log(tmp_path, with_subsets):
    values = [-1e308, -2.5, -0.0, 5e-324, 1 / 3, 1e308, math.inf]
    subsets = [(i, i + 1) for i in range(len(values))] if with_subsets else None
    records = RecordSequence(values, [1, 2, 5, 9, 100, 101, 10**9], subsets,
                             10**9, math.nan)
    same_bytes(tmp_path, old_write_record_log, write_record_log, records)


def test_qq(tmp_path):
    points = np.column_stack([SPECIAL, SPECIAL[::-1]])
    same_bytes(tmp_path, old_write_qq_csv, write_qq_csv, points)


def test_qq_files_of_one_sample(tmp_path):
    srt = np.array([-math.inf, -1.0, -0.0, 0.0, 5e-324, 1 / 3, 1e308, math.inf])
    full = np.column_stack([[-0.0, -1.0, 0.0, -0.0, 5e-324, math.nan, 2.0, math.inf], srt])
    tail = np.column_stack([[0.0, -0.0, 1 / 3, 1e308, math.nan], srt[3:]])
    other = np.column_stack([srt, srt[::-1]])  # not a suffix: formatted afresh
    sample = None
    for i, points in enumerate([full, tail, other, full[:0]]):
        old_write_qq_csv(points, tmp_path / f"old{i}")
        sample = write_qq_csv(points, tmp_path / f"new{i}", sample)
        assert (tmp_path / f"new{i}").read_bytes() == (tmp_path / f"old{i}").read_bytes()
    assert np.shares_memory(sample[0], full) and sample[1] == [f"{v:.17g}" for v in srt]


def test_qq_cells_are_reused_for_a_suffix_equal_in_bits(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(tails, "float_cells", lambda x: calls.append(x.size) or float_cells(x))
    srt = np.array([-1.0, -0.0, 0.0, 1 / 3, math.nan])
    sample = write_qq_csv(np.column_stack([srt, srt]), tmp_path / "new")
    swapped = np.array([0.0, -0.0, 1 / 3, math.nan])  # == srt[1:], but not in bits
    for i, emp in enumerate([srt[2:], swapped, srt[:0]]):
        points = np.column_stack([emp[::-1], emp])
        old_write_qq_csv(points, tmp_path / f"old{i}")
        assert write_qq_csv(points, tmp_path / f"new{i}", sample) is sample
        assert (tmp_path / f"new{i}").read_bytes() == (tmp_path / f"old{i}").read_bytes()
    assert calls == [5, 4]  # the sample, then the column that is no suffix of it


def test_preformatted_cells(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [Cells(["1,5", "x"]), [1.5, None]])
    assert (tmp_path / "t.csv").read_text() == "a,b\n1,5,1.5\nx,\n"


def test_rows_past_one_block(tmp_path):
    values = np.random.default_rng(1).normal(size=1500) ** 3
    points = np.column_stack([values, np.sort(values)])
    same_bytes(tmp_path, old_write_qq_csv, write_qq_csv, points)


@pytest.mark.parametrize("fit", [exponential_cdf(2.0), _SpecialPdf()],
                         ids=["exponential", "special"])
def test_density(tmp_path, fit):
    values = np.random.default_rng(0).exponential(size=500)
    same_bytes(tmp_path, old_write_density_overlay, write_density_overlay, fit, values)


def test_stopping(tmp_path):
    eps = (0.0, 0.001, 0.5)
    rows = tuple(
        StoppingRow(n_sims=i + 1, record=rec, eps_probs=dict(zip(eps, probs)),
                    beat_reference=beat, expected_wait=wait)
        for i, (rec, probs, beat, wait) in enumerate([
            (-0.0, (1.0, 5e-324, -0.0), None, 1.0),
            (1e308, (0.5, 1 / 3, 0.0), math.inf, math.inf),
            (2.5, (0.25, 0.125, 1e-300), 1.0000000000000002, 1e308),
            (3.5, (math.nan, 0.0, 0.0), 0.75, 12345.678),
        ])
    )
    report = StoppingReport(model="gpd", epsilons=eps, rows=rows,
                            increment_mode="multiplicative", increment_scale=None)
    same_bytes(tmp_path, old_write_stopping_csv, write_stopping_csv, report)
    text = (tmp_path / "new").read_text()
    assert ",n/a," in text and ",>1," in text and text.count(",inf\n") == 1


def test_policy(tmp_path):
    checks = [
        PolicyCheck(1000, None, None, None, None, "unevaluable",
                    'fit failed: 12 exceedances, need >= 30, "GPD"\nretry'),
        PolicyCheck(2000, -0.0, -0.25, 5e-324, math.inf, "continue"),
        PolicyCheck(3000, 1e308, math.nan, 0.001, 1e6, "stop", "a,b"),
        PolicyCheck(4000, -1e308, -math.inf, 1.0, 2.5, "continue", "plain"),
        PolicyCheck(5000, 1.0, -0.5, 0.25, 4.0, "continue", "line\nbreak"),
        PolicyCheck(6000, 1.0, -0.5, 0.25, 4.0, "continue", "carriage\rreturn; tab\t"),
    ]
    same_bytes(tmp_path, old_write_policy_csv, write_policy_csv, checks)
    with open(tmp_path / "new", newline="") as fh:
        assert list(csv.reader(fh))[1][-1] == checks[0].reason


def test_header_only(tmp_path):
    same_bytes(tmp_path, old_write_policy_csv, write_policy_csv, [])
    same_bytes(tmp_path, old_write_qq_csv, write_qq_csv, np.empty((0, 2)))


def test_cells(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"],
              [[np.int64(7), True], [None, -0.0], np.array([[0, 2], [3, 1]]),
               ["x y", "1,2"], np.array([np.inf, 5e-324])])
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c,d,e\n7,,0;2,x y,inf\n1,-0,3;1,\"1,2\",4.9406564584124654e-324\n"
    )


@pytest.mark.parametrize("payload", [
    {"family": "gpd", "parameters": {"sigma": 1 / 3, "xi": -0.0, "mu": 5e-324},
     "threshold": None, "shift": 0.0, "loglik": -1e308, "n_used": 10**20},
    {"b": [1, 2.5, None, True], "a": {"z": "ü", "y": []}, "wait": math.inf},
])
def test_json(tmp_path, payload):
    old_write_json(tmp_path / "old", payload)
    write_json(tmp_path / "new", payload)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_fit_report(tmp_path):
    fit = exponential_cdf(0.5, -1.0)
    meta = {"trace_sha256": "0" * 64, "jitter_sigma": 1e-8, "jitter_seed": 3}

    def old(fit, meta, path):
        payload = {"family": fit.family, "parameters": fit.params,
                   "threshold": fit.threshold, "shift": fit.shift,
                   "loglik": fit.loglik, "n_used": fit.n_used, **meta}
        old_write_json(path, payload)

    def new(fit, meta, path):
        write_fit_report(fit, path, meta)

    same_bytes(tmp_path, old, new, fit, meta)
