"""Every report writer against the row-loop writer it replaced.

The old_* functions are verbatim copies of the per-row writers that
formatted cells by hand; the writers built on textio must produce the
same bytes on inputs that stress the cell format.
"""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dppdesign import textio
from dppdesign.textio import write_csv, write_json
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
    other = np.column_stack([srt, srt[::-1]])
    for i, points in enumerate([full, tail, other, full[:0]]):
        old_write_qq_csv(points, tmp_path / f"old{i}")
        write_qq_csv(points, tmp_path / f"new{i}")
        assert (tmp_path / f"new{i}").read_bytes() == (tmp_path / f"old{i}").read_bytes()


def test_qq_columns_equal_in_value_but_not_in_bits(tmp_path):
    srt = np.array([-1.0, -0.0, 0.0, 1 / 3, math.nan])
    swapped = np.array([0.0, -0.0, 1 / 3, math.nan])  # == srt[1:], but not in bits
    for i, emp in enumerate([srt, srt[2:], swapped, srt[:0]]):
        points = np.column_stack([emp[::-1], emp])
        old_write_qq_csv(points, tmp_path / f"old{i}")
        write_qq_csv(points, tmp_path / f"new{i}")
        assert (tmp_path / f"new{i}").read_bytes() == (tmp_path / f"old{i}").read_bytes()


def test_str_cells_are_written_verbatim(tmp_path):
    # The pad byte deleted from each block is never a byte of UTF-8 text,
    # so a NUL (or any other character) in a str cell survives.
    write_csv(tmp_path / "t.csv", ["a", "b"], [["1\x005", "x\x00", "\x00", "ü\x7f"],
                                               [1.5, None, "\x00\n", 2]])
    assert (tmp_path / "t.csv").read_bytes() == (
        "a,b\n1\x005,1.5\nx\x00,\n\x00,\"\x00\n\"\nü\x7f,2\n".encode())


def test_rows_past_one_block(tmp_path):
    values = np.random.default_rng(1).normal(size=2 * textio._BLOCK_ROWS + 500) ** 3
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
    ]
    same_bytes(tmp_path, old_write_policy_csv, write_policy_csv, checks)
    with open(tmp_path / "new", newline="") as fh:
        assert list(csv.reader(fh))[1][-1] == checks[0].reason


def test_policy_reason_with_a_carriage_return_is_quoted(tmp_path):
    # The csv module leaves a lone \r unquoted with lineterminator="\n", and
    # csv.reader then splits the row there; the writer quotes it.
    checks = [
        PolicyCheck(6000, 1.0, -0.5, 0.25, 4.0, "continue", "carriage\rreturn; tab\t"),
        PolicyCheck(7000, None, None, None, None, "unevaluable", 'a\r\n"b",\r'),
        PolicyCheck(8000, 2.0, 0.0, 0.5, 2.0, "stop", "plain"),
    ]
    write_policy_csv(checks, tmp_path / "new")
    lines = (tmp_path / "new").read_bytes().split(b"\n")
    assert lines[1] == b'6000,1,-0.5,0.25,4,continue,"carriage\rreturn; tab\t"'
    with open(tmp_path / "new", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[-1] for row in rows[1:]] == [c.reason for c in checks]


def test_benchmark_sized_files(tmp_path):
    rng = np.random.default_rng(7)
    n = 50_000
    trace = SampleTrace(np.arange(1, n + 1), -10.0 - rng.exponential(size=n),
                        np.sort(rng.random((n, 30)).argsort(axis=1)[:, :10], axis=1))
    same_bytes(tmp_path, old_write_trace, write_trace, trace)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 20, n)
    values[::97] = 0.0
    points = np.column_stack([values, np.sort(values)])
    same_bytes(tmp_path, old_write_qq_csv, write_qq_csv, points)


def test_write_qq_csv_peaks_below_a_megabyte(tmp_path):
    values = np.random.default_rng(3).normal(size=50_000)
    points = np.column_stack([values, np.sort(values)])
    tracemalloc.start()
    try:
        write_qq_csv(points, tmp_path / "qq.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "qq.csv").stat().st_size > 1_500_000
    assert peak <= 1_000_000


# ---------------------------------------------------------------------------
# Each numeric cell against Python's own formatting


def assert_cells_as_printf(path, values, spec):
    write_csv(path, ["v"], [values])
    text = "".join(f"{format(v, spec)}\n" for v in values.tolist())
    assert path.read_bytes() == f"v\n{text}".encode()


def test_float_cells_equal_printf(tmp_path):
    rng = np.random.default_rng(20)
    tens = 10.0 ** np.arange(-6, 18)
    ties = [np.floor(rng.uniform(3e14, 2e15, 100_000) / step) * step + step / 2
            for step in (0.0625, 0.125, 0.25)]
    values = np.concatenate([
        rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64),
        rng.choice([-1.0, 1.0], 350_000) * 10.0 ** rng.uniform(-8, 20, 350_000),
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens, *ties,
        np.round(rng.normal(size=100_000) * 1000, 2), np.round(rng.normal(size=100_000), 4),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, 1e-5, 1.5e-5,
         1e-4, 2.5e-4, 9.99e15, 1.5e16, -1.5e16, 1.5e17, 1e17, 2.0**53, 2.0**53 + 2],
    ])
    assert values.size >= 1_000_000
    assert_cells_as_printf(tmp_path / "c.csv", values, ".17g")


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_float_cells_of_any_bits_equal_printf(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_cells_as_printf(tmp_path_factory.getbasetemp() / "bits.csv", values, ".17g")


@pytest.mark.parametrize("values", [
    np.array([0, 9999, 10_000, -1, -9999, -10_000, 123_456_789, 10**16, -10**16 + 1,
              2**63 - 1, -2**63]),
    np.array([0, 1, 99, 2**64 - 1, 10**19], dtype=np.uint64),
    np.array([0, 7, 42], dtype=np.int8),
    np.array([True, False, True]),
], ids=["int64", "uint64", "int8", "bool"])
def test_int_cells_equal_printf(tmp_path, values):
    assert_cells_as_printf(tmp_path / "c.csv", values, "d")


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
