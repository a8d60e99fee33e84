"""The columnar trace against the text-based trace I/O it replaced.

old_read_trace, old_write_trace and the old_cell/old_write_csv pair they
write through are verbatim copies of the reader that parsed one row at a
time and the writer that sent every cell through csv.writer.  The
columnar reader and the block writer must give the same bytes and
bit-identical arrays, and reject every row the old reader rejected.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import BYTE_EDITS, mutate
from dppdesign.errors import InputFormatError
from dppdesign.kernels import synth_kernel
from dppdesign.search import dpp_search
from dppdesign import trace as trace_module
from dppdesign.trace import TRACE_HEADER, SampleTrace, read_trace, record_flags, write_trace

# ---------------------------------------------------------------------------
# The replaced reader and writer, kept verbatim as the reference


def old_cell(x) -> str:
    """17 significant digits for a float (so files parse back losslessly;
    infinities read inf), digits for an int, an empty cell for None and
    ;-joined indices for a subset tuple."""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return ";".join(map(str, x))
    return "" if x is None else format(x, "d")


def old_write_csv(path, header, columns) -> None:
    """Header row, then one row per position of the equal-length columns
    (sequences, or numpy arrays read as Python scalars).  Cells are
    formatted as their row is written; a string holding a comma, quote or
    newline is quoted."""
    cells = [map(old_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(zip(*cells))


def old_write_trace(trace: SampleTrace, path) -> None:
    old_write_csv(path, TRACE_HEADER.split(","),
                  [trace.iterations, trace.values, record_flags(trace.values), trace.subsets])


def old_read_trace(path) -> SampleTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    if not lines or lines[0] != TRACE_HEADER:
        raise InputFormatError(f"not a trace file (bad header): {path}")
    if len(lines) == 1:
        raise InputFormatError(f"empty trace: {path}")
    iterations, values, subsets = [], [], []
    for ln in lines[1:]:
        try:
            it, value, _, subset = ln.split(",")
            iterations.append(int(it))
            values.append(float(value))
            subsets.append(tuple(int(s) for s in subset.split(";") if s))
        except ValueError:
            raise InputFormatError(f"malformed trace row in {path}: {ln!r}") from None
    if not np.all(np.isfinite(values)):
        raise InputFormatError(f"trace log_det values must be finite: {path}")
    try:
        idx = np.array(subsets, dtype=np.int64)
    except (ValueError, OverflowError):
        raise InputFormatError(
            f"trace subsets differ in size or overflow int64: {path}"
        ) from None
    if idx.shape[1] == 0 or idx.min() < 0 or np.any(np.diff(idx, axis=1) <= 0):
        raise InputFormatError(
            f"trace subsets must hold nonempty, nonnegative, strictly increasing "
            f"indices: {path}"
        )
    try:
        return SampleTrace(iterations, values, subsets)
    except ValueError as exc:
        raise InputFormatError(f"{exc}: {path}") from None


# ---------------------------------------------------------------------------


def assert_same_trace(new: SampleTrace, old: SampleTrace):
    """Equal dtypes and shapes, and equal bits in every column."""
    for a, b in ((new.iterations, old.iterations), (new.values, old.values),
                 (new.index, old.index)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def round_trip(tmp_path, trace: SampleTrace):
    """Write with both writers, demand equal bytes, then read the file with
    both readers and demand bit-identical traces."""
    old_write_trace(trace, tmp_path / "old.csv")
    write_trace(trace, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = read_trace(tmp_path / "new.csv")
    assert_same_trace(back, old_read_trace(tmp_path / "new.csv"))
    assert_same_trace(back, trace)


EDGE_VALUES = [5e-324, -5e-324, 1e308, -1e308, -0.0, -2.5, 1 / 3, -1e-300,
               2.2250738585072014e-308, 123456789.12345679]


@pytest.mark.parametrize("trace", [
    SampleTrace(range(1, 11), EDGE_VALUES, [(i, i + 7, 2**62) for i in range(10)]),
    SampleTrace([1, 2, 9, 2**40], [-3.0, -1e308, -0.0, -7.5], [(5,), (0,), (2**62,), (1,)]),
    SampleTrace([1], [-12.25], [(0, 1, 2)]),
    SampleTrace([1], [5e-324], [(2**62,)]),
], ids=["edge-values", "k1", "one-row", "one-cell"])
def test_round_trip_edge_cases(tmp_path, trace):
    round_trip(tmp_path, trace)


@pytest.fixture(scope="module")
def search_trace():
    return dpp_search(synth_kernel(30, 0.5, 1e-6, seed=0), 10, 50_000, seed=0)


def test_round_trip_search_trace(tmp_path, search_trace):
    round_trip(tmp_path, search_trace)


# (appended row, whether the old reader accepted it)
ROWS = [
    ("3,9,1,0;1,7", False),                 # trailing extra cell
    ("3,9,1,0;12345678901234567890", False),  # index overflows int64
    ("3,9,1,0;1.0", False),
    ("3.0,9,1,0;1", False),
    ("# 3,9,1,0;1", False),
    ('3,9,1,"0;1"', False),
    (" 3 , 9 ,1, 0 ; 1 ", True),            # padded whitespace
    ("3,9,yes,0;1", True),                  # the flag is not read
    ("3,+9e0,1,+0;1", True),
    ("3,\t9,1,\t+0;+1", True),             # tabs and plus signs
]
# Rows the old reader took through Python's int() and float() or its
# skipping of empty index cells and blank lines, which the columnar reader
# refuses.
STRICTER = ["1_000,9,1,0;1", "3,9_0,1,0;1", "3,٩,1,0;1", "3,9,1,0;;1",
            "3,9,1,0;1;", "   \n3,9,1,0;1"]


def toy_trace(path, row):
    path.write_text(f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1,0;1\n{row}\n", encoding="utf-8")


def assert_rejected(path):
    with pytest.raises(InputFormatError) as err:
        read_trace(path)
    assert str(path) in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("row,old_accepts", ROWS)
def test_rows_as_before(tmp_path, row, old_accepts):
    path = tmp_path / "trace.csv"
    toy_trace(path, row)
    if old_accepts:
        assert_same_trace(read_trace(path), old_read_trace(path))
    else:
        with pytest.raises(InputFormatError):
            old_read_trace(path)
        assert_rejected(path)


@pytest.mark.parametrize("row", STRICTER)
def test_stricter_rows(tmp_path, row):
    path = tmp_path / "trace.csv"
    toy_trace(path, row)
    old_read_trace(path)
    assert_rejected(path)


# (file text, the 1-based line of its first refused row, the reason given)
BAD_LINES = [
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,x,1,0;1\n", 3, "could not convert string 'x' to float64"),
    (f"{TRACE_HEADER}\n1.5,1,1,0;1\n", 2, "could not convert string '1.5' to int64"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1,0;1;5\n", 3,
     "expected 2 subset indices as in the first row, found 3"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1,0\n", 3,
     "expected 2 subset indices as in the first row, found 1"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1\n", 3, "expected 4 fields, found 3"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1,0;1,7\n", 3, "expected 4 fields, found 5"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n   \n", 3, "expected 4 fields, found 1"),
    # Blank lines before the header and between rows, and CRLF endings,
    # still count as lines of the file.
    (f"\n\n{TRACE_HEADER}\r\n1,1,1,0;1\r\n\r\n2,2,1,0;y\r\n3,3,1,0\r\n", 6,
     "could not convert string 'y' to int64"),
    # A comma between subset indices: the row has the cell count of a good
    # one, so only its line's comma count refuses it.
    (f"{TRACE_HEADER}\n1,-1,1,0;1\n2,-2,1,3,4\n", 3, "expected 4 fields, found 5"),
    # One comma too many on a line and one too few on the next: the file
    # holds three commas and one semicolon a row, as a good file does.
    (f"{TRACE_HEADER}\n1,-1,1,0;1\n2,-2,1,3,4\n3,-1,0;1;2\n", 3, "expected 4 fields, found 5"),
    (f"{TRACE_HEADER}\n1,-1,1,0;1\n2,-1,0;1;2\n3,-2,1,3,4\n", 3, "expected 4 fields, found 3"),
    # A semicolon in the log_det field: the row has three commas and the
    # cell count of a good one, so only its line's semicolons refuse it.
    (f"{TRACE_HEADER}\n1,-1,1,0;1\n2,-2;1,1,3\n", 3,
     "expected 2 subset indices as in the first row, found 1"),
    # A semicolon in the flag field, and one in the iteration field.
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2,2,1;0,1\n", 3,
     "expected 2 subset indices as in the first row, found 1"),
    (f"{TRACE_HEADER}\n1,1,1,0;1\n2;3,2,1,0;1\n", 3,
     "the dtype passed requires 5 columns but 6 were found"),
]


@pytest.mark.parametrize("text,line,reason", BAD_LINES, ids=[
    "bad-cell", "fractional-int", "extra-index", "missing-index", "few-fields",
    "extra-field", "spaces-only", "blank-lines-and-crlf", "comma-in-subset",
    "balanced-commas", "balanced-commas-reversed", "semicolon-in-log-det",
    "semicolon-in-flag", "semicolon-in-iteration"])
def test_malformed_row_names_its_file_line(tmp_path, text, line, reason):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputFormatError) as err:
        read_trace(path)
    assert str(err.value) == f"malformed trace row in {path}, line {line}: {reason}"
    assert assert_same_in_blocks(path) == str(err.value)


def test_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(f"\r\n{TRACE_HEADER}\r\n1,-1,1,0;3\r\n\r\n2,-0.5,1,1;2\r\n\n".encode())
    assert_same_trace(read_trace(path), old_read_trace(path))


@pytest.mark.parametrize("text", [
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n",
    f"\r\n{TRACE_HEADER}\r\n1,-1,1,0;3\r\n\r\n2,-0.5,1,1;2\r\n\n",
    f"{TRACE_HEADER}\r1,-1,1,0;3\r2,-0.5,1,1;2\r",   # CR line ends
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2",      # no final line end
    f"{TRACE_HEADER}\n1, -1, 1, 0;3\n2,-0.5,1,1;2 \n",  # blanks: each line checked alone
])
def test_good_file_is_one_loadtxt_pass(tmp_path, monkeypatch, text):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    back = read_trace(path)
    assert len(calls) == 1
    assert_same_trace(back, old_read_trace(path))


# ---------------------------------------------------------------------------
# Blocks of text: read_trace parses the body in blocks that each run to the
# first line end at or past _BLOCK_CHARS characters, and one block holds the
# whole body of a small file.


def read_in_blocks(path, chars):
    """read_trace's trace, or its error message, in blocks of at least
    `chars` characters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_BLOCK_CHARS", chars)
        try:
            return read_trace(path)
        except InputFormatError as exc:
            return str(exc)


def assert_same_in_blocks(path):
    """Blocks of one line each and blocks of at least 40 characters read
    path as one block of the whole body does; returns the one-line read."""
    whole = read_in_blocks(path, 10**9)
    reads = [read_in_blocks(path, chars) for chars in (1, 40)]
    for small in reads:
        assert type(small) is type(whole)
        if isinstance(whole, str):
            assert small == whole
        else:
            assert_same_trace(small, whole)
    return reads[0]


def test_search_trace_in_blocks(tmp_path, search_trace):
    write_trace(search_trace, tmp_path / "trace.csv")
    assert_same_trace(assert_same_in_blocks(tmp_path / "trace.csv"), search_trace)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_malformed_row_in_a_later_block(tmp_path, end):
    rows = [f"{i},{-1.0 / i!r},1,{i};{i + 1}" for i in range(1, 21)]
    rows[15] = "16,-0.0625,1,16;x"
    rows[4:4] = ["", "", ""]  # with two blank lines before the header, the bad row is line 22
    path = tmp_path / "trace.csv"
    path.write_bytes((end.join(["", "", TRACE_HEADER, *rows]) + end).encode())
    message = f"malformed trace row in {path}, line 22: could not convert string 'x' to int64"
    for chars in (1, 40, 100):  # the bad row in a block of its own, and later in a block
        assert read_in_blocks(path, chars) == message
    assert assert_same_in_blocks(path) == message


def test_block_whose_lines_all_pass_is_an_input_error(tmp_path, monkeypatch):
    # No such block is known; if one arose, its first line is named, and no
    # ValueError escapes read_trace.
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n3,-0.25,1,1;4\n")
    load_rows = trace_module._load_rows

    def refuse_blocks(text, k):
        if text.count("\n") > 1:
            raise ValueError("refused")
        return load_rows(text, k)

    monkeypatch.setattr(trace_module, "_load_rows", refuse_blocks)
    assert read_in_blocks(path, 10**9) == f"malformed trace rows in {path} from line 2"


@pytest.mark.parametrize("text", [
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n3,-0.25,1,1;4\n4,-2,0,0;1\n",
    f"\r\n{TRACE_HEADER}\r\n1,-1,1,0;3\r\n\r\n2,-0.5,1,1;2\r\n\n",
    f"{TRACE_HEADER}\r1,-1,1,0;3\r2,-0.5,1,1;2\r",
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2",
    # a block of blank lines alone, and blank lines to the end
    f"{TRACE_HEADER}\n1,-1,1,0;3\n\n\n\n\n\n\n2,-0.5,1,1;2\n\n\n\n\n",
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n   \n",
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n3,inf,1,1;2\n",
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n3,-2,1,2;2\n",
    f"{TRACE_HEADER}\n1,-1,1,0;3\n2,-0.5,1,1;2\n2,-2,1,1;2\n",
], ids=["good", "crlf-and-blank", "cr", "no-final-end", "blank-block", "spaces-at-end",
        "infinite-value", "repeated-index", "repeated-iteration"])
def test_files_in_blocks(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    assert_same_in_blocks(path)


# Memory: a trace's text is never held whole beside its parsed copy.  These
# count traced allocations, so they hold on any machine.


@pytest.fixture(scope="module")
def wide_trace():
    """50k rows with k = 10, built directly: 17-digit values and subsets
    3j + (i mod 3) of 30 sites."""
    n = 50_000
    rows = np.arange(n)
    return SampleTrace(rows + 1, -10.0 - np.sqrt(rows) / 7.0,
                       3 * np.arange(10) + (rows % 3)[:, None])


def traced_peak(fn, *args):
    """(fn's result, the peak of memory traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_trace_peaks_below_twice_its_arrays(tmp_path, wide_trace):
    write_trace(wide_trace, tmp_path / "wide.csv")
    back, peak = traced_peak(read_trace, tmp_path / "wide.csv")
    assert_same_trace(back, wide_trace)
    assert peak <= 2 * (back.iterations.nbytes + back.values.nbytes + back.index.nbytes)


def test_bad_last_row_is_diagnosed_in_its_block_alone(tmp_path, monkeypatch, wide_trace):
    path = tmp_path / "wide.csv"
    write_trace(wide_trace, path)
    text = path.read_text()
    path.write_text(text[:text.rindex(";")] + ";x\n")
    calls = []
    load_rows = trace_module._load_rows
    monkeypatch.setattr(trace_module, "_load_rows",
                        lambda text, k: calls.append(text) or load_rows(text, k))
    with pytest.raises(InputFormatError) as err:
        read_trace(path)
    assert str(err.value) == (
        f"malformed trace row in {path}, line 50001: could not convert string 'x' to int64")
    # Blocks hold line ends; the lines of the failing block, checked alone, do not.
    blocks = [t for t in calls if "\n" in t]
    assert len(blocks) <= len(text) // trace_module._BLOCK_CHARS + 1
    assert len(calls) <= len(blocks) + blocks[-1].count("\n")


def test_write_trace_peaks_below_a_megabyte(tmp_path, wide_trace):
    _, peak = traced_peak(write_trace, wide_trace, tmp_path / "wide.csv")
    assert (tmp_path / "wide.csv").stat().st_size > 2_500_000
    assert peak <= 1_000_000


# ---------------------------------------------------------------------------
# SampleTrace storage


def test_subsets_in_any_form_give_one_index():
    rows = [(0, 2), (1, 3), (4, 5)]
    forms = [np.array(rows), [list(r) for r in rows], tuple(rows)]
    traces = [SampleTrace([1, 2, 3], [0.0, 1.0, 2.0], s) for s in forms]
    for t in traces:
        assert t.index.dtype == np.int64 and t.index.shape == (3, 2)
        assert np.array_equal(t.index, rows)
        assert not t.index.flags.writeable


def test_caller_array_stays_writeable():
    index = np.array([[0, 1], [2, 3]])
    SampleTrace([1, 2], [0.0, 1.0], index)
    assert index.flags.writeable


def test_subsets_view_is_built_once_on_first_use():
    trace = SampleTrace([1, 2], [0.0, math.pi], np.array([[0, 1], [2, 3]]))
    assert "subsets" not in vars(trace)
    assert trace.subsets == ((0, 1), (2, 3))
    assert trace.subsets is trace.subsets
    assert all(type(i) is int for s in trace.subsets for i in s)


def test_best_is_a_tuple_of_ints():
    trace = SampleTrace([1, 2, 3], [0.0, 2.0, 2.0], np.array([[0, 1], [2, 3], [4, 5]]))
    it, value, subset = trace.best()
    assert (it, value, subset) == (2, 2.0, (2, 3))
    assert all(type(i) is int for i in subset)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    trace = dpp_search(synth_kernel(12, 0.5, 1e-6, seed=0), 4, 30, seed=0)
    write_trace(trace, d / "valid.csv")
    return d


@given(edits=BYTE_EDITS)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_mutated_trace_is_read_or_an_input_error(fuzz_dir, edits):
    path = fuzz_dir / "mutated.csv"
    path.write_bytes(mutate((fuzz_dir / "valid.csv").read_bytes(), edits))
    try:
        read_trace(path)
    except InputFormatError:
        pass
    assert_same_in_blocks(path)
