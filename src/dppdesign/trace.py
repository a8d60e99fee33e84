"""Objective traces produced by the stochastic searches.

A trace is an ordered sequence of (iteration, objective value, subset)
entries whose running maximum is the best-so-far curve.  Traces round-trip
through CSV with 17-significant-digit values so files parse losslessly.
"""

import io
from functools import cached_property

import numpy as np

from .errors import InputFormatError
from .textio import read_text, write_csv

TRACE_HEADER = "iteration,log_det,is_record,subset"
# Every byte but , ; and newline: deleting them leaves each line's skeleton.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",;\n")
_BLOCK_CHARS = 1 << 15  # least characters of trace text per numpy pass


def record_flags(values: np.ndarray) -> np.ndarray:
    """True where a value of a nonempty sequence strictly exceeds every
    earlier value."""
    flags = np.empty(values.size, dtype=bool)
    flags[0] = True
    if values.size > 1:
        running = np.maximum.accumulate(values)
        flags[1:] = values[1:] > running[:-1]
    return flags


class SampleTrace:
    """Ordered objective evaluations; iterations start at 1 and increase.

    The subsets are held as one read-only (N, k) int64 array, `index`;
    `subsets` is the same data as a tuple of tuples, built on first use.
    `dpp_search` sets `stopped_at` and `policy_checks`; they stay None on
    every other trace.
    """

    stopped_at = policy_checks = None

    def __init__(self, iterations, values, subsets):
        it = np.asarray(iterations, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if it.size == 0:
            raise ValueError("trace must be nonempty")
        # A view, so that marking it read-only leaves a caller's array writable.
        index = np.asarray(subsets, dtype=np.int64).view()
        if it.size != vals.size or index.ndim != 2 or len(index) != it.size:
            raise ValueError("trace columns disagree in length")
        if it[0] != 1 or np.any(np.diff(it) <= 0):
            raise ValueError("iterations must increase strictly from 1")
        self.iterations = it
        self.values = vals
        self.index = index
        for arr in (it, vals, index):
            arr.setflags(write=False)

    @cached_property
    def subsets(self) -> tuple:
        return tuple(map(tuple, self.index.tolist()))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def best_so_far(self) -> np.ndarray:
        return np.maximum.accumulate(self.values)

    def best(self):
        """(iteration, value, subset) of the first attainment of the maximum."""
        i = int(np.argmax(self.values))
        return int(self.iterations[i]), float(self.values[i]), tuple(self.index[i].tolist())


def write_trace(trace: SampleTrace, path) -> None:
    write_csv(path, TRACE_HEADER.split(","),
              [trace.iterations, trace.values, record_flags(trace.values), trace.index])


def _load_rows(text: str, k: int) -> np.ndarray:
    """Trace rows with k-index subsets, each split into k index cells; the
    flag is read as text and ignored, as it is recomputed from the values."""
    dtype = np.dtype([("iteration", "i8"), ("log_det", "f8"), ("flag", "U1"),
                      ("index", "i8", (k,))])
    return np.loadtxt(io.StringIO(text.replace(";", ",")), dtype=dtype,
                      delimiter=",", comments=None, ndmin=1)


def _read_rows(body: str, k: int, first_line: int, path):
    """(iterations, values, index) of the rows, one numpy pass per block
    into arrays sized by the line count.  A block runs to the first line
    end at or past _BLOCK_CHARS characters; one that fails numpy's pass or
    holds a nonblank line other than three commas, then k - 1 semicolons,
    between its cells is diagnosed alone, as the blocks before it passed."""
    skeleton = [b",,," + b";" * (k - 1)]
    size = body.count("\n") + 1
    columns = np.empty(size, np.int64), np.empty(size), np.empty((size, k), np.int64)
    m = end = 0
    while end < len(body):
        start, end = end, body.find("\n", end + _BLOCK_CHARS - 1) + 1 or len(body)
        block = body[start:end]
        if not block.strip("\n"):
            continue  # blank lines only: numpy would read no rows, and warn
        try:
            rows = _load_rows(block, k)
        except ValueError:
            rows = None
        if rows is None or (block.encode().translate(None, _NOT_SEPARATORS).split()
                            != skeleton * rows.size):
            _diagnose(block, k, first_line + body.count("\n", 0, start), path)
        for column, name in zip(columns, ("iteration", "log_det", "index")):
            column[m:m + rows.size] = rows[name]
        m += rows.size
    return tuple(column[:m] for column in columns)


def _diagnose(block: str, k: int, first_line: int, path):
    """Raises for a block that failed: each line is checked alone, since
    numpy's row numbers count from 0 or 1 by the kind of error and count
    index cells as columns, and the first malformed one is named."""
    for number, line in enumerate(block.split("\n"), start=first_line):
        fields = line.split(",")
        cells = fields[-1].count(";") + 1
        reason = (f"expected 4 fields, found {len(fields)}" if len(fields) != 4 else
                  f"expected {k} subset indices as in the first row, found {cells}"
                  if cells != k else None)
        try:
            if line and not reason:
                _load_rows(line, k)
        except ValueError as exc:
            reason = str(exc).partition(" at row ")[0]
        if line and reason:
            raise InputFormatError(f"malformed trace row in {path}, line {number}: {reason}")
    raise InputFormatError(f"malformed trace rows in {path} from line {first_line}")


def read_trace(path) -> SampleTrace:
    text = read_text(path, "trace")
    header, _, body = text.lstrip().partition("\n")
    # The body starts on the line after the header.  The whole text is let
    # go before the numpy passes, so that it does not add to their peak.
    first_line = text.count("\n", 0, len(text) - len(body)) + 1
    del text
    if header.strip() != TRACE_HEADER:
        raise InputFormatError(f"not a trace file (bad header): {path}")
    first = body.lstrip().partition("\n")[0]
    if not first:
        raise InputFormatError(f"empty trace: {path}")
    # k is read off the first row's subset.  numpy reads a semicolon as a
    # comma, so each nonblank line must also hold three commas, then k - 1
    # semicolons, and no other separators.
    k = first.rpartition(",")[2].count(";") + 1
    iterations, values, index = _read_rows(body, k, first_line, path)
    del body
    if not np.all(np.isfinite(values)):
        raise InputFormatError(f"trace log_det values must be finite: {path}")
    if index.min() < 0 or np.any(index[:, 1:] <= index[:, :-1]):
        raise InputFormatError(
            f"trace subsets must hold nonnegative, strictly increasing indices: {path}"
        )
    try:
        return SampleTrace(iterations, values, index)
    except ValueError as exc:
        raise InputFormatError(f"{exc}: {path}") from None
