"""Objective traces produced by the stochastic searches.

A trace is an ordered sequence of (iteration, objective value, subset)
entries whose running maximum is the best-so-far curve.  Traces round-trip
through CSV with 17-significant-digit values so files parse losslessly.
"""

import io
from functools import cached_property

import numpy as np

from .errors import InputFormatError
from .textio import write_csv

TRACE_HEADER = "iteration,log_det,is_record,subset"


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
    """

    def __init__(self, iterations, values, subsets, raw_values=None):
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
        if raw_values is not None:
            raw_values = np.asarray(raw_values, dtype=np.float64)
            if raw_values.size != vals.size:
                raise ValueError("raw values length mismatch")
            raw_values.setflags(write=False)
        self.raw_values = raw_values
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

    def __len__(self):
        return self.n


def write_trace(trace: SampleTrace, path) -> None:
    write_csv(path, TRACE_HEADER.split(","),
              [trace.iterations, trace.values, record_flags(trace.values), trace.index])


def read_trace(path) -> SampleTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, _, body = fh.read().lstrip().partition("\n")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    if header.strip() != TRACE_HEADER:
        raise InputFormatError(f"not a trace file (bad header): {path}")
    first = next((ln for ln in io.StringIO(body) if ln.strip()), None)
    if first is None:
        raise InputFormatError(f"empty trace: {path}")
    # One numpy pass over all rows, with k read off the first row's subset
    # and each subset split into k index cells; the flag is read as text and
    # ignored, as it is recomputed from the values.
    k = first.rpartition(",")[2].count(";") + 1
    dtype = np.dtype([("iteration", "i8"), ("log_det", "f8"), ("flag", "U1"),
                      ("index", "i8", (k,))])
    try:
        rows = np.loadtxt(io.StringIO(body.replace(";", ",")), dtype=dtype,
                          delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        # numpy's message, without its closing hint to pass `usecols`
        reason = str(exc).split(";")[0].rstrip(".")
        raise InputFormatError(f"malformed trace row in {path}: {reason}") from None
    values = np.ascontiguousarray(rows["log_det"])
    if not np.all(np.isfinite(values)):
        raise InputFormatError(f"trace log_det values must be finite: {path}")
    index = np.ascontiguousarray(rows["index"])
    if index.min() < 0 or np.any(np.diff(index, axis=1) <= 0):
        raise InputFormatError(
            f"trace subsets must hold nonnegative, strictly increasing indices: {path}"
        )
    try:
        return SampleTrace(np.ascontiguousarray(rows["iteration"]), values, index)
    except ValueError as exc:
        raise InputFormatError(f"{exc}: {path}") from None
