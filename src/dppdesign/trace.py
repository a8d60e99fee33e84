"""Objective traces produced by the stochastic searches.

A trace is an ordered sequence of (iteration, objective value, subset)
entries whose running maximum is the best-so-far curve.  Traces round-trip
through CSV with 17-significant-digit values so files parse losslessly.
"""

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
    """Ordered objective evaluations; iterations start at 1 and increase."""

    def __init__(self, iterations, values, subsets, raw_values=None):
        it = np.asarray(iterations, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if it.size == 0:
            raise ValueError("trace must be nonempty")
        if it.size != vals.size or len(subsets) != it.size:
            raise ValueError("trace columns disagree in length")
        if it[0] != 1 or np.any(np.diff(it) <= 0):
            raise ValueError("iterations must increase strictly from 1")
        self.iterations = it
        self.values = vals
        self.subsets = tuple(tuple(int(i) for i in s) for s in subsets)
        if raw_values is not None:
            raw_values = np.asarray(raw_values, dtype=np.float64)
            if raw_values.size != vals.size:
                raise ValueError("raw values length mismatch")
            raw_values.setflags(write=False)
        self.raw_values = raw_values
        it.setflags(write=False)
        vals.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def best_so_far(self) -> np.ndarray:
        return np.maximum.accumulate(self.values)

    def best(self):
        """(iteration, value, subset) of the first attainment of the maximum."""
        i = int(np.argmax(self.values))
        return int(self.iterations[i]), float(self.values[i]), self.subsets[i]

    def __len__(self):
        return self.n


def write_trace(trace: SampleTrace, path) -> None:
    write_csv(path, TRACE_HEADER.split(","),
              [trace.iterations, trace.values, record_flags(trace.values), trace.subsets])


def read_trace(path) -> SampleTrace:
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
