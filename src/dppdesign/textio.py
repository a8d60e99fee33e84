"""One reader for every input file, one cell rule for every report CSV and
one dump for every report JSON."""

import json
from itertools import chain, islice

import numpy as np

from .errors import InputFormatError

# printf conversion of a numpy column by dtype kind; each row of a 2-D
# column is one cell of ;-joined values (a subset's indices).
_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}
_BLOCK_ROWS = 512  # rows filled into one printf template


class Cells:
    """A column of cells already formatted, written as they are."""

    def __init__(self, cells):
        self.cells = cells


def float_cells(x, reuse=None) -> list:
    """The %.17g cells of a 1-d float array.  With reuse = (y, cells of y),
    y at least as long as x, x is matched against y's last x.size values:
    where the bits agree the cell of y is reused, and only the other values
    are formatted (bits, not ==, since -0.0 == 0.0 but prints as -0)."""
    fmt = _FORMATS["f"].__mod__
    if reuse is None:
        return list(map(fmt, x.tolist()))
    y, cells = reuse
    start = y.size - x.size
    out = cells[start:]
    idx = np.flatnonzero(x.view(np.int64) != y[start:].view(np.int64)).tolist()
    for i, v in zip(idx, x[idx].tolist()):
        out[i] = fmt(v)
    return out


def read_text(path, what) -> str:
    """The text of a UTF-8 input file, each line end read as a newline; a
    file that cannot be read or decoded is an input error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} {path}: {exc}") from None


def _quote(s: str) -> str:
    """csv's minimal quoting for rows ending in a newline: a cell holding a
    comma, quote or newline is quoted, with inner quotes doubled."""
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _cell(x) -> str:
    """17 significant digits for a float (so files parse back losslessly;
    infinities read inf), digits for an int and an empty cell for None."""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, str):
        return _quote(x)
    return "" if x is None else format(x, "d")


def _column(c):
    """(printf conversions, value sequences) of one column: Cells as they
    are, a numeric numpy column by its dtype, anything else cell by cell."""
    if isinstance(c, Cells):
        return "%s", [c.cells]
    if isinstance(c, np.ndarray) and c.dtype.kind in _FORMATS:
        if c.ndim == 2:
            return ";".join([_FORMATS[c.dtype.kind]] * c.shape[1]), [v.tolist() for v in c.T]
        return _FORMATS[c.dtype.kind], [c.tolist()]
    return "%s", [map(_cell, c.tolist() if isinstance(c, np.ndarray) else c)]


def write_csv(path, header, columns) -> None:
    """Header row, then one row per position of the equal-length columns
    (sequences, numpy arrays, or 2-D integer arrays written as ;-joined
    subsets), filled into one printf template per _BLOCK_ROWS rows."""
    specs, values = zip(*map(_column, columns))
    sequences = [v for vs in values for v in vs]
    template = ",".join(specs) + "\n"
    flat = chain.from_iterable(zip(*sequences))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        while block := tuple(islice(flat, _BLOCK_ROWS * len(sequences))):
            fh.write(template * (len(block) // len(sequences)) % block)


def write_json(path, payload) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
