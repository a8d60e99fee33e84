"""One cell rule for every report CSV and one dump for every report JSON."""

import csv
import json

import numpy as np


def _cell(x) -> str:
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


def write_csv(path, header, columns) -> None:
    """Header row, then one row per position of the equal-length columns
    (sequences, or numpy arrays read as Python scalars).  Cells are
    formatted as their row is written; a string holding a comma, quote or
    newline is quoted."""
    cells = [map(_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(zip(*cells))


def write_json(path, payload) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
