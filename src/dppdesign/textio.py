"""One reader for every input file, one cell writer for every report CSV
and one dump for every report JSON."""

import json

import numpy as np

from .errors import InputFormatError

# A CSV is written as blocks of cells: each cell a row of bytes padded to
# the block's width with _PAD, which UTF-8 text never holds, so deleting it
# leaves exactly the text (a str cell's NULs included).  Numeric cells are
# laid out in 4-byte words, each held as a uint32.
_PAD = 0xFF
_BLOCK_ROWS = 2048  # rows formatted and written as one byte block
_WORD = np.uint32(0xFFFFFFFF)  # four pads
_DOT, _SEMI, _MINUS = np.frombuffer(b".\xff\xff\xff;\xff\xff\xff-\xff\xff\xff", np.uint32)
# The four digits of 0..9999 ("0042" for 42) as words, and _SHOW[a, b], the
# mask that pads all but digits a..b-1 of a word when or-ed with it.
_NUMBERS = np.arange(10_000)
_DIGITS = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
_WORDS = np.ascontiguousarray(_DIGITS).view(np.uint32).ravel()
_PLACE = np.arange(4)
_SHOW = np.where((_PLACE >= np.arange(5)[:, None, None]) & (_PLACE < np.arange(5)[:, None]),
                 0, _PAD).astype(np.uint8).view(np.uint32)[..., 0]
# The words of an integer: a group of four digits, the same as a number's
# leading group (its leading zeros padded), then four pads.
_LEADING_ZEROS = 3 - sum(_NUMBERS >= 10**i for i in (1, 2, 3))
_INT_WORDS = np.concatenate([_WORDS, _WORDS | _SHOW[_LEADING_ZEROS, 4], [_WORD]])
# A fixed %.17g cell: 8 bytes by (sign, exponent -4..16, first digit), the
# words of 16 more digits up to the point, the point, and the same words
# from the point to the last nonzero digit (%g drops trailing zeros).
_HEAD = np.array([(("-" if neg else "") + ("0." + "0" * (-e - 1) if e < 0 else "")
                   + str(lead)).encode().ljust(8, b"\xff")
                  for neg in (0, 1) for e in range(-4, 17) for lead in range(10)], "S8")
_HEAD = _HEAD.view(np.uint32).reshape(-1, 2).T.copy()
_E, _KEPT = np.arange(-4, 17)[:, None], np.arange(18)
# Per group of digits 4g+1..4g+4: its mask by e + 4 up to the point and by
# (e + 4, kept) after it, and kept if it is the last nonzero group (a table
# of the group's value).
_WHOLE = [_SHOW[0, np.clip(_E[:, 0] - 4 * g, 0, 4)] for g in range(4)]
_FRACTION = [_SHOW[np.clip(_E - 4 * g, 0, 4), np.clip(_KEPT - 1 - 4 * g, 0, 4)].ravel()
             for g in range(4)]
_TRAILING_ZEROS = sum(_NUMBERS % 10**i == 0 for i in (1, 2, 3))
_KEPT_BY = [np.where(_NUMBERS > 0, 5 + 4 * g - _TRAILING_ZEROS, 1).astype(np.int8)
            for g in range(4)]
_POW10 = np.array([float(10**i) for i in range(21)])  # exact doubles
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def read_text(path, what) -> str:
    """The text of a UTF-8 input file, each line end read as a newline; a
    file that cannot be read or decoded is an input error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} {path}: {exc}") from None


def _quote(s: str) -> str:
    """csv's minimal quoting, and a carriage return's: a cell holding a
    comma, quote, newline or carriage return is quoted, with inner quotes
    doubled."""
    if any(c in s for c in ',"\n\r'):
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


def _text_cells(cells) -> np.ndarray:
    """(len(cells), width) padded UTF-8 bytes of a list of str."""
    data = [s.encode() for s in cells]
    lens = np.array([len(b) for b in data], dtype=np.intp)
    width = max(lens.max(initial=0), 1)
    out = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    out[np.arange(width) >= lens[:, None]] = _PAD
    return out


def _int_cells(v: np.ndarray) -> np.ndarray:
    """The %d cells of a 1-d integer or bool array, as words."""
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2^64: |v|, int64's least too
    groups = len(str(int(mag.max(initial=0)))) + 3 >> 2
    cells = np.empty((v.size, groups), np.uint32)
    for i in reversed(range(groups)):  # group 0, the last, in mag's memory
        unit = 10_000**i
        lead = mag < min(unit * 10_000, 2**64 - 1)
        word = mag // unit if i else mag
        if i < groups - 1:
            word %= 10_000
        word[lead] += 10_000  # the leading group: no leading zeros
        if i:
            word[mag < unit] = 20_000  # above the leading group: all pads
        cells[:, groups - 1 - i] = _INT_WORDS[word]
    if neg.any():
        cells = np.column_stack([np.where(neg, _MINUS, _WORD), cells])
    return cells


def _digits(ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round(ax * 10^(16 - e)), half to even, in int64.  Dekker's
    error-free product gives ax * 10^(16 - e) = hi + lo exactly; at 2^53 or
    more, hi is an even integer, so rounding lo rounds the sum."""
    i = 16 - e
    p, p_hi, p_lo = _POW10[i], _POW10_HI[i], _POW10_LO[i]
    c = _SPLIT * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    hi = ax * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The %.17g cells of a 1-d float array, as words.  A value of exponent
    -4..16 is written in fixed notation from its 17 exact digits (rounding
    never carries to 10^17: no double lies within 5e-18, relative, below a
    power of ten); zeros, subnormals, other exponents, infinities and nans
    are formatted one by one."""
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e17)
    ax = np.where(fixed, ax, 1.0)
    e = np.minimum(np.maximum(np.floor(np.log10(ax)).astype(np.intp), -4), 16)
    d = _digits(ax, e)
    off = (d < 10**16).astype(np.intp) - (d >= 10**17)  # log10 missed by one
    if off.any():
        e -= off
        d = _digits(ax, e)
    first = d // 10**16
    words, kept, above = [], np.ones(x.size, np.int8), first
    for g, unit in enumerate((10**12, 10**8, 10**4, 1)):
        q = d // unit
        words.append(q - above * 10_000)
        kept = np.maximum(kept, _KEPT_BY[g][words[-1]])
        above = q
    row = e + 4  # of the tables by exponent
    cells = np.empty((x.size, 11), np.uint32)
    head = ((x < 0) * 21 + row) * 10 + first
    cells[:, 0], cells[:, 1] = _HEAD[0, head], _HEAD[1, head]
    point = row * 18 + kept
    for g, w in enumerate(words):
        word = _WORDS[w]
        cells[:, 2 + g] = word | _WHOLE[g][row]
        cells[:, 7 + g] = word | _FRACTION[g][point]
    cells[:, 6] = np.where((e >= 0) & (kept > e + 1), _DOT, _WORD)
    if not fixed.all():
        rest = ~fixed
        text = _text_cells([format(v, ".17g") for v in x[rest].tolist()])
        cells[rest] = _WORD
        cells.view(np.uint8)[rest, :text.shape[1]] = text
    return cells


def _cells(c, rows: slice) -> np.ndarray:
    """(rows, width) padded cells of one column: a numeric numpy column by
    the kernels (a 2-D one as ;-joined cells, a subset's indices), anything
    else by _cell."""
    if not (isinstance(c, np.ndarray) and c.dtype.kind in "fiub"):
        return _text_cells(map(_cell, c[rows].tolist() if isinstance(c, np.ndarray) else c[rows]))
    block = c[rows]
    cells = (_float_cells if c.dtype.kind == "f" else _int_cells)(block.ravel())
    if block.ndim == 1:
        return cells.view(np.uint8)
    m, k = block.shape
    cells = np.concatenate([cells.reshape(m, k, -1), np.full((m, k, 1), _SEMI)], axis=2)
    cells[:, -1, -1] = _WORD
    return cells.reshape(m, -1).view(np.uint8)


def _padded_rows(columns, rows: slice) -> bytes:
    """Some rows' cells, with the commas and newline of each row, as padded
    bytes (the block of cells is let go before the caller strips them)."""
    comma = np.full((rows.stop - rows.start, 1), ord(","), np.uint8)
    block = np.hstack([part for c in columns for part in (_cells(c, rows), comma)])
    block[:, -1] = ord("\n")
    return block.tobytes()


def write_csv(path, header, columns) -> None:
    """Header row, then one row per position of the equal-length columns
    (sequences, numpy arrays, or 2-D integer arrays written as ;-joined
    subsets), written as one byte block per _BLOCK_ROWS rows."""
    n = min(map(len, columns))
    with open(path, "wb") as fh:
        fh.write((",".join(map(_quote, header)) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, n))
            fh.write(_padded_rows(columns, rows).translate(None, bytes([_PAD])))


def write_json(path, payload) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
